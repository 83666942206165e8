"""Property tests of the communication-cost path on generated scenarios of every setting.

Costs d ~ U[0, 0.5] on every remote (provider, app) pair let the share
objectives fall as x grows and let `_rollback_uncovered_cost` zero grants. The
examples are derandomized, so the suite stays deterministic.
"""
import copy

from hypothesis import given, settings, strategies as st

from mecshare.game import realized_payoffs
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa, run_solo_phase
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import solve_surplus_share


costly_scenarios = st.builds(
    lambda setting, seed, utility, cost_seed: with_comm_costs(
        generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility)), cost_seed
    ),
    setting=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    utility=st.sampled_from(["linear", "sigmoid"]),
    cost_seed=st.integers(0, 2**32 - 1),
)
schemes = st.one_of(
    st.builds(OrderingScheme.cao, st.integers(0, 2)),
    st.builds(OrderingScheme.cdo, st.integers(0, 2)),
    st.builds(OrderingScheme.random, st.integers(0, 2**32 - 1)),
)
cost_path = settings(max_examples=25, derandomize=True, deadline=None)


def assert_feasible_and_replayable(s, result):
    assert result.allocation.check_feasibility(s) == []
    total = sum(p.total for p in result.payoffs.values())
    replay = sum(realized_payoffs(s, result.events).values())
    assert abs(replay - total) <= 1e-9 * max(1.0, abs(total))


@cost_path
@given(s=costly_scenarios, scheme=schemes)
def test_gpoa_is_feasible_and_replays(s, scheme):
    assert_feasible_and_replayable(s, run_gpoa(s, scheme))


@cost_path
@given(s=costly_scenarios)
def test_ppmpoa_is_feasible_replays_and_is_stable(s):
    result = run_ppmpoa(s)
    assert_feasible_and_replayable(s, result)
    assert check_matching_stability(result, s) == []


@cost_path
@given(s=costly_scenarios)
def test_pair_match_leaves_the_state_unchanged(s):
    state = run_solo_phase(s)[0]
    before = copy.deepcopy(state)
    g1, g2 = partition_players(s)
    for m in g1:
        for n in g2:
            solve_surplus_share(s, n, state, state.deficit_apps(s, [m]), {})
            assert state == before
