"""First-order Pareto optimality of GPOA and PPMPOA on generated scenarios.

After a run, a witness is a surplus provider n with capacity left in resource
k and a remote app with request left in k, where one delta-step grant from n
has a share gain above `epsilon_gain` and covers its communication cost as
`_rollback_uncovered_cost` requires. Such a grant would raise n's sharing
payoff and the app owner's bonus at no one's cost, so a Pareto-optimal run
leaves none. Without the cost condition the check does find gaps: the
rollback zeroes whole grants whose utility does not cover their cost, and
leaves them open.
"""
import itertools

import pytest

from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa
from mecshare.ppmpoa import run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import SubproblemResult, _rollback_uncovered_cost, build_share_spec

from conftest import initial_state

SEEDS = range(1, 6)


def scenario(setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    return with_comm_costs(s, 100 * setting + seed) if costs else s


def runs(s, seed):
    for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(seed)):
        yield run_gpoa(s, scheme)
    yield run_ppmpoa(s)


def pareto_witnesses(s, result, cover_cost=True):
    """(provider, app, resource, step) of every one-step grant the run left open."""
    state = initial_state(s)
    for ev in result.events:
        state.commit(ev.allocator, {(j, k): x for j, k, x in ev.chunks}, ev.phase)
    witnesses = []
    for n in partition_players(s)[1]:
        remote = state.deficit_apps(s, [m for m in s.provider_ids() if m != n])
        spec = build_share_spec(s, n, state, remote)
        for it in spec.items:
            step = min(s.delta, it.ub, spec.capacity[it.k])
            if spec.capacity[it.k] <= s.tol or it.f(step) <= s.epsilon_gain:
                continue
            grant = SubproblemResult({(it.app, it.k): step}, it.f(step), step)
            if cover_cost and _rollback_uncovered_cost(s, n, state, grant)[(it.app, it.k)] == 0.0:
                continue
            witnesses.append((n, it.app, it.k, step))
    return witnesses


@pytest.mark.parametrize(
    "setting,utility,costs",
    list(itertools.product((1, 2, 3, 4), ("linear", "sigmoid"), (False, True))),
)
def test_no_run_leaves_a_one_step_grant_open(setting, utility, costs):
    for seed in SEEDS:
        s = scenario(setting, seed, utility, costs)
        for result in runs(s, seed):
            assert pareto_witnesses(s, result) == []


def test_without_the_cost_condition_costed_sigmoid_runs_have_witnesses():
    found = 0
    for setting, seed in itertools.product((1, 2, 3, 4), SEEDS):
        s = scenario(setting, seed, "sigmoid", True)
        found += sum(len(pareto_witnesses(s, r, cover_cost=False)) for r in runs(s, seed))
    assert found > 0
