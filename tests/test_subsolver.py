import copy
import random

import pytest

from mecshare import subsolver
from mecshare.gpoa import OrderingScheme, run_gpoa
from mecshare.model import Provider, UtilitySpec
from mecshare.ppmpoa import run_ppmpoa
from mecshare.subsolver import (
    SubproblemItem,
    SubproblemSpec,
    allocate_greedy,
    allocate_oracle,
    build_share_spec,
    build_solo_spec,
    solve_single_provider,
    solve_surplus_share,
)

from conftest import initial_state, left_sum, linear_app, make_scenario
from test_acceptance import _random_subproblem


def linear_items(params, r_equals_ub=True):
    """params: list of (app, k, ub, a, c); objective a*x + c + x/ub."""
    items = []
    for app, k, ub, a, c in params:
        def f(x, a=a, c=c, r=ub):
            return a * x + c + x / r

        items.append(SubproblemItem(app=app, k=k, ub=ub, f=f))
    return items


class TestAllocateGreedy:
    def test_two_item_example_matches_hand_solution(self):
        # Capacity 5 split between requests of 4 and 6 with unit slope:
        # per-unit gains are 1.25 and ~1.167, so the first item fills first.
        spec = SubproblemSpec(
            items=linear_items([(1, 0, 4.0, 1.0, 0.0), (2, 0, 6.0, 1.0, 0.0)]),
            capacity={0: 5.0},
        )
        res = allocate_greedy(spec, delta=0.01, epsilon_gain=1e-9)
        assert res.allocation[(1, 0)] == pytest.approx(4.0, abs=1e-9)
        assert res.allocation[(2, 0)] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(4.0 + 1.0 + 1.0 + 1.0 / 6.0, abs=1e-9)
        assert res.resources_used == pytest.approx(5.0, abs=1e-9)

    def test_matches_oracle_on_hand_example(self):
        spec = SubproblemSpec(
            items=linear_items([(1, 0, 4.0, 1.0, 0.0), (2, 0, 6.0, 1.0, 0.0)]),
            capacity={0: 5.0},
        )
        greedy = allocate_greedy(spec, delta=0.01, epsilon_gain=1e-9)
        oracle = allocate_oracle(spec, grid_step=0.5)
        assert greedy.objective_value == pytest.approx(oracle.objective_value, abs=1e-9)

    def test_final_unit_is_clamped_to_capacity(self):
        spec = SubproblemSpec(
            items=linear_items([(1, 0, 10.0, 1.0, 0.0)]),
            capacity={0: 2.505},
        )
        res = allocate_greedy(spec, delta=0.01, epsilon_gain=1e-9)
        assert res.allocation[(1, 0)] == pytest.approx(2.505, abs=1e-12)

    def test_zero_gain_items_left_untouched(self):
        spec = SubproblemSpec(
            items=[SubproblemItem(app=1, k=0, ub=5.0, f=lambda x: 0.0)],
            capacity={0: 5.0},
        )
        res = allocate_greedy(spec, delta=0.1, epsilon_gain=1e-9)
        assert res.allocation[(1, 0)] == 0.0

    def test_epsilon_gain_stops_items_on_a_slack_resource_type(self):
        # Each step gains 0.01 * (1 + 1/2) = 0.015 <= epsilon_gain on both types:
        # capacity 10 covers the request on resource 0, and 1 does not on
        # resource 1. Neither is granted; a fill of the slack type that ignores
        # epsilon_gain would grant 2.0 of resource 0.
        app = linear_app(1, owner=1, request=(2.0, 2.0), a=1.0)
        s = make_scenario([Provider(id=1, capacity=(10.0, 1.0), native_apps=(1,))], [app],
                          K=2, epsilon_gain=1.0)
        res = solve_single_provider(s, 1)
        assert dict(res.allocation) == {(1, 0): 0.0, (1, 1): 0.0}

    def test_empty_spec_is_worth_float_zero(self):
        res = allocate_greedy(SubproblemSpec(items=[], capacity={0: 1.0}), delta=0.5, epsilon_gain=1e-9)
        assert res.allocation == {}
        assert res.objective_value == res.resources_used == 0.0
        assert type(res.objective_value) is type(res.resources_used) is float

    def test_rejects_nonpositive_delta(self):
        spec = SubproblemSpec(items=[], capacity={})
        with pytest.raises(ValueError):
            allocate_greedy(spec, delta=0.0, epsilon_gain=1e-9)

    def test_rejects_negative_epsilon_gain(self):
        spec = SubproblemSpec(items=[], capacity={})
        with pytest.raises(ValueError):
            allocate_greedy(spec, delta=0.01, epsilon_gain=-1.0)

    @pytest.mark.parametrize("t", [1.0, 2.0**-60], ids=["unit", "2**-60"])
    def test_stale_gain_slack_is_relative_to_the_gains(self, t):
        # App 1 takes 3t and leaves 0.05t, which app 3 gains more from (0.05t)
        # than app 2 ((0.05t)**2 * 10/t). App 2's queued full-step gain is stale
        # and must be re-queued at any scale; an absolute slack of 1e-15 dwarfs
        # gains near 2**-60 and granted the remainder to app 2 there.
        spec = SubproblemSpec(
            items=[
                SubproblemItem(app=1, k=0, ub=3 * t, f=lambda x: 100 * x),
                SubproblemItem(app=2, k=0, ub=t, f=lambda x: 10 * x * x / t),
                SubproblemItem(app=3, k=0, ub=t, f=lambda x: x),
            ],
            capacity={0: 3.05 * t},
        )
        res = allocate_greedy(spec, delta=t, epsilon_gain=0.0)
        assert dict(res.allocation) == {(1, 0): 3 * t, (2, 0): 0.0, (3, 0): (3.05 - 3.0) * t}

    def test_a_run_of_steps_lands_on_the_request(self):
        # Capacity 5, requests of 3: app 1 (slope 2) gets its 300 steps of 0.01
        # as exactly 3.0, and app 2 the 2.0 left. Repeated additions stopped
        # at 2.99999999999998 and 2.0000000000000013.
        s = make_scenario(
            [Provider(id=1, capacity=(5.0,), native_apps=(1, 2))],
            [linear_app(1, owner=1, request=(3.0,), a=2.0),
             linear_app(2, owner=1, request=(3.0,), a=1.0)],
        )
        res = solve_single_provider(s, 1)
        assert dict(res.allocation) == {(1, 0): 3.0, (2, 0): 2.0}
        assert res.resources_used == 5.0


class TestAllocateOracle:
    def test_empty_spec_has_zero_objective(self):
        res = allocate_oracle(SubproblemSpec(items=[], capacity={}), grid_step=0.5)
        assert res.objective_value == 0.0
        assert res.allocation == {}
        assert type(res.objective_value) is type(res.resources_used) is float

    def test_a_negative_capacity_gives_the_greedys_all_zero_answer(self):
        # Even x = 0 exceeds the capacity, so the search reaches no grid leaf.
        spec = SubproblemSpec(
            items=linear_items([(1, 0, 2.0, 1.0, 0.25), (2, 0, 1.0, 1.0, 0.5)]), capacity={0: -1.0}
        )
        oracle = allocate_oracle(spec, grid_step=0.5)
        greedy = allocate_greedy(spec, delta=0.5, epsilon_gain=1e-9)
        assert dict(oracle.allocation) == dict(greedy.allocation) == {(1, 0): 0.0, (2, 0): 0.0}
        assert oracle.objective_value == greedy.objective_value == 0.75
        assert oracle.resources_used == greedy.resources_used == 0.0

    def test_ties_resolve_to_lexicographically_smallest(self):
        # Both items have identical contributions; only one unit fits.
        spec = SubproblemSpec(
            items=[
                SubproblemItem(app=1, k=0, ub=1.0, f=lambda x: x),
                SubproblemItem(app=2, k=0, ub=1.0, f=lambda x: x),
            ],
            capacity={0: 1.0},
        )
        res = allocate_oracle(spec, grid_step=1.0)
        # Smallest in item order: (0, 1) precedes (1, 0).
        assert res.allocation[(1, 0)] == pytest.approx(0.0)
        assert res.allocation[(2, 0)] == pytest.approx(1.0)

    def test_grid_size_cap_enforced(self):
        items = [
            SubproblemItem(app=i, k=0, ub=100.0, f=lambda x: x) for i in range(5)
        ]
        with pytest.raises(ValueError, match="grid has more than"):
            allocate_oracle(
                SubproblemSpec(items=items, capacity={0: 10.0}), grid_step=0.01
            )

    def test_non_grid_upper_bound_is_reachable(self):
        spec = SubproblemSpec(
            items=[SubproblemItem(app=1, k=0, ub=0.75, f=lambda x: x)],
            capacity={0: 1.0},
        )
        res = allocate_oracle(spec, grid_step=0.5)
        assert res.allocation[(1, 0)] == pytest.approx(0.75)

    def test_grid_points_stay_within_the_bound(self):
        # 6 * 0.1 is 0.6000000000000001: the top grid point is clamped to ub.
        spec = SubproblemSpec(
            items=[SubproblemItem(app=1, k=0, ub=0.6, f=lambda x: x)],
            capacity={0: 1.0},
        )
        res = allocate_oracle(spec, grid_step=0.1)
        assert res.allocation[(1, 0)] == 0.6

    def test_a_spec_scaled_by_a_power_of_two_gets_the_scaled_answer(self):
        # Two items of ub 0.6 share a capacity of 1 on a grid of 0.1. At a
        # scale of 2**-40 an absolute 1e-12 slack exceeded the whole capacity
        # and granted both items their ub, 1.2 times the capacity.
        def spec(scale):
            ub = 0.6 * scale
            items = [
                SubproblemItem(app=j, k=0, ub=ub, f=lambda x, ub=ub: (x / ub) ** 2) for j in (1, 2)
            ]
            return SubproblemSpec(items=items, capacity={0: scale})

        scale = 2.0**-40
        unscaled = allocate_oracle(spec(1.0), grid_step=0.1)
        assert dict(unscaled.allocation) == {(1, 0): pytest.approx(0.4), (2, 0): pytest.approx(0.6)}
        res = allocate_oracle(spec(scale), grid_step=0.1 * scale)
        assert res.resources_used <= scale
        assert dict(res.allocation) == {key: x * scale for key, x in unscaled.allocation.items()}


def assert_result_sums_its_allocation(spec, res):
    """The objective and resources are Σ f(x) and Σ x over res's allocation, bit for bit."""
    f = {(it.app, it.k): it.f for it in spec.items}
    keys = list(res.allocation)
    assert keys == sorted(keys) and set(keys) == set(f)
    objective = left_sum(f[key](res.allocation[key]) for key in keys)
    assert res.objective_value.hex() == objective.hex()
    assert res.resources_used.hex() == left_sum(res.allocation.values()).hex()


class TestOneResultBuilder:
    """`allocate_greedy`, `allocate_oracle` and `solve_surplus_share` build results alike."""

    def test_criterion_9_results_sum_their_allocations(self):
        for kind, rng_seed in (("linear", 2024), ("sigmoid", 2025)):
            rng = random.Random(rng_seed)
            for _ in range(50):
                s = _random_subproblem(rng, kind)
                spec = build_solo_spec(s, 1)
                assert_result_sums_its_allocation(spec, allocate_greedy(spec, s.delta, s.epsilon_gain))
                assert_result_sums_its_allocation(spec, allocate_oracle(spec, grid_step=s.delta))

    def test_a_rolled_back_share_sums_its_allocation(self):
        # Provider 2 covers both gaps; app 1's grant of 0.5 earns 0.5 < 1.03 * 0.5
        # and is rolled back, app 2's grant of 2 covers its cost and stays.
        apps = [
            linear_app(1, owner=1, request=(4.0,), a=1.0),
            linear_app(2, owner=1, request=(2.0,), a=1.0),
            linear_app(3, owner=2, request=(1.0,), a=1.0),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(3.5,), native_apps=(1, 2)),
                Provider(id=2, capacity=(3.5,), native_apps=(3,)),
            ],
            apps,
            comm_costs={(2, 1): 1.03, (2, 2): 0.2},
        )
        state = initial_state(s)
        state.commit(1, {(1, 0): 3.5}, "solo")
        state.commit(2, {(3, 0): 1.0}, "solo")
        spec = build_share_spec(s, 2, state, [1, 2])
        raw = allocate_greedy(spec, s.delta, s.epsilon_gain)
        res = solve_surplus_share(s, 2, state, [1, 2], {})
        assert dict(raw.allocation) == {(1, 0): 0.5, (2, 0): 2.0}
        assert dict(res.allocation) == {(1, 0): 0.0, (2, 0): 2.0}
        assert_result_sums_its_allocation(spec, raw)
        assert_result_sums_its_allocation(spec, res)


def test_greedy_tracks_oracle_on_random_linear_instances():
    rng = random.Random(12345)
    delta = 0.05
    for _ in range(20):
        n_items = rng.randint(1, 3)
        params = [
            (i + 1, 0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
            for i in range(n_items)
        ]
        total_ub = sum(p[2] for p in params)
        spec = SubproblemSpec(
            items=linear_items(params), capacity={0: rng.uniform(0.3, 0.9) * total_ub}
        )
        greedy = allocate_greedy(spec, delta=delta, epsilon_gain=1e-9)
        oracle = allocate_oracle(spec, grid_step=delta)
        max_slope = max(p[3] + 1.0 / p[2] for p in params)
        tol = max(0.01 * abs(oracle.objective_value), max_slope * delta * n_items)
        assert greedy.objective_value >= oracle.objective_value - tol


class TestSoloSolve:
    def test_solo_objective_counts_base_offsets(self):
        # One app, request (4,), linear a=1 c=0.5, capacity 2:
        # objective = (1*2 + 0.5) + 2/4 = 3.0
        app = linear_app(1, owner=1, request=(4.0,), a=1.0, c=0.5)
        s = make_scenario([Provider(id=1, capacity=(2.0,), native_apps=(1,))], [app])
        res = solve_single_provider(s, 1)
        assert res.allocation[(1, 0)] == pytest.approx(2.0, abs=1e-9)
        assert res.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_zero_request_dimensions_are_skipped(self):
        app = linear_app(1, owner=1, request=(3.0, 0.0), a=1.0)
        s = make_scenario(
            [Provider(id=1, capacity=(5.0, 5.0), native_apps=(1,))], [app], K=2
        )
        spec = build_solo_spec(s, 1)
        assert [(it.app, it.k) for it in spec.items] == [(1, 0)]


class TestSurplusShare:
    def _one_gap_scenario(self, d=0.0):
        # Provider 1 owns app 1 (request 4, already holds 2); provider 2 shares.
        apps = [
            linear_app(1, owner=1, request=(4.0,), a=1.0),
            linear_app(2, owner=2, request=(2.0,), a=1.0),
        ]
        comm = {(2, 1): d} if d else {}
        s = make_scenario(
            [
                Provider(id=1, capacity=(2.0,), native_apps=(1,)),
                Provider(id=2, capacity=(6.0,), native_apps=(2,)),
            ],
            apps,
            comm_costs=comm,
        )
        state = initial_state(s)
        state.commit(1, {(1, 0): 2.0}, "solo")
        state.commit(2, {(2, 0): 2.0}, "solo")
        return s, state

    def test_share_objective_matches_hand_value(self):
        s, state = self._one_gap_scenario()
        res = solve_surplus_share(s, 2, state, [1], {})
        # gap = 2, surplus covers it fully: (u(4)-u(2)) + (2/2)^2 = 2 + 1 = 3
        assert res.allocation[(1, 0)] == pytest.approx(2.0, abs=1e-9)
        assert res.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_two_gap_split_matches_hand_solution(self):
        # Gaps 2 and 4 (z = 0), budget 3, unit slopes:
        # marginal gain favors the smaller gap until it saturates.
        apps = [
            linear_app(1, owner=1, request=(2.0,), a=1.0),
            linear_app(2, owner=1, request=(4.0,), a=1.0),
            linear_app(3, owner=2, request=(1.0,), a=1.0),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(0.0,), native_apps=(1, 2)),
                Provider(id=2, capacity=(4.0,), native_apps=(3,)),
            ],
            apps,
        )
        state = initial_state(s)
        state.commit(2, {(3, 0): 1.0}, "solo")  # provider 2 serves its own app first
        res = solve_surplus_share(s, 2, state, [1, 2], {})
        assert res.allocation[(1, 0)] == pytest.approx(2.0, abs=1e-9)
        assert res.allocation[(2, 0)] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(4.0625, abs=1e-6)

    def test_dominating_comm_cost_blocks_any_grant(self):
        # Slope 1 with d = 5: every unit has a negative marginal gain.
        s, state = self._one_gap_scenario(d=5.0)
        res = solve_surplus_share(s, 2, state, [1], {})
        assert res.allocation[(1, 0)] == 0.0
        assert res.resources_used == pytest.approx(0.0, abs=1e-12)

    def test_grant_with_uncovered_cost_is_rolled_back(self):
        # With a small remaining gap the satisfaction bonus (x/gap)^2 makes the
        # grant look attractive even though the utility gain (0.5) does not
        # cover the communication cost (1.03 * 0.5); the rollback removes it.
        apps = [
            linear_app(1, owner=1, request=(4.0,), a=1.0),
            linear_app(2, owner=2, request=(1.0,), a=1.0),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(3.5,), native_apps=(1,)),
                Provider(id=2, capacity=(3.0,), native_apps=(2,)),
            ],
            apps,
            comm_costs={(2, 1): 1.03},
        )
        state = initial_state(s)
        state.commit(1, {(1, 0): 3.5}, "solo")
        state.commit(2, {(2, 0): 1.0}, "solo")
        spec = build_share_spec(s, 2, state, [1])
        raw = allocate_greedy(spec, s.delta, s.epsilon_gain)
        assert raw.allocation[(1, 0)] > 0  # greedy does grant before rollback
        res = solve_surplus_share(s, 2, state, [1], {})
        assert res.allocation[(1, 0)] == 0.0
        # The objective is taken again, over the rolled-back allocation.
        assert res.objective_value == left_sum(
            it.f(res.allocation[(it.app, it.k)]) for it in spec.items
        )
        assert res.objective_value < raw.objective_value
        assert res.resources_used == 0.0

    @pytest.mark.parametrize("costs", [False, True])
    def test_share_without_a_rollback_is_the_greedys_own_result(self, monkeypatch, costs):
        # Two gaps on two resource types; with costs, each unit still covers its cost.
        apps = [
            linear_app(1, owner=1, request=(2.0, 3.0), a=1.3),
            linear_app(2, owner=1, request=(4.0, 1.0), a=0.7),
            linear_app(3, owner=2, request=(1.0, 1.0), a=1.0),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(0.5, 0.5), native_apps=(1, 2)),
                Provider(id=2, capacity=(4.0, 2.5), native_apps=(3,)),
            ],
            apps, K=2,
            comm_costs={(2, 1): 0.3, (2, 2): 0.1} if costs else None,
        )
        state = initial_state(s)
        state.commit(1, {(1, 0): 0.5, (2, 1): 0.5}, "solo")
        state.commit(2, {(3, 0): 1.0, (3, 1): 1.0}, "solo")
        spec = build_share_spec(s, 2, state, [1, 2])
        assert len(spec.items) == 4
        greedy_results = []

        def recording(spec_, delta, epsilon_gain):
            greedy_results.append(allocate_greedy(spec_, delta, epsilon_gain))
            return greedy_results[-1]

        monkeypatch.setattr(subsolver, "allocate_greedy", recording)
        res = solve_surplus_share(s, 2, state, [1, 2], {})
        assert res is greedy_results[0]
        assert sum(x > 0 for x in res.allocation.values()) >= 2
        assert res.objective_value == left_sum(
            it.f(res.allocation[(it.app, it.k)]) for it in spec.items
        )
        assert res.resources_used == left_sum(res.allocation.values())

    @pytest.mark.parametrize("run", [lambda s: run_gpoa(s, OrderingScheme.cdo(0)), run_ppmpoa],
                             ids=["gpoa", "ppmpoa"])
    @pytest.mark.parametrize("surplus", [5000.0, 800.0])
    def test_a_flat_deficit_app_gets_nothing_at_any_surplus(self, run, surplus):
        # App 1's utility is flat (a = 0), so each step gains (0.01/900)**2,
        # about 1.2e-10, below epsilon_gain = 1e-9: the greedy shares nothing,
        # whether or not provider 2's capacity covers the gap. A fill of the
        # slack type that ignores epsilon_gain would share 900 at 5000.
        s = make_scenario(
            [
                Provider(id=1, capacity=(100.0,), native_apps=(1,)),
                Provider(id=2, capacity=(surplus,), native_apps=(2,)),
            ],
            [linear_app(1, owner=1, request=(1000.0,), a=0.0),
             linear_app(2, owner=2, request=(10.0,), a=1.0)],
        )
        entries = run(s).allocation.entries
        assert (2, 1) not in entries
        assert entries[(1, 1)] == (100.0,) and entries[(2, 2)] == (10.0,)

    @staticmethod
    def _pair_match(s, m, n, state):
        """Cell (m, n) of the PPMPOA matrix: n's share solve over m's deficit apps."""
        res = solve_surplus_share(s, n, state, state.deficit_apps(s, [m]), {})
        return res.objective_value, res.resources_used, dict(res.allocation)

    def test_pair_match_is_pure(self):
        s, state = self._one_gap_scenario()
        before = copy.deepcopy(state)
        j_val, r_val, alloc = self._pair_match(s, 1, 2, state)
        assert state.remaining_capacity == before.remaining_capacity
        assert state.allocated == before.allocated
        assert j_val == pytest.approx(3.0, abs=1e-9)
        assert r_val == pytest.approx(2.0, abs=1e-9)
        assert alloc[(1, 0)] == pytest.approx(2.0, abs=1e-9)

    def test_pair_match_without_deficit_returns_zero(self):
        s, state = self._one_gap_scenario()
        state.commit(2, {(1, 0): 2.0}, "share")  # close the gap
        assert state.deficit_apps(s, [1]) == []
        j_val, r_val, alloc = self._pair_match(s, 1, 2, state)
        assert (j_val, r_val, alloc) == (0.0, 0.0, {})

    def test_residual_gap_within_tolerance_is_closed(self):
        # A 1e-12 residual is bookkeeping noise, not a deficit: granting it
        # would score (x/gap)^2 = 1 for a 1e-12 grant.
        s, state = self._one_gap_scenario()
        state.allocated[1][0] = 4.0 - 1e-12
        assert state.deficit_apps(s, [1]) == []
        assert self._pair_match(s, 1, 2, state) == (0.0, 0.0, {})
        assert build_share_spec(s, 2, state, [1]).items == []

    @staticmethod
    def _granted_in_order(grants):
        """App 1 (request 1.0) after provider 1 grants it `grants` in order; provider 2 shares."""
        apps = [linear_app(1, owner=1, request=(1.0,)), linear_app(2, owner=2, request=(1.0,))]
        s = make_scenario(
            [
                Provider(id=1, capacity=(1.0,), native_apps=(1,)),
                Provider(id=2, capacity=(3.0,), native_apps=(2,)),
            ],
            apps,
        )
        state = initial_state(s)
        for x in grants:
            state.commit(1, {(1, 0): x}, "solo")
        return s, state

    def test_the_share_bound_is_request_minus_granted_in_any_grant_order(self):
        # 1.0 - 0.1 - 0.3 is 0.6000000000000001, but 0.1 + 0.3 and 0.3 + 0.1 are both 0.4.
        for grants in ([0.1, 0.3], [0.3, 0.1]):
            s, state = self._granted_in_order(grants)
            [item] = build_share_spec(s, 2, state, [1]).items
            assert item.ub == 0.6

    def test_states_with_equal_grant_totals_share_one_memo_entry(self):
        (s, first), (_, second) = map(self._granted_in_order, ([0.1, 0.3], [0.3, 0.1]))
        memo = {}
        res = solve_surplus_share(s, 2, first, [1], memo)
        assert solve_surplus_share(s, 2, second, [1], memo) is res
        assert len(memo) == 1


def test_sigmoid_solo_solve_stays_feasible():
    app = make_sigmoid_app(1, owner=1, request=(200.0,))
    s = make_scenario([Provider(id=1, capacity=(150.0,), native_apps=(1,))], [app])
    res = solve_single_provider(s, 1)
    assert 0.0 <= res.allocation[(1, 0)] <= 150.0 + 1e-9


def make_sigmoid_app(app_id, owner, request):
    from mecshare.model import Application

    return Application(
        id=app_id, owner=owner, request=tuple(request), utility=UtilitySpec.sigmoid(mu=0.01)
    )
