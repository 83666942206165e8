import random

import pytest

from mecshare.model import AllocState, Provider, UtilitySpec
from mecshare.subsolver import (
    GridTooLarge,
    SubproblemItem,
    SubproblemSpec,
    allocate_greedy,
    allocate_oracle,
    build_share_spec,
    build_solo_spec,
    solve_pair_match,
    solve_single_provider,
    solve_surplus_share,
)

from conftest import linear_app, make_scenario


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
        assert res.grant_order == []

    def test_grant_order_records_first_touch_sequence(self):
        spec = SubproblemSpec(
            items=linear_items([(1, 0, 2.0, 2.0, 0.0), (2, 0, 2.0, 1.0, 0.0)]),
            capacity={0: 4.0},
        )
        res = allocate_greedy(spec, delta=0.5, epsilon_gain=1e-9)
        assert res.grant_order == [(1, 0), (2, 0)]

    def test_monotone_fast_path_agrees_with_plain_greedy(self):
        params = [(1, 0, 3.0, 1.5, 0.2), (2, 0, 2.0, 0.7, 0.0), (3, 1, 4.0, 1.1, 0.5)]
        capacity = {0: 10.0, 1: 10.0}  # slack everywhere: fast path saturates
        fast = allocate_greedy(
            SubproblemSpec(items=linear_items(params), capacity=capacity, monotone=True),
            delta=0.01,
            epsilon_gain=1e-9,
        )
        slow = allocate_greedy(
            SubproblemSpec(items=linear_items(params), capacity=capacity, monotone=False),
            delta=0.01,
            epsilon_gain=1e-9,
        )
        for key, value in fast.allocation.items():
            assert slow.allocation[key] == pytest.approx(value, abs=1e-9)
        assert fast.objective_value == pytest.approx(slow.objective_value, abs=1e-9)

    def test_rejects_nonpositive_delta(self):
        spec = SubproblemSpec(items=[], capacity={})
        with pytest.raises(ValueError):
            allocate_greedy(spec, delta=0.0, epsilon_gain=1e-9)


class TestAllocateOracle:
    def test_empty_spec_has_zero_objective(self):
        res = allocate_oracle(SubproblemSpec(items=[], capacity={}), grid_step=0.5)
        assert res.objective_value == 0.0
        assert res.allocation == {}

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
        with pytest.raises(GridTooLarge):
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
        state = AllocState.initial(s)
        state.apply(1, 1, 0, 2.0)
        state.apply(2, 2, 0, 2.0)
        return s, state

    def test_share_objective_matches_hand_value(self):
        s, state = self._one_gap_scenario()
        res = solve_surplus_share(s, 2, state, [1])
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
        state = AllocState.initial(s)
        state.apply(2, 3, 0, 1.0)  # provider 2 serves its own app first
        res = solve_surplus_share(s, 2, state, [1, 2])
        assert res.allocation[(1, 0)] == pytest.approx(2.0, abs=1e-9)
        assert res.allocation[(2, 0)] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(4.0625, abs=1e-6)

    def test_dominating_comm_cost_blocks_any_grant(self):
        # Slope 1 with d = 5: every unit has a negative marginal gain.
        s, state = self._one_gap_scenario(d=5.0)
        res = solve_surplus_share(s, 2, state, [1])
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
        state = AllocState.initial(s)
        state.apply(1, 1, 0, 3.5)
        state.apply(2, 2, 0, 1.0)
        raw = allocate_greedy(build_share_spec(s, 2, state, [1]), s.delta, s.epsilon_gain)
        assert raw.allocation[(1, 0)] > 0  # greedy does grant before rollback
        res = solve_surplus_share(s, 2, state, [1])
        assert res.allocation[(1, 0)] == 0.0

    def test_pair_match_is_pure(self):
        s, state = self._one_gap_scenario()
        before = state.copy()
        j_val, r_val, alloc = solve_pair_match(s, 1, 2, state)
        assert state.remaining_capacity == before.remaining_capacity
        assert state.remaining_request == before.remaining_request
        assert j_val == pytest.approx(3.0, abs=1e-9)
        assert r_val == pytest.approx(2.0, abs=1e-9)
        assert alloc[(1, 0)] == pytest.approx(2.0, abs=1e-9)

    def test_pair_match_without_deficit_returns_zero(self):
        s, state = self._one_gap_scenario()
        state.apply(2, 1, 0, 2.0)  # close the gap
        j_val, r_val, alloc = solve_pair_match(s, 1, 2, state)
        assert (j_val, r_val, alloc) == (0.0, 0.0, {})

    def test_residual_gap_within_tolerance_is_closed(self):
        # A 1e-12 residual is bookkeeping noise, not a deficit: granting it
        # would score (x/gap)^2 = 1 for a 1e-12 grant.
        s, state = self._one_gap_scenario()
        state.remaining_request[1][0] = 1e-12
        assert solve_pair_match(s, 1, 2, state) == (0.0, 0.0, {})
        assert build_share_spec(s, 2, state, [1]).items == []


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
