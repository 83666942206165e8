"""allocate_greedy against a frozen copy of the one-unit-at-a-time delta-greedy.

`allocate_greedy` grants each run of full delta steps in one tight loop. The
reference below is the allocator as it was before that, kept verbatim except
that it records no grant order: every spec the protocols hand the allocator
must give the same bits from both.
"""
import heapq
import math
from typing import Dict, List, Tuple

import pytest

from mecshare import subsolver
from mecshare.gpoa import OrderingScheme, run_gpoa, run_solo_phase
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario
from mecshare.subsolver import (
    SubproblemItem,
    SubproblemResult,
    SubproblemSpec,
    allocate_greedy,
    build_share_spec,
    build_solo_spec,
)

from conftest import with_comm_costs


def reference_delta_greedy(spec: SubproblemSpec, delta: float, epsilon_gain: float) -> SubproblemResult:
    """Grant delta-sized units to the item with the largest positive marginal gain.

    The final unit is clamped to the exact remaining bound/capacity. Ties break
    on (app id, resource index) ascending; the loop stops once no item's gain
    exceeds epsilon_gain. Deterministic for identical inputs.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    items = sorted(spec.items, key=lambda it: (it.app, it.k))
    cap = dict(spec.capacity)
    x = [0.0] * len(items)
    saturated = [False] * len(items)

    if spec.monotone:
        # Non-binding resource types saturate every item at its bound; the
        # delta loop would end there anyway for non-decreasing contributions.
        ub_by_k: Dict[int, float] = {}
        for it in items:
            ub_by_k[it.k] = ub_by_k.get(it.k, 0.0) + it.ub
        slack = {k for k, total in ub_by_k.items() if total <= cap.get(k, 0.0)}
        for i, it in enumerate(items):
            if it.k in slack:
                x[i] = it.ub
                cap[it.k] -= it.ub
                saturated[i] = True

    def step_for(i: int) -> float:
        it = items[i]
        return min(delta, it.ub - x[i], cap.get(it.k, 0.0))

    def gain_for(i: int) -> float:
        s = step_for(i)
        if s <= 0:
            return -math.inf
        f = items[i].f
        return f(x[i] + s) - f(x[i])

    heap: List[Tuple[float, int, int, int]] = []
    for i, it in enumerate(items):
        if saturated[i]:
            continue
        g = gain_for(i)
        if g > epsilon_gain:
            heap.append((-g, it.app, it.k, i))
    heapq.heapify(heap)

    while heap:
        neg_g, app, k, i = heapq.heappop(heap)
        g = gain_for(i)
        if g <= epsilon_gain:
            continue
        # Stale entry: another item now has a larger gain, reinsert and retry.
        if heap and g < -heap[0][0] - 1e-15:
            heapq.heappush(heap, (-g, app, k, i))
            continue
        s = step_for(i)
        x[i] += s
        cap[k] = cap.get(k, 0.0) - s
        g2 = gain_for(i)
        if g2 > epsilon_gain:
            heapq.heappush(heap, (-g2, app, k, i))

    allocation = {(it.app, it.k): x[i] for i, it in enumerate(items)}
    objective = sum(it.f(x[i]) for i, it in enumerate(items))
    return SubproblemResult(
        allocation=allocation,
        objective_value=objective,
        resources_used=sum(x),
    )


def assert_identical(spec, delta, epsilon_gain):
    got = allocate_greedy(spec, delta, epsilon_gain)
    want = reference_delta_greedy(spec, delta, epsilon_gain)
    assert got.allocation == want.allocation
    assert got.objective_value == want.objective_value
    assert got.resources_used == want.resources_used
    return got


# --- every spec the protocols produce on generated scenarios ---------------


def spec_key(spec, delta, epsilon_gain):
    """Exact content of a spec: an item's f is its builder's code and closed-over values."""
    items = tuple(
        (it.app, it.k, it.ub, it.f.__code__,
         repr([c.cell_contents for c in it.f.__closure__ or ()]))
        for it in spec.items
    )
    return (spec.kind, spec.monotone, tuple(sorted(spec.capacity.items())), items,
            delta, epsilon_gain)


SCENARIOS = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in (1, 2, 3)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", SCENARIOS,
    ids=[f"s{st}-seed{sd}-{u}-{'costs' if c else 'free'}" for st, sd, u, c in SCENARIOS],
)
def test_protocol_specs_match_reference(monkeypatch, setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    recorded = {}

    def recording_greedy(spec, delta, epsilon_gain):
        recorded.setdefault(spec_key(spec, delta, epsilon_gain), (spec, delta, epsilon_gain))
        return allocate_greedy(spec, delta, epsilon_gain)

    monkeypatch.setattr(subsolver, "allocate_greedy", recording_greedy)
    run_solo_phase(s)
    for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(seed)):
        run_gpoa(s, scheme)
    check_matching_stability(run_ppmpoa(s), s)
    monkeypatch.undo()

    kinds = {spec.kind for spec, _, _ in recorded.values()}
    assert "solo" in kinds
    for spec, delta, epsilon_gain in recorded.values():
        assert_identical(spec, delta, epsilon_gain)


# --- hand-built edge cases -------------------------------------------------


def linear_item(app, k, ub, slope):
    return SubproblemItem(app=app, k=k, ub=ub, f=lambda x: slope * x + x / ub)


class TestEdgeCases:
    def test_first_step_clamped_by_bound(self):
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 0.004, 3.0), linear_item(2, 0, 0.5, 1.0)],
            capacity={0: 10.0},
        )
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(1, 0)] == 0.004

    def test_capacity_remainder_goes_to_second_item(self):
        # The first item fills its bound of 1 and leaves 0.005 < delta of the
        # resource, which the second item gets as one clamped step.
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 1.0, 2.0), linear_item(2, 0, 5.0, 1.0)],
            capacity={0: 1.005},
        )
        res = assert_identical(spec, 0.01, 1e-9)
        assert 0 < res.allocation[(2, 0)] < 0.01
        assert res.resources_used == pytest.approx(1.005, abs=1e-12)

    def test_capacity_drains_below_delta_mid_run(self):
        # Capacity runs out inside the first item's run; the other item on the
        # same resource keeps a stale heap entry that must lose the remainder.
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 5.0, 2.0), linear_item(2, 0, 5.0, 1.0),
                   linear_item(3, 1, 2.0, 1.5)],
            capacity={0: 1.005, 1: 3.0},
        )
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(2, 0)] == 0.0

    def test_delta_larger_than_every_bound(self):
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 0.3, 1.0), linear_item(2, 0, 0.2, 2.0),
                   linear_item(3, 1, 0.4, 0.5)],
            capacity={0: 0.45, 1: 1.0},
        )
        assert_identical(spec, 0.5, 1e-9)

    def test_zero_gain_item_left_untouched(self):
        spec = SubproblemSpec(
            items=[SubproblemItem(app=1, k=0, ub=5.0, f=lambda x: 0.0),
                   linear_item(2, 0, 3.0, 1.0)],
            capacity={0: 5.0},
        )
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(1, 0)] == 0.0


# --- the precondition the tight loop relies on ------------------------------


def builder_items():
    """Items of every objective the builders emit: solo, share, and share with costs."""
    for utility in ("linear", "sigmoid"):
        for setting in (1, 2):
            s = generate_scenario(GenSpec(setting=setting, seed=5, utility_kind=utility))
            for costs in (False, True):
                sc = with_comm_costs(s, 70 + setting) if costs else s
                state, _, _, _ = run_solo_phase(sc)
                deficit_apps = [a.id for a in sc.applications if state.app_has_deficit(a.id)]
                for n in sc.provider_ids():
                    if not costs:
                        yield from build_solo_spec(sc, n).items
                    remote = [j for j in deficit_apps if sc.app(j).owner != n]
                    yield from build_share_spec(sc, n, state, remote).items


def test_builder_objectives_have_non_decreasing_delta_gains():
    delta = 0.01
    checked = 0
    for it in builder_items():
        steps = int(it.ub / delta)
        gains = [it.f((i + 1) * delta) - it.f(i * delta) for i in range(steps)]
        for prev, nxt in zip(gains, gains[1:]):
            assert nxt >= prev - 1e-12 * max(abs(prev), abs(nxt)), (it.app, it.k)
        checked += 1
    assert checked > 0
