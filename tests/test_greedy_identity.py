"""allocate_greedy against a one-unit-at-a-time delta-greedy that counts its full steps.

The reference below picks an item again at every unit. A full delta step
from x = 0 starts a streak: after its n-th consecutive full step the item's
x is fl(n*delta), and the capacity the streak started on is charged with x
once. Every spec the protocols hand the allocator must give the same bits
from both; `allocate_greedy` takes each streak whole, by count
(`subsolver._full_steps`), checked further down against a loop that counts
one step at a time. Both fill a slack resource type by the same rule, gated
by each item's first-step gain; a hypothesis check tests that rule against
the one-unit loop run without it.

The greedy this contract names is `allocate_greedy`'s: an item that wins a
full delta step takes its whole run of full steps at once. The one-unit loop
below picks again at every step, so it can alternate between two items whose
gains differ only by rounding; no spec the protocols build on generated
scenarios has such a near-tie, and
`test_near_tie_run_is_taken_whole_where_the_one_unit_loop_alternates` pins a
hand-built one as a documented finding.
"""
import dataclasses
import heapq
import json
import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mecshare import cli, subsolver
from mecshare.model import Provider
from mecshare.gpoa import OrderingScheme, run_gpoa, run_solo_phase
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import (
    SubproblemItem,
    SubproblemResult,
    SubproblemSpec,
    allocate_greedy,
    build_share_spec,
    build_solo_spec,
)

from conftest import left_sum, linear_app, make_scenario


def reference_delta_greedy(spec: SubproblemSpec, delta: float, epsilon_gain: float,
                           slack_rule: bool = True) -> SubproblemResult:
    """Grant delta-sized units to the item with the largest positive marginal gain.

    The final unit is clamped to the exact remaining bound/capacity. Ties break
    on (app id, resource index) ascending; the loop stops once no item's gain
    exceeds epsilon_gain. Deterministic for identical inputs.

    Full steps are counted. An item at x = 0 whose full step fits starts a
    streak on the capacity c0 of its resource; the streak goes on while the
    item is picked again and fl((n + 1)*delta) <= min(ub, c0). After its n-th
    full step x = fl(n*delta), and the capacity is c0 - x, charged once.

    The slack rule: on a resource type whose capacity covers its items' summed
    bounds, an item whose first step gains more than epsilon_gain is filled to
    its bound before the loop starts, and any other item there is left out.
    `slack_rule=False` runs every item through the one-unit loop instead.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    items = sorted(spec.items, key=lambda it: (it.app, it.k))
    cap = dict(spec.capacity)
    x = [0.0] * len(items)
    streak = [None, 0, 0.0]  # the item on a streak of full steps, its count n and its c0

    slack = set()
    if slack_rule:
        ub_by_k: Dict[int, float] = {}
        for it in items:
            ub_by_k[it.k] = ub_by_k.get(it.k, 0.0) + it.ub
        slack = {k for k, total in ub_by_k.items() if total <= cap.get(k, 0.0)}

    def step_for(i: int) -> Tuple[float, int]:
        """(s, n): i's next step, and the count n > 0 it reaches if it is a full step of a streak."""
        it = items[i]
        on_streak = i == streak[0]
        n, c0 = (streak[1], streak[2]) if on_streak else (0, cap.get(it.k, 0.0))
        if (on_streak or x[i] == 0) and (n + 1) * delta <= min(it.ub, c0):
            return delta, n + 1
        return min(delta, it.ub - x[i], cap.get(it.k, 0.0)), 0

    def gain_for(i: int) -> float:
        s, n = step_for(i)
        if s <= 0:
            return -math.inf
        f = items[i].f
        return f(n * delta if n else x[i] + s) - f(x[i])

    heap: List[Tuple[float, int, int, int]] = []
    for i, it in enumerate(items):
        g = gain_for(i)
        if g <= epsilon_gain:
            continue
        if it.k in slack:
            x[i] = it.ub
            cap[it.k] -= it.ub
        else:
            heap.append((-g, it.app, it.k, i))
    heapq.heapify(heap)

    while heap:
        neg_g, app, k, i = heapq.heappop(heap)
        g = gain_for(i)
        if g <= epsilon_gain:
            continue
        # Stale entry: another item now has a larger gain, reinsert and retry.
        if heap and g < -heap[0][0] * (1 - 1e-15):
            heapq.heappush(heap, (-g, app, k, i))
            continue
        s, n = step_for(i)
        if n:
            if streak[0] != i:
                streak[:] = [i, 0, cap.get(k, 0.0)]
            streak[1] = n
            x[i] = n * delta
            cap[k] = streak[2] - x[i]
        else:
            streak[0] = None
            x[i] += s
            cap[k] = cap.get(k, 0.0) - s
        g2 = gain_for(i)
        if g2 > epsilon_gain:
            heapq.heappush(heap, (-g2, app, k, i))

    allocation = {(it.app, it.k): x[i] for i, it in enumerate(items)}
    objective = left_sum(it.f(x[i]) for i, it in enumerate(items))
    return SubproblemResult(
        allocation=allocation,
        objective_value=objective,
        resources_used=left_sum(x),
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
    return (spec.kind, tuple(sorted(spec.capacity.items())), items,
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

    def test_a_queued_step_that_shrinks_takes_its_gain_again(self):
        # Item 1's run leaves 0.005 < delta of resource 0 while item 2 is queued
        # at a full step. Item 2's gain is taken again at the shrunk step, and it
        # loses the remainder to item 1; its stale full-step gain would have won.
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 5.0, 2.0), linear_item(2, 0, 5.0, 1.0)],
            capacity={0: 1.005},
        )
        calls = recording_calls(spec)
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(2, 0)] == 0.0 and res.allocation[(1, 0)] > 1.0
        assert calls[2][:2] == [0.01, 0.0] and 0 < calls[2][2] < 0.01

    def test_a_queued_step_that_stays_reuses_its_gain(self):
        # Item 1's run leaves item 2's step at a full delta, so item 2's pop
        # reuses the gain its entry was queued with. The capacity binds, so
        # both items go through the heap.
        spec = SubproblemSpec(
            items=[linear_item(1, 0, 1.0, 2.0), linear_item(2, 0, 1.0, 1.0)],
            capacity={0: 1.5},
        )
        calls = recording_calls(spec)
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(2, 0)] == 0.5
        assert calls[2].count(0.01) == 1

    def test_equal_gains_go_to_the_smaller_app_first(self):
        # f(x) = x gains exactly 2**-7 per step of 2**-7, so the two items tie
        # at every step: app 1 takes its whole run, app 2 what is left.
        spec = SubproblemSpec(
            items=[SubproblemItem(app=2, k=0, ub=1.0, f=lambda x: x),
                   SubproblemItem(app=1, k=0, ub=1.0, f=lambda x: x)],
            capacity={0: 1.5},
        )
        res = assert_identical(spec, 2**-7, 1e-9)
        assert res.allocation == {(1, 0): 1.0, (2, 0): 0.5}

    def test_zero_gain_item_left_untouched(self):
        spec = SubproblemSpec(
            items=[SubproblemItem(app=1, k=0, ub=5.0, f=lambda x: 0.0),
                   linear_item(2, 0, 3.0, 1.0)],
            capacity={0: 5.0},
        )
        res = assert_identical(spec, 0.01, 1e-9)
        assert res.allocation[(1, 0)] == 0.0


def test_near_tie_run_is_taken_whole_where_the_one_unit_loop_alternates():
    # A documented finding, not the contract: two identical apps on a provider
    # that cannot serve both. Their recomputed gains differ by an ulp from step
    # to step, so the one-unit loop alternates between them; the allocator
    # gives the first winner its whole run.
    s = make_scenario([Provider(id=1, capacity=(1.5,), native_apps=(1, 2))],
                      [linear_app(1, 1, [1.3], a=3.7), linear_app(2, 1, [1.3], a=3.7)])
    spec = build_solo_spec(s, 1)
    got = allocate_greedy(spec, s.delta, s.epsilon_gain)
    want = reference_delta_greedy(spec, s.delta, s.epsilon_gain)
    assert got.allocation == {(1, 0): 1.3, (2, 0): 0.19999999999999996}
    assert want.allocation == {(1, 0): 1.2200000000000009, (2, 0): 0.27999999999999886}
    assert (got.resources_used, want.resources_used) == (1.5, 1.4999999999999998)


# --- specs the protocols never build ----------------------------------------


def contribution(kind, ub, a, d):
    """A convex contribution on [0, ub]: linear, logistic centred at ub, or (x/gap)**2 - d*x."""
    if kind == "linear":
        return lambda x: a * x + x / ub
    if kind == "logistic":
        return lambda x: 1.0 / (1.0 + math.exp(-a * (x - ub))) + x / ub
    return lambda x: (x / ub) ** 2 - d * x


@st.composite
def specs(draw, slack_only=False):
    delta = draw(st.sampled_from([2.0**-7, 0.01, 0.3]))
    K = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, K - 1)),
                         min_size=n, max_size=n, unique=True))
    items = []
    for app, k in keys:
        kind = draw(st.sampled_from(["linear", "logistic", "share"]))
        ub = draw(st.one_of(st.floats(0.001, 2.0),
                            st.integers(1, int(2.0 / delta) + 1).map(lambda m: m * delta)))
        a = draw(st.floats(0.1, 20.0) if kind == "logistic" else st.floats(-1.0, 4.0))
        d = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        items.append(SubproblemItem(app=app, k=k, ub=ub, f=contribution(kind, ub, a, d)))
    # Near-equal gains may legitimately split a run (see `allocate_greedy`), and
    # every run starts at x = 0, so no two items may start within rounding noise.
    first = sorted(it.f(min(delta, it.ub)) - it.f(0.0) for it in items)
    assume(all(hi - lo > 1e-9 * max(abs(lo), abs(hi)) for lo, hi in zip(first, first[1:])))
    capacity = {}
    for it in sorted(items, key=lambda it: (it.app, it.k)):  # the slack rule's own sum
        capacity[it.k] = capacity.get(it.k, 0.0) + it.ub
    for k, total in capacity.items():
        if slack_only:  # strictly slack, by far more than the roundings of the bounds' sum
            capacity[k] = draw(st.floats(1.01, 2.0)) * total
            continue
        capacity[k] = draw(st.sampled_from(["below", "at", "above"]).flatmap(lambda where: {
            "below": st.floats(0.0, 1.0, exclude_max=True).map(lambda f: f * total),
            "at": st.just(total),
            "above": st.floats(1.0, 2.0, exclude_min=True).map(lambda f: f * total),
        }[where]))
    return SubproblemSpec(items=items, capacity=capacity), delta


@settings(max_examples=300, deadline=None)
@given(specs())
def test_unbuilt_specs_match_reference(case):
    spec, delta = case
    assert_identical(spec, delta, 1e-9)


def own_step_gains(it, delta):
    """The gains of an item's steps from x = 0 to ub when nothing else binds it:
    its counted full steps, then its last sub-delta step if one is left."""
    n, gains = 0, []
    while (n + 1) * delta <= it.ub:
        gains.append(it.f((n + 1) * delta) - it.f(n * delta))
        n += 1
    if n * delta < it.ub:
        gains.append(it.f(it.ub) - it.f(n * delta))
    return gains


@settings(max_examples=300, deadline=None)
@given(specs(slack_only=True))
def test_slack_types_match_the_one_unit_loop(case):
    # An independent check of the slack rule: on resource types that are all
    # strictly slack, the allocator equals the one-unit loop run with no slack
    # rule, bit for bit, wherever each item that wins its first step also
    # gains more than epsilon_gain on every later step, its last sub-delta
    # step included.
    spec, delta = case
    epsilon_gain = 1e-9
    for it in spec.items:
        gains = own_step_gains(it, delta)
        assume(gains[0] <= epsilon_gain or min(gains) > epsilon_gain)
    got = allocate_greedy(spec, delta, epsilon_gain)
    want = reference_delta_greedy(spec, delta, epsilon_gain, slack_rule=False)
    assert got.allocation == want.allocation
    assert got.objective_value == want.objective_value
    assert got.resources_used == want.resources_used


def recording_calls(spec):
    """The x at which each item's f is called, by app, in an `allocate_greedy` of `spec`."""
    calls = {it.app: [] for it in spec.items}

    def recorded(it):
        def f(x):
            calls[it.app].append(x)
            return it.f(x)

        return dataclasses.replace(it, f=f)

    allocate_greedy(dataclasses.replace(spec, items=[recorded(it) for it in spec.items]), 0.01, 1e-9)
    return calls


# --- the precondition a counted run relies on -------------------------------


def builder_items():
    """Items of every objective the builders emit: solo, share, and share with costs."""
    for utility in ("linear", "sigmoid"):
        for setting in (1, 2):
            s = generate_scenario(GenSpec(setting=setting, seed=5, utility_kind=utility))
            for costs in (False, True):
                sc = with_comm_costs(s, 70 + setting) if costs else s
                state, _, _, _ = run_solo_phase(sc)
                deficit_apps = state.deficit_apps(sc, sc.provider_ids())
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


# --- a run of full steps by count, against a loop that counts one step at a time


def reference_run(ck, ub, delta):
    """A run of full steps from x = 0, counted one step at a time; ck is charged with x once."""
    n = 0
    while (n + 1) * delta <= ub and (n + 1) * delta <= ck:
        n += 1
    return n * delta, ck - n * delta


def assert_run_matches(ck, ub, delta):
    got = subsolver._full_steps(ck, ub, delta)
    want = reference_run(ck, ub, delta)
    assert [v.hex() for v in got] == [v.hex() for v in want], (ck, ub, delta)


def power_of_two_and_neighbours(v):
    p = math.ldexp(1.0, math.frexp(v)[1])
    return [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]


DELTAS = [5e-324, 64 * 5e-324, 2.0**-1022, 1e-300, 1e-9, 2.0**-7, 0.01, 0.1, 0.3, 1 / 3, 1.0, 7.0, 1e3]


@pytest.mark.parametrize("delta", DELTAS, ids=repr)
def test_run_matches_the_loop_on_fixed_cases(delta):
    for steps in (0, 1, 2, 3, 17, 500, 999, 1500):
        ub = steps * delta + delta / 3
        for ck in [steps * delta, 0.5 * steps * delta, 2 * steps * delta + delta / 7, 1e6 * delta]:
            assert_run_matches(ck, ub, delta)
        # ck at each power of two the run passes, and one ulp to either side
        for e in range(max(-1074, math.frexp(delta)[1] - 2), math.frexp(ub + delta)[1] + 1):
            for ck in power_of_two_and_neighbours(math.ldexp(1.0, e)):
                assert_run_matches(ck, ub, delta)
    # Nothing to do: ub < delta or ck < delta.
    assert_run_matches(10 * delta, delta * 0.5, delta)
    assert_run_matches(delta * 0.75, 10 * delta, delta)


@st.composite
def runs(draw):
    delta = draw(st.one_of(
        st.sampled_from(DELTAS),
        st.floats(min_value=5e-324, max_value=1e3),
        # few significant bits: exact multiples in many binades
        st.builds(math.ldexp, st.integers(1, 99).map(float), st.integers(-1074, 3)),
    ))
    steps = draw(st.integers(0, 3000))
    ub = draw(st.sampled_from([steps * delta, steps * delta + delta / 2, (steps + 1) * delta]))
    ck = draw(st.one_of(
        st.floats(min_value=0.0, max_value=max(2 * ub, delta), allow_subnormal=True),
        st.integers(-1074, 20).map(lambda e: math.ldexp(1.0, e)).flatmap(
            lambda p: st.sampled_from(power_of_two_and_neighbours(p))),
        st.floats(min_value=0.0, max_value=1e300),
    ))
    return ck, ub, delta


@settings(max_examples=400, deadline=None)
@given(runs())
@example((0.03, 5.0, 0.01))
@example((2.0**-1022, 9000 * 64 * 5e-324, 64 * 5e-324))
def test_run_matches_the_loop(case):
    assert_run_matches(*case)


@settings(max_examples=400, deadline=None)
@given(runs())
@example((3.0, 3.0, 0.01))
@example((0.3, 5.0, 0.1))
def test_run_count_is_maximal(case):
    # n steps fit under both ub and ck, and one more step passes one of them.
    ck, ub, delta = case
    x, rest = subsolver._full_steps(ck, ub, delta)
    n = round(x / delta)
    assert n * delta == x and rest == ck - x
    assert x <= ub and x <= ck
    assert (n + 1) * delta > ub or (n + 1) * delta > ck


def test_subnormal_delta_commands_match_the_plain_loop(tmp_path, monkeypatch):
    # delta = 64 * 5e-324 is subnormal, so every multiple of it is exact.
    d = 64 * 5e-324
    linear = {"kind": "linear", "params": {"a": 1.0, "c": 0.0}}
    scenario = tmp_path / "subnormal.json"
    scenario.write_text(json.dumps({
        "K": 1,
        "delta": d,
        "providers": [
            {"id": 1, "capacity": [15000 * d], "native_apps": [1, 3]},
            {"id": 2, "capacity": [900 * d], "native_apps": [2]},
        ],
        "applications": [
            {"id": 1, "owner": 1, "request": [20000 * d], "utility": linear},
            {"id": 2, "owner": 2, "request": [200 * d], "utility": linear},
            {"id": 3, "owner": 1, "request": [700 * d], "utility": linear},
        ],
    }))

    def outputs(tag):
        got = {}
        for command in ("gpoa", "ppmpoa", "verify"):
            out = tmp_path / f"{command}-{tag}.json"
            assert cli.run([command, "--scenario", str(scenario), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            del payload["manifest"]
            got[command] = payload
        return got

    counted = outputs("count")
    monkeypatch.setattr(subsolver, "_full_steps", reference_run)  # count one step at a time
    assert counted == outputs("loop")
    # App 3's smaller request fills first; app 1's run of 14300 steps takes the rest.
    assert counted["gpoa"]["allocation"]["1:1"] == [14300 * d]


FAST_PATH = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in (1, 2)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", FAST_PATH,
    ids=[f"s{st}-seed{sd}-{u}-{'costs' if c else 'free'}" for st, sd, u, c in FAST_PATH],
)
def test_every_protocol_run_takes_the_jump(monkeypatch, setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    full_runs = []
    counted = subsolver._full_steps

    def checked(ck, ub, delta):
        full_runs.append((ck, ub, delta))
        got = counted(ck, ub, delta)
        assert [v.hex() for v in got] == [v.hex() for v in reference_run(ck, ub, delta)]
        return got

    monkeypatch.setattr(subsolver, "_full_steps", checked)
    run_solo_phase(s)
    for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(seed)):
        run_gpoa(s, scheme)
    check_matching_stability(run_ppmpoa(s), s)
    assert full_runs
    # Reached only with a full step: at x = 0, ub >= delta and ck >= delta.
    assert all(ub >= delta and ck >= delta for ck, ub, delta in full_runs)
