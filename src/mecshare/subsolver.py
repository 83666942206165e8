"""Greedy unit-increment solver for the three allocation subproblems, plus a grid oracle."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Tuple

from .model import AllocState, Scenario, eval_utility, lsum

ORACLE_STATE_CAP = 10**7


@dataclass(frozen=True)
class SubproblemItem:
    app: int
    k: int
    ub: float
    f: Callable[[float], float]  # objective contribution at allocation level x


@dataclass
class SubproblemSpec:
    items: List[SubproblemItem]
    capacity: Dict[int, float]  # available amount per resource index
    kind: str = "solo"  # "solo" | "share"


@dataclass(frozen=True)
class SubproblemResult:
    """One solve's outcome; immutable, so a memo can hand out the object it stored."""

    allocation: Mapping[Tuple[int, int], float]  # read-only (app, resource) -> amount
    objective_value: float
    resources_used: float


#: A share-solve memo: the state a solve reads -> its result. A run given none makes its own.
ShareMemo = Dict[tuple, SubproblemResult]


def _result(items: List[SubproblemItem], amounts: List[float]) -> SubproblemResult:
    """A solve's result, amounts[i] to items[i]: its objective is the sum of f(x)
    and its resources the sum of x, each from 0.0 in item order."""
    return SubproblemResult(
        allocation=MappingProxyType({(it.app, it.k): x for it, x in zip(items, amounts)}),
        objective_value=lsum(it.f(x) for it, x in zip(items, amounts)),
        resources_used=lsum(amounts),
    )


def _full_steps(ck: float, ub: float, delta: float) -> Tuple[float, float]:
    """(x, ck) after the longest run of full delta steps from x = 0.

    The run takes n steps, n the largest count with fl(n*delta) <= ub and
    fl(n*delta) <= ck; x = fl(n*delta) and ck is charged with x once.
    """
    top = min(ub, ck)
    n = int(top / delta)
    while n * delta > top:
        n -= 1
    while (n + 1) * delta <= top:
        n += 1
    x = n * delta
    return x, ck - x


def allocate_greedy(spec: SubproblemSpec, delta: float, epsilon_gain: float) -> SubproblemResult:
    """Grant delta-sized units to the item with the largest positive marginal gain.

    The final unit is clamped to the exact remaining bound/capacity. Ties break
    on (app id, resource index) ascending; the loop stops once no item's gain
    exceeds epsilon_gain. Deterministic for identical inputs.

    Precondition: every item's f is convex on [0, ub], so its delta-step gains
    never decrease. The builders below satisfy it: linear utility plus x/r,
    the logistic (centred at r, so x <= r stays below the inflection point),
    and (x/gap)**2 together with -d*x. Hence, once an item wins a full delta
    step, it keeps winning while another full step still fits: its own gain
    does not shrink and no other item's gain moves meanwhile.

    So a won full step at x == 0 starts a run that is taken whole, by count
    (`_full_steps`): n full steps, n the largest count with fl(n*delta) <= ub
    and fl(n*delta) <= cap[k]. Then x = fl(n*delta) and cap[k] -= x, each
    rounded once, so the grants never drift from the capacity by more than a
    few roundings. That is the greedy the identity contract names. A one-unit
    loop that picks again at every step can instead alternate between items
    whose gains differ only by rounding, and there the two differ.

    On a slack resource type, whose capacity covers its items' summed bounds,
    an item whose first step gains more than epsilon_gain fills its bound
    outside the heap and any other item is never granted, so epsilon_gain is
    the stop rule on every type. Kept on purpose: such an item fills its bound
    even where its last sub-delta step, ub - fl(n*delta), gains no more.
    """
    if delta <= 0 or epsilon_gain < 0:
        raise ValueError("delta must be > 0 and epsilon_gain >= 0")
    items = sorted(spec.items, key=lambda it: (it.app, it.k))
    cap = dict(spec.capacity)
    x = [0.0] * len(items)

    ub_by_k: Dict[int, float] = {}
    for it in items:
        ub_by_k[it.k] = ub_by_k.get(it.k, 0.0) + it.ub
    slack = {k for k, total in ub_by_k.items() if total <= cap.get(k, 0.0)}

    def step_for(i: int) -> float:
        it = items[i]
        return min(delta, it.ub - x[i], cap.get(it.k, 0.0))

    def gain_for(i: int, s: float) -> float:
        if s <= 0:
            return -math.inf
        f = items[i].f
        return f(x[i] + s) - f(x[i])

    # Each entry keeps the step its gain was taken at. x[i] cannot change while
    # i's entry is queued, so a pop whose step is unchanged reuses the gain.
    # Items are sorted by (app, k), so i breaks ties in that order. The first
    # step at x = 0 is taken inline, with the bits of gain_for(i, step_for(i)).
    heap: List[Tuple[float, int, float]] = []
    for i, it in enumerate(items):
        s = min(delta, it.ub, cap.get(it.k, 0.0))
        g = it.f(s) - it.f(0.0) if s > 0 else -math.inf
        if g <= epsilon_gain:
            continue
        if it.k in slack:
            x[i] = it.ub
            cap[it.k] -= it.ub
        else:
            heap.append((-g, i, s))
    heapq.heapify(heap)

    while heap:
        neg_g, i, s = heapq.heappop(heap)
        g = -neg_g
        if step_for(i) != s:
            s = step_for(i)
            g = gain_for(i, s)
            if g <= epsilon_gain:
                continue
        # Stale entry: another item now has a larger gain, reinsert and retry.
        # Queued gains are positive, so the slack is relative to them.
        if heap and g < -heap[0][0] * (1 - 1e-15):
            heapq.heappush(heap, (-g, i, s))
            continue
        k = items[i].k
        if s == delta and x[i] == 0:
            x[i], cap[k] = _full_steps(cap[k], items[i].ub, delta)
        else:
            x[i] += s
            cap[k] -= s
        s = step_for(i)
        g2 = gain_for(i, s)
        if g2 > epsilon_gain:
            heapq.heappush(heap, (-g2, i, s))

    return _result(items, x)


def allocate_oracle(spec: SubproblemSpec, grid_step: float) -> SubproblemResult:
    """Exhaustive search over the grid {0, step, 2*step, ...}; verification oracle.

    Ties resolve to the lexicographically smallest allocation in
    (app id, resource index) item order. Slacks scale with grid_step.
    A negative capacity admits no grid point and gives all zeros, as the greedy does.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    items = sorted(spec.items, key=lambda it: (it.app, it.k))
    levels: List[List[float]] = []
    states = 1
    for it in items:
        n_steps = int(math.floor(it.ub / grid_step + 1e-12))
        pts = [min(i * grid_step, it.ub) for i in range(n_steps + 1)]
        if pts[-1] < it.ub - grid_step * 1e-10:
            pts.append(it.ub)
        levels.append(pts)
        states *= len(pts)
        if states > ORACLE_STATE_CAP:
            raise ValueError(f"grid has more than {ORACLE_STATE_CAP} states")

    best_obj = -math.inf
    best_x: List[float] = [0.0] * len(items)
    x = [0.0] * len(items)

    def recurse(i: int, cap: Dict[int, float], acc: float) -> None:
        nonlocal best_obj, best_x
        if i == len(items):
            if acc > best_obj:
                best_obj = acc
                best_x = list(x)
            return
        it = items[i]
        avail = cap.get(it.k, 0.0)
        for level in levels[i]:
            if level > avail + grid_step * 1e-10:
                break
            x[i] = level
            cap[it.k] = avail - level
            recurse(i + 1, cap, acc + it.f(level))
            cap[it.k] = avail
        x[i] = 0.0

    recurse(0, dict(spec.capacity), 0.0)
    return _result(items, best_x)


# --- objective builders ---------------------------------------------------


def build_solo_spec(s: Scenario, n: int) -> SubproblemSpec:
    """Native-app allocation objective: w1 * u(x) + x / r per demanded resource type."""
    items: List[SubproblemItem] = []
    for a in s.apps_of(n):
        for k in range(s.K):
            r = a.request[k]
            if r <= 0:
                continue
            items.append(
                SubproblemItem(
                    app=a.id,
                    k=k,
                    ub=r,
                    f=_solo_contrib(a.utility, a.weight_w1, r),
                )
            )
    capacity = {k: s.provider(n).capacity[k] for k in range(s.K)}
    return SubproblemSpec(items=items, capacity=capacity, kind="solo")


def _solo_contrib(utility, w1: float, r: float) -> Callable[[float], float]:
    def f(x: float) -> float:
        return w1 * eval_utility(utility, x, r) + x / r

    return f


def _share_contrib(utility, w1: float, r: float, z: float, gap: float, d: float):
    # gap = r - z is frozen at subproblem entry; also the item's upper bound.
    u_at_z = eval_utility(utility, z, r)

    def f(x: float) -> float:
        return w1 * (eval_utility(utility, z + x, r) - u_at_z - d * x) + (x / gap) ** 2

    return f


def build_share_spec(s: Scenario, n: int, state: AllocState, deficit_apps: List[int]) -> SubproblemSpec:
    """Surplus-sharing objective over remote deficit apps, capacity = n's remaining."""
    items: List[SubproblemItem] = []
    for j in sorted(deficit_apps):
        a = s.app(j)
        d = s.comm_d(n, j)
        for k in range(s.K):
            z = state.allocated[j][k]
            gap = a.request[k] - z
            if gap <= s.tol:
                continue
            items.append(
                SubproblemItem(
                    app=j,
                    k=k,
                    ub=gap,
                    f=_share_contrib(a.utility, a.weight_w1, a.request[k], z, gap, d),
                )
            )
    capacity = {k: max(0.0, state.remaining_capacity[n][k]) for k in range(s.K)}
    return SubproblemSpec(items=items, capacity=capacity, kind="share")


def _rollback_uncovered_cost(
    s: Scenario, n: int, state: AllocState, result: SubproblemResult
) -> Dict[Tuple[int, int], float]:
    """A copy of `result.allocation` with each grant zeroed whose incremental
    utility does not cover the communication cost.

    Each grant is judged against the unchanged state alone; freed capacity is
    not re-granted.
    """
    allocation = dict(result.allocation)
    for (app, k), x in result.allocation.items():
        d = s.comm_d(n, app)
        if x <= 0 or d == 0.0:
            continue
        a = s.app(app)
        z = state.allocated[app][k]
        inc = eval_utility(a.utility, z + x, a.request[k]) - eval_utility(a.utility, z, a.request[k])
        if inc < d * x * (1 - 1e-12):  # a slack relative to the cost, for rounding in inc
            allocation[(app, k)] = 0.0
    return allocation


def solve_single_provider(s: Scenario, n: int) -> SubproblemResult:
    return allocate_greedy(build_solo_spec(s, n), s.delta, s.epsilon_gain)


def solve_surplus_share(
    s: Scenario, n: int, state: AllocState, deficit_apps: List[int], memo: ShareMemo
) -> SubproblemResult:
    """Provider n's share of its remaining capacity among the given deficit apps.

    Each distinct solve runs once per `memo`. The key holds everything the
    solve reads from `state`; the rest (requests, utilities, w1, comm_d,
    delta, epsilon_gain) must be the same in every scenario that shares the
    memo, as it is in the restrictions of one scenario.
    """
    memo_key = (n, tuple(state.remaining_capacity[n])) + tuple(
        (j, tuple(state.allocated[j])) for j in sorted(deficit_apps)
    )
    hit = memo.get(memo_key)
    if hit is not None:
        return hit
    spec = build_share_spec(s, n, state, deficit_apps)
    result = allocate_greedy(spec, s.delta, s.epsilon_gain)
    allocation = _rollback_uncovered_cost(s, n, state, result)
    if allocation != result.allocation:
        # The objective and resources are taken after the rollback so they match the allocation.
        result = _result(spec.items, [allocation[(it.app, it.k)] for it in spec.items])
    memo[memo_key] = result
    return result
