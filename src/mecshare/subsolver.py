"""Greedy unit-increment solver for the three allocation subproblems, plus a grid oracle."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .model import AllocState, Scenario, eval_utility

ORACLE_STATE_CAP = 10**7


class GridTooLarge(ValueError):
    pass


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
    kind: str = "solo"  # "solo" | "share" | "match"
    # True when every item's contribution is non-decreasing in x; enables the
    # saturation shortcut for resource types whose capacity is not binding.
    monotone: bool = False


@dataclass
class SubproblemResult:
    allocation: Dict[Tuple[int, int], float] = field(default_factory=dict)
    objective_value: float = 0.0
    resources_used: float = 0.0
    grant_order: List[Tuple[int, int]] = field(default_factory=list)


def allocate_greedy(spec: SubproblemSpec, delta: float, epsilon_gain: float) -> SubproblemResult:
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
    first_grant: List[Tuple[int, int]] = []
    granted = [False] * len(items)
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
                if it.ub > 0:
                    granted[i] = True
                    first_grant.append((it.app, it.k))

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
        if not granted[i]:
            granted[i] = True
            first_grant.append((app, k))
        g2 = gain_for(i)
        if g2 > epsilon_gain:
            heapq.heappush(heap, (-g2, app, k, i))

    allocation = {(it.app, it.k): x[i] for i, it in enumerate(items)}
    objective = sum(it.f(x[i]) for i, it in enumerate(items))
    return SubproblemResult(
        allocation=allocation,
        objective_value=objective,
        resources_used=sum(x),
        grant_order=first_grant,
    )


def allocate_oracle(spec: SubproblemSpec, grid_step: float) -> SubproblemResult:
    """Exhaustive search over the grid {0, step, 2*step, ...}; verification oracle.

    Ties resolve to the lexicographically smallest allocation in
    (app id, resource index) item order.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    items = sorted(spec.items, key=lambda it: (it.app, it.k))
    levels: List[List[float]] = []
    states = 1
    for it in items:
        n_steps = int(math.floor(it.ub / grid_step + 1e-12))
        pts = [i * grid_step for i in range(n_steps + 1)]
        if pts[-1] < it.ub - 1e-12:
            pts.append(it.ub)
        levels.append(pts)
        states *= len(pts)
        if states > ORACLE_STATE_CAP:
            raise GridTooLarge(f"grid has more than {ORACLE_STATE_CAP} states")

    best_obj = -math.inf
    best_x: List[float] = [0.0] * len(items)
    x = [0.0] * len(items)
    cap0 = dict(spec.capacity)

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
            if level > avail + 1e-12:
                break
            x[i] = level
            cap[it.k] = avail - level
            recurse(i + 1, cap, acc + it.f(level))
            cap[it.k] = avail
        x[i] = 0.0

    if items:
        recurse(0, cap0, 0.0)
    else:
        best_obj = 0.0

    allocation = {(it.app, it.k): best_x[i] for i, it in enumerate(items)}
    return SubproblemResult(
        allocation=allocation,
        objective_value=best_obj if best_obj != -math.inf else 0.0,
        resources_used=sum(best_x),
    )


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
    return SubproblemSpec(items=items, capacity=capacity, kind="solo", monotone=True)


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
    monotone = True
    for j in sorted(deficit_apps):
        a = s.app(j)
        d = s.comm_d(n, j)
        if d > 0:
            monotone = False  # the -d*x term can make contributions decrease
        for k in range(s.K):
            if not state.app_has_deficit(j, k):
                continue
            gap = state.remaining_request[j][k]
            z = state.allocated[j][k]
            items.append(
                SubproblemItem(
                    app=j,
                    k=k,
                    ub=gap,
                    f=_share_contrib(a.utility, a.weight_w1, a.request[k], z, gap, d),
                )
            )
    capacity = {k: max(0.0, state.remaining_capacity[n][k]) for k in range(s.K)}
    return SubproblemSpec(items=items, capacity=capacity, kind="share", monotone=monotone)


def _rollback_uncovered_cost(
    s: Scenario, n: int, state: AllocState, result: SubproblemResult
) -> SubproblemResult:
    """Zero out items whose incremental utility does not cover the communication cost.

    Walks the first-grant order in reverse; freed capacity is not re-granted.
    """
    for app, k in reversed(result.grant_order):
        x = result.allocation.get((app, k), 0.0)
        if x <= 0:
            continue
        d = s.comm_d(n, app)
        if d == 0.0:
            continue
        a = s.app(app)
        z = state.allocated[app][k]
        inc = eval_utility(a.utility, z + x, a.request[k]) - eval_utility(a.utility, z, a.request[k])
        if inc < d * x - 1e-12:
            result.allocation[(app, k)] = 0.0
            result.resources_used -= x
    return result


def solve_single_provider(s: Scenario, n: int) -> SubproblemResult:
    return allocate_greedy(build_solo_spec(s, n), s.delta, s.epsilon_gain)


def solve_surplus_share(
    s: Scenario, n: int, state: AllocState, deficit_apps: List[int]
) -> SubproblemResult:
    spec = build_share_spec(s, n, state, deficit_apps)
    result = allocate_greedy(spec, s.delta, s.epsilon_gain)
    result = _rollback_uncovered_cost(s, n, state, result)
    # Recompute the objective after any rollback so it matches the allocation.
    by_key = {(it.app, it.k): it for it in spec.items}
    result.objective_value = sum(
        it.f(result.allocation.get(key, 0.0)) for key, it in by_key.items()
    )
    return result


def solve_pair_match(
    s: Scenario, m: int, n: int, state: AllocState
) -> Tuple[float, float, Dict[Tuple[int, int], float]]:
    """Candidate value of surplus provider n serving deficit provider m's apps.

    Pure: does not mutate `state`. Returns (objective J, resources used R, allocation).
    """
    deficit_apps = [a.id for a in s.apps_of(m) if state.app_has_deficit(a.id)]
    if not deficit_apps:
        return 0.0, 0.0, {}
    result = solve_surplus_share(s, n, state, deficit_apps)
    return result.objective_value, result.resources_used, result.allocation
