"""Ordered surplus-sharing allocation: solo phase, deficit/surplus split, sharing rounds."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .model import AllocEvent, AllocState, AllocationTensor, Scenario
from .scengen import Stream
from .subsolver import solve_single_provider, solve_surplus_share


class InvalidExplicitOrder(ValueError):
    pass


@dataclass(frozen=True)
class OrderingScheme:
    kind: str  # "cao" | "cdo" | "random" | "explicit"
    k: int = 0
    seed: int = 0
    order: Tuple[int, ...] = ()

    @staticmethod
    def cao(k: int = 0) -> "OrderingScheme":
        return OrderingScheme(kind="cao", k=k)

    @staticmethod
    def cdo(k: int = 0) -> "OrderingScheme":
        return OrderingScheme(kind="cdo", k=k)

    @staticmethod
    def random(seed: int) -> "OrderingScheme":
        return OrderingScheme(kind="random", seed=seed)

    @staticmethod
    def explicit(order) -> "OrderingScheme":
        return OrderingScheme(kind="explicit", order=tuple(order))


def parse_ordering(text: str) -> OrderingScheme:
    """Parse CLI forms like cao:k=0, cdo:k=1, random:seed=7, explicit:4,5,6."""
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind in ("cao", "cdo"):
        k = 0
        if rest:
            key, _, val = rest.partition("=")
            if key != "k":
                raise ValueError(f"expected k=<index> after {kind}:, got {rest!r}")
            k = int(val)
        return OrderingScheme(kind=kind, k=k)
    if kind == "random":
        key, _, val = rest.partition("=")
        if key != "seed":
            raise ValueError(f"expected seed=<int> after random:, got {rest!r}")
        return OrderingScheme(kind="random", seed=int(val))
    if kind == "explicit":
        return OrderingScheme(kind="explicit", order=tuple(int(p) for p in rest.split(",")))
    raise ValueError(f"unknown ordering scheme {text!r}")


@dataclass
class Payoff:
    v_solo: float = 0.0
    sharing: float = 0.0  # A_n, surplus players only
    bonus: float = 0.0  # B_m, deficit players only

    @property
    def total(self) -> float:
        return self.v_solo + self.sharing + self.bonus


@dataclass
class GpoaResult:
    allocation: AllocationTensor
    payoffs: Dict[int, Payoff]
    g1: List[int]
    g2: List[int]
    order_used: List[int]
    events: List[AllocEvent] = field(default_factory=list)


def partition_players(s: Scenario, state: AllocState) -> Tuple[List[int], List[int]]:
    """Split providers into deficit (any unmet native request) and surplus sets."""
    g1: List[int] = []
    g2: List[int] = []
    for n in s.provider_ids():
        if state.has_deficit(s, n):
            g1.append(n)
        elif state.has_surplus(n):
            g2.append(n)
    return g1, g2


def order_surplus(g2: List[int], scheme: OrderingScheme, state: AllocState) -> List[int]:
    if scheme.kind == "cao":
        return sorted(g2, key=lambda n: (state.remaining_capacity[n][scheme.k], n))
    if scheme.kind == "cdo":
        return sorted(g2, key=lambda n: (-state.remaining_capacity[n][scheme.k], n))
    if scheme.kind == "random":
        return Stream(scheme.seed).shuffle(sorted(g2))
    if scheme.kind == "explicit":
        if sorted(scheme.order) != sorted(g2):
            raise InvalidExplicitOrder(
                f"explicit order {list(scheme.order)} is not a permutation of {sorted(g2)}"
            )
        return list(scheme.order)
    raise ValueError(f"unknown ordering scheme kind {scheme.kind!r}")


def run_solo_phase(
    s: Scenario,
) -> Tuple[AllocState, AllocationTensor, Dict[int, Payoff], List[AllocEvent]]:
    """Every provider serves its own applications; shared starting point of both algorithms."""
    state = AllocState.initial(s)
    alloc = AllocationTensor()
    payoffs: Dict[int, Payoff] = {}
    events: List[AllocEvent] = []
    for n in s.provider_ids():
        res = solve_single_provider(s, n)
        payoffs[n] = Payoff(v_solo=res.objective_value)
        events.append(state.commit(s, alloc, n, res.allocation, "solo"))
    return state, alloc, payoffs, events


def run_gpoa(s: Scenario, scheme: OrderingScheme) -> GpoaResult:
    if scheme.kind in ("cao", "cdo") and not 0 <= scheme.k < s.K:
        raise ValueError(f"{scheme.kind}:k={scheme.k} names no resource type of K={s.K}")
    state, alloc, payoffs, events = run_solo_phase(s)
    g1, g2 = partition_players(s, state)
    order = order_surplus(g2, scheme, state)

    shared: Dict[Tuple[int, int], float] = {}  # (app, k) -> amount granted in sharing rounds
    for n in order:
        deficit_apps = [a.id for m in g1 for a in s.apps_of(m) if state.app_has_deficit(a.id)]
        if not deficit_apps:
            break
        res = solve_surplus_share(s, n, state, deficit_apps)
        payoffs[n].sharing += res.objective_value
        ev = state.commit(s, alloc, n, res.allocation, "share")
        for j, k, x in ev.chunks:
            shared[(j, k)] = shared.get((j, k), 0.0) + x
        events.append(ev)

    for m in g1:
        bonus = 0.0
        for a in s.apps_of(m):
            for k in range(s.K):
                x = shared.get((a.id, k), 0.0)
                if x > 0 and a.request[k] > 0:
                    bonus += x / a.request[k]
        payoffs[m].bonus = bonus

    return GpoaResult(
        allocation=alloc,
        payoffs=payoffs,
        g1=g1,
        g2=g2,
        order_used=order,
        events=events,
    )
