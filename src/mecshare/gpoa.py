"""Ordered surplus-sharing allocation: solo phase, deficit/surplus split, sharing rounds."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Tuple

from .model import AllocEvent, AllocState, AllocationTensor, Scenario, SoloRecord
from .scengen import Stream
from .subsolver import ShareMemo, solve_single_provider, solve_surplus_share

if TYPE_CHECKING:
    from .ppmpoa import MatchRecord


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
    key, _, val = rest.partition("=")
    try:
        if kind in ("cao", "cdo") and (not rest or key == "k"):
            return OrderingScheme(kind=kind, k=int(val) if rest else 0)
        if kind == "random" and key == "seed":
            return OrderingScheme(kind="random", seed=int(val))
        if kind == "explicit":
            return OrderingScheme(kind="explicit", order=tuple(int(p) for p in rest.split(",")))
    except ValueError:  # a number that does not parse, reported below with the spec
        pass
    raise ValueError(f"bad ordering {text!r} (forms: cao:k=0, cdo:k=1, random:seed=7, explicit:4,5)")


@dataclass
class Payoff:
    v_solo: float = 0.0
    sharing: float = 0.0  # A_n, surplus players only
    bonus: float = 0.0  # B_m, deficit players only

    @property
    def total(self) -> float:
        return self.v_solo + self.sharing + self.bonus


@dataclass
class RunResult:
    """A GPOA or PPMPOA run; only PPMPOA records matches."""

    payoffs: Dict[int, Payoff]
    order_used: List[int]  # surplus providers in the order they shared
    events: List[AllocEvent]
    K: int
    matches: List[MatchRecord] = field(default_factory=list)
    # PPMPOA's scenario and the share memo its run solved through, for the stability replay.
    share_memo: Tuple[Scenario, ShareMemo] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def allocation(self) -> AllocationTensor:
        """The run's allocation x_{n,k}^j, derived from its event log when first read."""
        return AllocationTensor.from_events(self.events, self.K)

    @property
    def rounds(self) -> int:
        """Number of committed matches."""
        return len(self.matches)


def partition_players(s: Scenario) -> Tuple[List[int], List[int]]:
    """Deficit providers (any unmet native request) and surplus providers, after the solo phase."""
    records = s.post_solo
    g1 = [n for n, rec in records.items() if rec.deficit]
    g2 = [n for n, rec in records.items() if rec.surplus and not rec.deficit]
    return g1, g2


def order_surplus(s: Scenario, scheme: OrderingScheme) -> List[int]:
    """The surplus providers in sharing order; cao/cdo key on their post-solo capacity."""
    g2 = partition_players(s)[1]
    if scheme.kind in ("cao", "cdo") and not 0 <= scheme.k < s.K:
        raise ValueError(f"{scheme.kind}:k={scheme.k} names no resource type of K={s.K}")
    if scheme.kind == "cao":
        return sorted(g2, key=lambda n: (s.post_solo[n].remaining_capacity[scheme.k], n))
    if scheme.kind == "cdo":
        return sorted(g2, key=lambda n: (-s.post_solo[n].remaining_capacity[scheme.k], n))
    if scheme.kind == "random":
        return Stream(scheme.seed).shuffle(sorted(g2))
    if scheme.kind == "explicit":
        if sorted(scheme.order) != sorted(g2):
            raise ValueError(
                f"explicit order {list(scheme.order)} is not a permutation of {sorted(g2)}"
            )
        return list(scheme.order)
    raise ValueError(f"unknown ordering scheme kind {scheme.kind!r}")


def build_post_solo(s: Scenario) -> Dict[int, SoloRecord]:
    """Solve and commit each provider's solo allocation on a state holding only it and its apps.

    Runs once per scenario, as `Scenario.post_solo`; runs copy its state and share its events.
    """
    records: Dict[int, SoloRecord] = {}
    for n in s.provider_ids():
        apps = s.apps_of(n)
        state = AllocState(
            remaining_capacity={n: list(s.provider(n).capacity)},
            allocated={a.id: [0.0] * s.K for a in apps},
        )
        res = solve_single_provider(s, n)
        event = state.commit(n, res.allocation, "solo")
        records[n] = SoloRecord(
            v_solo=res.objective_value,
            remaining_capacity=tuple(state.remaining_capacity[n]),
            allocated={j: tuple(z) for j, z in state.allocated.items()},
            event=event,
            deficit=bool(state.deficit_apps(s, [n])),
            surplus=state.has_surplus(s, n),
        )
    return records


def start_run(s: Scenario) -> Tuple[AllocState, Dict[int, Payoff]]:
    """Where every run starts: a fresh post-solo state and payoffs from `Scenario.post_solo`.

    The event log starts with the records' own solo events, shared, not copied.
    """
    records = s.post_solo
    state = AllocState(
        remaining_capacity={p.id: list(records[p.id].remaining_capacity) for p in s.providers},
        allocated={a.id: list(records[a.owner].allocated[a.id]) for a in s.applications},
        events=[rec.event for rec in records.values()],
    )
    return state, {n: Payoff(v_solo=rec.v_solo) for n, rec in records.items()}


def run_solo_phase(
    s: Scenario,
) -> Tuple[AllocState, AllocationTensor, Dict[int, Payoff], List[AllocEvent]]:
    """Every provider serves its own applications: `start_run` plus the solo tensor."""
    state, payoffs = start_run(s)
    return state, AllocationTensor.from_events(state.events, s.K), payoffs, state.events


def credit_bonus(s: Scenario, payoffs: Dict[int, Payoff], event: AllocEvent) -> None:
    """Credit a share event to the deficit owners: each adds Σ x/r over its apps' chunks.

    A chunk is a positive grant toward a request, so r > 0. Every run's bonus
    is this rule, applied event by event.
    """
    sums: Dict[int, float] = {}
    for j, k, x in event.chunks:
        a = s.app(j)
        sums[a.owner] = sums.get(a.owner, 0.0) + x / a.request[k]
    for m, bonus in sums.items():
        payoffs[m].bonus += bonus


def share_step(
    s: Scenario,
    n: int,
    state: AllocState,
    payoffs: Dict[int, Payoff],
    deficit_apps: List[int],
    memo: ShareMemo,
) -> None:
    """One GPOA share step: n's share among `deficit_apps`, solved through `memo`.

    n's objective is credited as its sharing payoff, the grants are committed to
    `state`, and the owners of the apps they reach are credited their bonus.
    """
    res = solve_surplus_share(s, n, state, deficit_apps, memo)
    payoffs[n].sharing += res.objective_value
    credit_bonus(s, payoffs, state.commit(n, res.allocation, "share"))


def run_gpoa(s: Scenario, scheme: OrderingScheme) -> RunResult:
    memo: ShareMemo = {}
    order = order_surplus(s, scheme)
    state, payoffs = start_run(s)
    g1 = partition_players(s)[0]

    for n in order:
        deficit_apps = state.deficit_apps(s, g1)
        if not deficit_apps:
            break
        share_step(s, n, state, payoffs, deficit_apps, memo)

    return RunResult(payoffs=payoffs, order_used=order, events=state.events, K=s.K)
