"""Coalition values, exhaustive coalition analysis, core checks, and misreport experiments."""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .model import AllocEvent, AllocState, Scenario, eval_utility, lsum, validate_scenario
from .gpoa import (
    OrderingScheme,
    Payoff,
    RunResult,
    order_surplus,
    partition_players,
    run_gpoa,
    share_step,
)
from .ppmpoa import run_ppmpoa
from .subsolver import ShareMemo

MAX_PROVIDERS = 12

#: An order sweep permutes surplus sets up to this size; a larger one runs the given scheme.
SWEEP_LIMIT = 4

#: Slack of the rationality and core checks and of the core selection, which must agree.
PROPERTY_TOL = 1e-6


@dataclass
class CoalitionEntry:
    value: float
    payoffs: Dict[int, float]
    order_used: List[int]
    # One (surplus order, payoff vector) per evaluated ordering: every
    # permutation under an order sweep, otherwise the single run.
    candidates: List[Tuple[Tuple[int, ...], Dict[int, float]]]


@dataclass
class CoalitionReport:
    entries: Dict[FrozenSet[int], CoalitionEntry]
    provider_ids: List[int]

    def grand(self) -> CoalitionEntry:
        return self.entries[frozenset(self.provider_ids)]


@dataclass
class PropertyVerdict:
    name: str
    passed: bool
    witnesses: List[tuple] = field(default_factory=list)


def restrict_scheme(scheme: OrderingScheme, members) -> OrderingScheme:
    """An explicit order keeps the `members` it lists, in its order; other schemes are unchanged.

    A provider's surplus flag is its own, so this orders exactly a coalition's surplus set.
    """
    if scheme.kind != "explicit":
        return scheme
    return OrderingScheme.explicit(n for n in scheme.order if n in members)


def run_algorithm(s: Scenario, algorithm: str, scheme: OrderingScheme) -> RunResult:
    """Run GPOA under `scheme`, or PPMPOA (which takes no ordering)."""
    if algorithm == "gpoa":
        return run_gpoa(s, scheme)
    if algorithm == "ppmpoa":
        return run_ppmpoa(s)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def coalition_value(
    s: Scenario,
    members,
    scheme: OrderingScheme,
    algorithm: str = "gpoa",
) -> Tuple[float, Dict[int, float], List[int]]:
    """Run the chosen algorithm on the sub-scenario of `members`; value = sum of payoffs."""
    members = frozenset(members)
    if not members:
        raise ValueError("coalition must be nonempty")
    unknown = members - set(s.provider_ids())
    if unknown:
        raise ValueError(f"unknown providers in coalition: {sorted(unknown)}")
    result = run_algorithm(s.restrict(members), algorithm, restrict_scheme(scheme, members))
    payoffs = {n: p.total for n, p in result.payoffs.items()}
    return lsum(payoffs.values()), payoffs, result.order_used


def _coalitions_by_bitset(provider_ids: List[int]) -> List[FrozenSet[int]]:
    ids = sorted(provider_ids)
    return [frozenset(ids[i] for i in range(len(ids)) if mask & (1 << i))
            for mask in range(1, 1 << len(ids))]


def _dominating_candidate(entry: CoalitionEntry, members, grand_payoffs):
    for _, vec in entry.candidates:
        if all(vec[n] > grand_payoffs.get(n, 0.0) + PROPERTY_TOL for n in members):
            return vec
    return None


def gpoa_walk(
    s: Scenario, deficit: Tuple[int, ...], orders, share_memo: ShareMemo
) -> Dict[Tuple[int, ...], Dict[int, float]]:
    """GPOA's payoffs on the deficit members `deficit` under each of the surplus
    `orders` and each of their prefixes.

    Each order maps to the payoff totals of `deficit` and its own members, in id
    order: what `run_gpoa` pays them on any coalition of exactly those deficit
    and surplus members, under that order. The walk goes depth first over the
    orders' prefix tree from the post-solo records; an order is its prefix plus
    one share step: the child copies its parent's grants to the deficit apps and
    the payoffs, and its new provider shares its post-solo capacity through
    `gpoa.share_step`. Once no deficit app is left, a child takes no step and its
    provider keeps its solo payoff, as in a run that stopped sharing.
    """
    steps: Dict[Tuple[int, ...], Dict[int, None]] = {}  # prefix -> its next providers
    for order in orders:
        for i, n in enumerate(order):
            steps.setdefault(order[:i], {})[n] = None
    records = s.post_solo
    root = AllocState(
        remaining_capacity={},
        allocated={j: list(z) for m in deficit for j, z in records[m].allocated.items()},
    )
    walked = {}
    stack = [((), root, {m: Payoff(v_solo=records[m].v_solo) for m in deficit})]
    while stack:
        order, state, payoffs = stack.pop()
        walked[order] = {m: payoffs[m].total for m in sorted(payoffs)}
        nexts = steps.pop(order, ())
        deficit_apps = state.deficit_apps(s, deficit) if nexts else []
        for n in nexts:
            child, child_payoffs = state, {**payoffs, n: Payoff(v_solo=records[n].v_solo)}
            if deficit_apps:
                child = AllocState(
                    remaining_capacity={n: list(records[n].remaining_capacity)},
                    allocated={j: list(z) for j, z in state.allocated.items()},
                )
                for m in deficit:
                    child_payoffs[m] = dataclasses.replace(payoffs[m])
                share_step(s, n, child, child_payoffs, deficit_apps, share_memo)
            stack.append((order + (n,), child, child_payoffs))
    return walked


def enumerate_coalitions(
    s: Scenario,
    scheme: OrderingScheme,
    algorithm: str = "gpoa",
    sweep_orders: bool = False,
    share_memo: ShareMemo | None = None,
) -> CoalitionReport:
    """Evaluate every nonempty coalition.

    With sweep_orders the surplus-order permutations of each coalition are all
    evaluated (up to SWEEP_LIMIT surplus members). The realized value of a
    single fixed scheme is order-sensitive and would make an unlucky order
    look like a property violation.

    Each entry is picked once, when it is built. Its candidates are ranked by
    value, highest first, ties broken by the smaller surplus order, and the
    entry takes the first ranked one. A value within `PROPERTY_TOL`·(1 + |best|)
    of the best counts as tied with it, so a pick never turns on rounding. Under a sweep the grand coalition
    instead takes the first ranked candidate that no proper coalition blocks,
    or the first one if every candidate is blocked. It comes last in bitset
    order, so every proper coalition is built before it.

    A GPOA coalition's orders are the `itertools.permutations` of its surplus
    members under a sweep, else the one order `run_gpoa` takes on its
    restriction. Its candidates are read off `gpoa_walk`, one walk per set of
    deficit members over every order asked for it, dropped once read; a member
    with neither deficit nor surplus gets its solo payoff. So every share step
    is taken once, and a candidate equals a `run_gpoa` on the coalition's
    restriction bit for bit. A PPMPOA coalition runs `run_ppmpoa` on
    `Scenario.restrict`.

    Every share solve is handed one share-solve memo, `share_memo` or else a
    fresh one, so each distinct share subproblem is solved once.
    """
    ids = s.provider_ids()
    if not ids:
        raise ValueError("scenario has no providers")
    if len(ids) > MAX_PROVIDERS:
        raise ValueError(f"{len(ids)} providers exceeds cap of {MAX_PROVIDERS}")
    # Raises unless the scheme can order the surplus set, under either algorithm and
    # even where a sweep never runs it; each coalition's is this one restricted.
    order_surplus(s, scheme)
    if algorithm not in ("gpoa", "ppmpoa"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    sweep = sweep_orders and algorithm == "gpoa"
    full = frozenset(ids)
    share_memo = {} if share_memo is None else share_memo
    g1, g2 = partition_players(s)
    solo = {n: Payoff(v_solo=rec.v_solo).total for n, rec in s.post_solo.items()}
    coalitions = _coalitions_by_bitset(ids)
    candidates_of = {}  # coalition -> its (surplus order, payoffs) candidates
    for members in coalitions if algorithm == "ppmpoa" else ():
        result = run_ppmpoa(s.restrict(members), share_memo)
        candidates_of[members] = [
            (tuple(result.order_used), {n: p.total for n, p in result.payoffs.items()})
        ]
    by_deficit: Dict[Tuple[int, ...], list] = {}  # deficit members -> [(coalition, its orders)]
    for members in coalitions if algorithm == "gpoa" else ():
        surplus = [n for n in g2 if n in members]
        if sweep and len(surplus) <= SWEEP_LIMIT:
            orders = list(itertools.permutations(surplus))
        else:
            orders = [tuple(order_surplus(s.restrict(members), restrict_scheme(scheme, members)))]
        by_deficit.setdefault(tuple(n for n in g1 if n in members), []).append((members, orders))
    for deficit, group in by_deficit.items():
        walk = gpoa_walk(s, deficit, (order for _, orders in group for order in orders), share_memo)
        for members, orders in group:
            candidates = [(order, walk[order]) for order in orders]
            if len(members) > len(deficit) + len(orders[0]):  # some member has neither
                candidates = [(order, {n: vec.get(n, v) for n, v in solo.items() if n in members})
                              for order, vec in candidates]
            candidates_of[members] = candidates
    entries: Dict[FrozenSet[int], CoalitionEntry] = {}
    for members in coalitions:
        candidates = candidates_of[members]
        values = [lsum(vec.values()) for _, vec in candidates]
        best = max(values)
        tied = best - PROPERTY_TOL * (1 + abs(best))  # values this close to the best tie with it
        ranked = sorted(range(len(candidates)), key=lambda i: (
            -(best if values[i] >= tied else values[i]), candidates[i][0]))
        pick = ranked[0]
        if sweep and members == full:
            pick = next((i for i in ranked if all(
                _dominating_candidate(e, m, candidates[i][1]) is None for m, e in entries.items()
            )), ranked[0])
        order, payoffs = candidates[pick]
        entries[members] = CoalitionEntry(
            value=values[pick], payoffs=payoffs, order_used=list(order), candidates=candidates,
        )
    return CoalitionReport(entries=entries, provider_ids=ids)


def check_superadditivity(report: CoalitionReport) -> PropertyVerdict:
    """v(S1 ∪ S2) ≥ v(S1) + v(S2) for every disjoint nonempty pair.

    Each unordered pair is checked once, as min(S1) < min(S2): S2 runs over
    the submasks of S1's complement above min(S1), in increasing bitmask
    order, so the witnesses come out in the order of `_coalitions_by_bitset`.
    """
    bits = {n: 1 << i for i, n in enumerate(sorted(report.provider_ids))}
    mask = {members: sum(bits[n] for n in members) for members in report.entries}
    value = [0.0] * (1 << len(bits))
    for members, entry in report.entries.items():
        value[mask[members]] = entry.value
    full = len(value) - 1
    witnesses = []
    for s1, entry in report.entries.items():
        m1 = mask[s1]
        free = full & ~m1 & -((m1 & -m1) << 1)  # outside S1, above its lowest member
        m2 = (-free) & free
        while m2:
            union_value = value[m1 | m2]
            tol = PROPERTY_TOL * (1 + abs(union_value))
            if union_value < entry.value + value[m2] - tol:
                s2 = [n for n, bit in bits.items() if m2 & bit]
                witnesses.append((sorted(s1), s2, union_value))
            m2 = (m2 - free) & free
    return PropertyVerdict(name="superadditivity", passed=not witnesses, witnesses=witnesses)


def check_rationality(report: CoalitionReport) -> PropertyVerdict:
    """Individual: grand payoff >= solo value per player; group: payoffs sum to v(N)."""
    witnesses = []
    grand = report.grand()
    for n in report.provider_ids:
        solo = report.entries[frozenset({n})].value
        if grand.payoffs.get(n, 0.0) < solo - PROPERTY_TOL:
            witnesses.append(("individual", n, grand.payoffs.get(n, 0.0), solo))
    total = lsum(grand.payoffs.values())
    if abs(total - grand.value) > 1e-9 * max(1.0, abs(grand.value)):
        witnesses.append(("group", total, grand.value))
    return PropertyVerdict(name="rationality", passed=not witnesses, witnesses=witnesses)


def check_no_blocking_coalition(report: CoalitionReport) -> PropertyVerdict:
    """No proper coalition can give every member strictly more than the grand vector.

    Every evaluated surplus ordering of each coalition counts as an achievable
    payoff vector for it.
    """
    witnesses = []
    grand = report.grand()
    full = frozenset(report.provider_ids)
    for members, entry in report.entries.items():
        if members == full:
            continue
        vec = _dominating_candidate(entry, members, grand.payoffs)
        if vec is not None:
            witnesses.append((sorted(members), lsum(vec[n] for n in members)))
    return PropertyVerdict(name="no_blocking_coalition", passed=not witnesses, witnesses=witnesses)


# --- truth-telling --------------------------------------------------------


def _scaled_scenario(s: Scenario, n: int, factor_capacity: float, factor_requests: float) -> Scenario:
    providers = tuple(
        dataclasses.replace(p, capacity=tuple(c * factor_capacity for c in p.capacity))
        if p.id == n else p
        for p in s.providers
    )
    applications = tuple(
        dataclasses.replace(a, request=tuple(r * factor_requests for r in a.request))
        if a.owner == n else a
        for a in s.applications
    )
    return dataclasses.replace(s, providers=providers, applications=applications)


def realized_payoffs(s: Scenario, events: List[AllocEvent]) -> Dict[int, float]:
    """Replay an event log against the true scenario and account realized payoffs.

    Grants beyond the allocator's true capacity or the app's true request are
    clipped, in commit order: (app, resource) order within each event. Utilities
    and satisfaction terms are always evaluated against the true requests. A deficit
    owner is credited x_eff/r per chunk: `gpoa.credit_bonus`'s term, applied to
    the clipped amounts.
    """
    cap = {p.id: list(p.capacity) for p in s.providers}
    z = {a.id: [0.0] * s.K for a in s.applications}
    payoff = {p.id: 0.0 for p in s.providers}

    # Base utility of an empty allocation: the solo objective counts every
    # demanded (app, resource) term, including those left at zero.
    for a in s.applications:
        for r in a.request:
            if r > 0:
                payoff[a.owner] += a.weight_w1 * eval_utility(a.utility, 0.0, r)

    for ev in events:
        n = ev.allocator
        for j, k, x in ev.chunks:
            a = s.app(j)
            r = a.request[k]
            x_eff = min(x, max(0.0, cap[n][k]), max(0.0, r - z[j][k]))
            if x_eff <= 0:
                continue
            # From here r > z[j][k] >= 0, so r and gap below are positive.
            cap[n][k] -= x_eff
            if ev.phase == "solo":
                payoff[n] += a.weight_w1 * (
                    eval_utility(a.utility, x_eff, r) - eval_utility(a.utility, 0.0, r)
                ) + x_eff / r
            else:
                z0 = z[j][k]
                d = s.comm_d(n, j)
                gap = r - z0
                inc = eval_utility(a.utility, z0 + x_eff, r) - eval_utility(a.utility, z0, r)
                # A gap left within `tol` counts as closed: the run's grant closed
                # it, and the replay's clip at the true capacity differs by rounding.
                closed = gap - x_eff <= s.tol
                ratio = 1.0 if closed else x_eff / gap
                payoff[n] += a.weight_w1 * (inc - d * x_eff) + ratio * ratio
                payoff[a.owner] += x_eff / r
            z[j][k] += x_eff
    return payoff


def misreport_experiment(
    s: Scenario,
    n: int,
    factor_capacity: float,
    factor_requests: float,
    algorithm: str = "gpoa",
    scheme: OrderingScheme | None = None,
) -> Tuple[float, float]:
    """Realized payoff of provider n when truthful vs when misreporting scaled values.

    The default ordering is a fixed-seed shuffle: it depends only on which
    providers have surplus, so a misreport cannot buy a better queue position.
    Capacity-keyed orderings (cao/cdo) are manipulable: a provider can starve
    its own applications to inflate its remaining capacity and share first.

    The misreporting provider's own solo allocation is replayed from its true
    solo record: its internal allocation uses its real capacity and requests
    no matter what it told the other providers. Only the sharing phase sees
    the misreported values, and those grants are clipped against the truth.
    """
    if not all(math.isfinite(f) and f > 0 for f in (factor_capacity, factor_requests)):
        raise ValueError("scaling factors must be finite and > 0")
    if n not in s.provider_ids():
        raise ValueError(f"unknown provider {n}")
    reported = _scaled_scenario(s, n, factor_capacity, factor_requests)
    problems = validate_scenario(reported)
    if problems:
        raise ValueError("invalid misreported scenario: " + "; ".join(problems))
    if scheme is None:
        scheme = OrderingScheme.random(0)
    truthful = realized_payoffs(s, run_algorithm(s, algorithm, scheme).events)[n]
    mis_events = [
        s.post_solo[n].event if ev.phase == "solo" and ev.allocator == n else ev
        for ev in run_algorithm(reported, algorithm, scheme).events
    ]
    misreport = realized_payoffs(s, mis_events)[n]
    return truthful, misreport
