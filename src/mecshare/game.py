"""Coalition values, exhaustive coalition analysis, core checks, and misreport experiments."""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .model import AllocEvent, Scenario, eval_utility
from .gpoa import GpoaResult, OrderingScheme, partition_players, run_gpoa, run_solo_phase
from .ppmpoa import PpmpoaResult, run_ppmpoa

MAX_PROVIDERS = 12


class EmptyCoalition(ValueError):
    pass


class TooManyProviders(ValueError):
    pass


@dataclass
class CoalitionEntry:
    value: float
    payoffs: Dict[int, float]
    order_used: List[int]
    # One (surplus order, payoff vector) per swept ordering; a single entry
    # when order sweeping is off or the surplus set is too large to sweep.
    candidates: List[Tuple[Tuple[int, ...], Dict[int, float]]] = field(default_factory=list)


@dataclass
class CoalitionReport:
    entries: Dict[FrozenSet[int], CoalitionEntry]
    algorithm: str
    provider_ids: List[int]

    def grand(self) -> CoalitionEntry:
        return self.entries[frozenset(self.provider_ids)]


@dataclass
class PropertyVerdict:
    name: str
    passed: bool
    witnesses: List[tuple] = field(default_factory=list)


def restrict_scenario(s: Scenario, members: FrozenSet[int]) -> Scenario:
    keep_providers = tuple(p for p in s.providers if p.id in members)
    keep_app_ids = {j for p in keep_providers for j in p.native_apps}
    keep_apps = tuple(a for a in s.applications if a.id in keep_app_ids)
    comm = {
        (n, j): d for (n, j), d in s.comm_costs.items() if n in members and j in keep_app_ids
    }
    return dataclasses.replace(
        s, providers=keep_providers, applications=keep_apps, comm_costs=comm
    )


def run_algorithm(
    s: Scenario, algorithm: str, scheme: OrderingScheme
) -> GpoaResult | PpmpoaResult:
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
        raise EmptyCoalition("coalition must be nonempty")
    unknown = members - set(s.provider_ids())
    if unknown:
        raise ValueError(f"unknown providers in coalition: {sorted(unknown)}")
    result = run_algorithm(restrict_scenario(s, members), algorithm, scheme)
    payoffs = {n: p.total for n, p in result.payoffs.items()}
    return sum(payoffs.values()), payoffs, result.order_used


def _coalitions_by_bitset(provider_ids: List[int]) -> List[FrozenSet[int]]:
    ids = sorted(provider_ids)
    out = []
    for mask in range(1, 1 << len(ids)):
        out.append(frozenset(ids[i] for i in range(len(ids)) if mask & (1 << i)))
    return out


def _swept_entry(s: Scenario, members: FrozenSet[int], sweep_limit: int) -> CoalitionEntry | None:
    """Evaluate every surplus-order permutation of a coalition, best value first."""
    sub = restrict_scenario(s, members)
    state, _, _, _ = run_solo_phase(sub)
    _, g2 = partition_players(sub, state)
    if len(g2) > sweep_limit:
        return None
    candidates = []
    for perm in itertools.permutations(sorted(g2)) if g2 else [()]:
        result = run_gpoa(sub, OrderingScheme.explicit(perm))
        candidates.append((tuple(perm), {n: p.total for n, p in result.payoffs.items()}))
    best_order, best_payoffs = max(candidates, key=lambda c: sum(c[1].values()))
    return CoalitionEntry(
        value=sum(best_payoffs.values()),
        payoffs=best_payoffs,
        order_used=list(best_order),
        candidates=candidates,
    )


def _dominating_candidate(entry: CoalitionEntry, members, grand_payoffs, tol: float):
    for _, vec in entry.candidates or [((), entry.payoffs)]:
        if all(vec[n] > grand_payoffs.get(n, 0.0) + tol for n in members):
            return vec
    return None


def enumerate_coalitions(
    s: Scenario,
    scheme: OrderingScheme,
    algorithm: str = "gpoa",
    sweep_orders: bool = False,
    sweep_limit: int = 4,
) -> CoalitionReport:
    """Evaluate every nonempty coalition.

    With sweep_orders the surplus-order permutations of each coalition are all
    evaluated (up to sweep_limit surplus members): a coalition's value is the
    best realizable one, and the grand coalition's representative vector is the
    highest-value candidate no sub-coalition can strictly improve upon. The
    realized value of a single fixed scheme is order-sensitive and would make
    an unlucky order look like a property violation.
    """
    ids = s.provider_ids()
    if len(ids) > MAX_PROVIDERS:
        raise TooManyProviders(f"{len(ids)} providers exceeds cap of {MAX_PROVIDERS}")
    coalitions = _coalitions_by_bitset(ids)

    def evaluate(members: FrozenSet[int]) -> CoalitionEntry:
        if sweep_orders and algorithm == "gpoa":
            entry = _swept_entry(s, members, sweep_limit)
            if entry is not None:
                return entry
        value, payoffs, order = coalition_value(s, members, scheme, algorithm)
        return CoalitionEntry(
            value=value, payoffs=payoffs, order_used=order,
            candidates=[(tuple(order), payoffs)],
        )

    entries = {members: evaluate(members) for members in coalitions}
    report = CoalitionReport(entries=entries, algorithm=algorithm, provider_ids=ids)

    if sweep_orders and algorithm == "gpoa":
        _select_core_grand(report)
    return report


def _select_core_grand(report: CoalitionReport, tol: float = 1e-6) -> None:
    """Re-point the grand entry at its best candidate that no coalition blocks."""
    full = frozenset(report.provider_ids)
    grand = report.entries[full]
    ranked = sorted(grand.candidates, key=lambda c: (-sum(c[1].values()), c[0]))
    for order, payoffs in ranked:
        blocked = any(
            _dominating_candidate(entry, members, payoffs, tol) is not None
            for members, entry in report.entries.items()
            if members != full
        )
        if not blocked:
            grand.payoffs = payoffs
            grand.order_used = list(order)
            grand.value = sum(payoffs.values())
            return
    # All candidates blocked: leave the best-value one in place and let
    # check_no_blocking_coalition report the witnesses.


def check_superadditivity(report: CoalitionReport) -> PropertyVerdict:
    """v(S1 ∪ S2) ≥ v(S1) + v(S2) for every disjoint nonempty pair."""
    witnesses = []
    coalitions = list(report.entries)
    for s1 in coalitions:
        for s2 in coalitions:
            if s1 & s2 or min(s1) > min(s2):
                continue
            union_value = report.entries[s1 | s2].value
            tol = 1e-6 * (1 + abs(union_value))
            if union_value < report.entries[s1].value + report.entries[s2].value - tol:
                witnesses.append((sorted(s1), sorted(s2), union_value))
    return PropertyVerdict(name="superadditivity", passed=not witnesses, witnesses=witnesses)


def check_rationality(report: CoalitionReport) -> PropertyVerdict:
    """Individual: grand payoff >= solo value per player; group: payoffs sum to v(N)."""
    witnesses = []
    grand = report.grand()
    for n in report.provider_ids:
        solo = report.entries[frozenset({n})].value
        if grand.payoffs.get(n, 0.0) < solo - 1e-6:
            witnesses.append(("individual", n, grand.payoffs.get(n, 0.0), solo))
    total = sum(grand.payoffs.values())
    if abs(total - grand.value) > 1e-9 * max(1.0, abs(grand.value)):
        witnesses.append(("group", total, grand.value))
    return PropertyVerdict(name="rationality", passed=not witnesses, witnesses=witnesses)


def check_no_blocking_coalition(report: CoalitionReport, tol: float = 1e-6) -> PropertyVerdict:
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
        vec = _dominating_candidate(entry, members, grand.payoffs, tol)
        if vec is not None:
            witnesses.append((sorted(members), sum(vec[n] for n in members)))
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
    clipped, in ascending (app, resource) order within each event. Utilities and
    satisfaction terms are always evaluated against the true requests.
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
        chunks = sorted(ev.chunks)
        z_entry = {
            j: list(z[j]) for j in {j for (j, _k, _x) in chunks}
        }
        for j, k, x in chunks:
            a = s.app(j)
            r = a.request[k]
            x_eff = min(x, max(0.0, cap[n][k]), max(0.0, r - z[j][k]))
            if x_eff <= 0:
                continue
            cap[n][k] -= x_eff
            if ev.phase == "solo":
                if r > 0:
                    payoff[n] += a.weight_w1 * (
                        eval_utility(a.utility, x_eff, r) - eval_utility(a.utility, 0.0, r)
                    ) + x_eff / r
            else:
                z0 = z_entry[j][k]
                d = s.comm_d(n, j)
                gap = r - z0
                inc = eval_utility(a.utility, z0 + x_eff, r) - eval_utility(a.utility, z0, r)
                contrib = a.weight_w1 * (inc - d * x_eff)
                if gap > 0:
                    # A gap closed to within bookkeeping tolerance counts as
                    # fully closed; otherwise a ~1e-12 difference between the
                    # run's and the replay's remaining-gap arithmetic gets
                    # amplified by a microscopic denominator.
                    ratio = 1.0 if gap - x_eff <= 1e-9 * max(1.0, r) else x_eff / gap
                    contrib += ratio * ratio
                payoff[n] += contrib
                if r > 0:
                    payoff[a.owner] += x_eff / r
            z[j][k] += x_eff
    return payoff


def run_events(s: Scenario, algorithm: str, scheme: OrderingScheme) -> List[AllocEvent]:
    return run_algorithm(s, algorithm, scheme).events


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

    The misreporting provider's own solo allocation is replayed from the
    truthful run: its internal allocation uses its real capacity and requests
    no matter what it told the other providers. Only the sharing phase sees
    the misreported values, and those grants are clipped against the truth.
    """
    if not all(math.isfinite(f) and f > 0 for f in (factor_capacity, factor_requests)):
        raise ValueError("scaling factors must be finite and > 0")
    if n not in s.provider_ids():
        raise ValueError(f"unknown provider {n}")
    if scheme is None:
        scheme = OrderingScheme.random(0)
    truth_events = run_events(s, algorithm, scheme)
    truthful = realized_payoffs(s, truth_events)[n]
    reported = _scaled_scenario(s, n, factor_capacity, factor_requests)
    solo_truth = {
        ev.allocator: ev for ev in truth_events if ev.phase == "solo"
    }
    mis_events = [
        solo_truth[ev.allocator] if ev.phase == "solo" and ev.allocator == n else ev
        for ev in run_events(reported, algorithm, scheme)
    ]
    misreport = realized_payoffs(s, mis_events)[n]
    return truthful, misreport
