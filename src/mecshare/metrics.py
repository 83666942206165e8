"""Request satisfaction, resource utilization, and fragmentation reporting."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .model import AllocationTensor, Scenario, lsum


@dataclass
class MetricsReport:
    app_satisfaction: Dict[int, float] = field(default_factory=dict)
    provider_satisfaction: Dict[int, float] = field(default_factory=dict)
    provider_utilization: Dict[int, float] = field(default_factory=dict)
    app_fragmentation: Dict[int, int] = field(default_factory=dict)
    mean_fragmentation: float = 0.0


def request_satisfaction(s: Scenario, x: AllocationTensor):
    """Per app: mean of allocated/requested over demanded resource types; per provider: mean over native apps."""
    return _satisfaction(s, x.totals(s.K)[0])


def _satisfaction(s: Scenario, by_app: Dict[int, List[float]]):
    zeros = [0.0] * s.K
    per_app: Dict[int, float] = {}
    for a in s.applications:
        totals = by_app.get(a.id, zeros)
        ratios = [
            min(1.0, totals[k] / a.request[k]) for k in range(s.K) if a.request[k] > 0
        ]
        per_app[a.id] = lsum(ratios) / len(ratios) if ratios else 1.0
    per_provider: Dict[int, float] = {}
    for p in s.providers:
        vals = [per_app[j] for j in p.native_apps]
        per_provider[p.id] = lsum(vals) / len(vals) if vals else 1.0
    return per_app, per_provider


def resource_utilization(s: Scenario, x: AllocationTensor) -> Dict[int, float]:
    return _utilization(s, x.totals(s.K)[1])


def _utilization(s: Scenario, by_provider: Dict[int, List[float]]) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for p in s.providers:
        total_cap = lsum(p.capacity)
        if total_cap <= 0:
            out[p.id] = 0.0
            continue
        used = lsum(by_provider.get(p.id, [0.0] * s.K))
        out[p.id] = min(1.0, used / total_cap)
    return out


def fragmentation_index(s: Scenario, x: AllocationTensor):
    """Per app: count of distinct remote providers serving it; aggregate: mean over remotely served apps."""
    remotes: Dict[int, Set[int]] = {a.id: set() for a in s.applications}
    owner = {a.id: a.owner for a in s.applications}
    for (n, j), vec in x.entries.items():
        if j in owner and n != owner[j] and any(v > s.tol for v in vec):
            remotes[j].add(n)
    per_app = {j: len(providers) for j, providers in remotes.items()}
    served = [c for c in per_app.values() if c > 0]
    aggregate = sum(served) / len(served) if served else 0.0
    return per_app, aggregate


def compute_metrics(s: Scenario, x: AllocationTensor) -> MetricsReport:
    by_app, by_provider = x.totals(s.K)
    app_sat, prov_sat = _satisfaction(s, by_app)
    util = _utilization(s, by_provider)
    frag, mean_frag = fragmentation_index(s, x)
    return MetricsReport(
        app_satisfaction=app_sat,
        provider_satisfaction=prov_sat,
        provider_utilization=util,
        app_fragmentation=frag,
        mean_fragmentation=mean_frag,
    )
