"""Domain types: providers, applications, utilities, allocations, and feasibility checks."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

#: Absolute tolerance for partition thresholds and state bookkeeping.
TOL = 1e-9

#: Defaults used when a scenario file omits the corresponding keys.
DEFAULT_DELTA = 0.01
DEFAULT_EPSILON_GAIN = 1e-9

ResourceVector = Tuple[float, ...]


def feasibility_tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


@dataclass(frozen=True)
class UtilitySpec:
    """Per-resource utility: either linear a*x + c or a logistic curve centered at the request."""

    kind: str  # "linear" or "sigmoid"
    a: float = 0.0
    c: float = 0.0
    mu: float = 0.0

    @staticmethod
    def linear(a: float, c: float) -> "UtilitySpec":
        return UtilitySpec(kind="linear", a=a, c=c)

    @staticmethod
    def sigmoid(mu: float) -> "UtilitySpec":
        return UtilitySpec(kind="sigmoid", mu=mu)


def eval_utility(u: UtilitySpec, x: float, r: float) -> float:
    """Utility earned from x units allocated toward a request of r units of one resource type."""
    if u.kind == "linear":
        return u.a * x + u.c
    if u.kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-u.mu * (x - r)))
    raise ValueError(f"unknown utility kind {u.kind!r}")


@dataclass(frozen=True)
class Application:
    id: int
    owner: int
    request: ResourceVector
    utility: UtilitySpec
    weight_w1: float = 1.0


@dataclass(frozen=True)
class Provider:
    id: int
    capacity: ResourceVector
    native_apps: Tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    K: int
    providers: Tuple[Provider, ...]
    applications: Tuple[Application, ...]
    comm_costs: Dict[Tuple[int, int], float] = field(default_factory=dict)
    delta: float = DEFAULT_DELTA
    epsilon_gain: float = DEFAULT_EPSILON_GAIN

    def provider(self, n: int) -> Provider:
        return self._providers_by_id[n]

    def app(self, j: int) -> Application:
        return self._apps_by_id[j]

    def provider_ids(self) -> List[int]:
        return sorted(p.id for p in self.providers)

    def apps_of(self, n: int) -> List[Application]:
        return [self._apps_by_id[j] for j in self._providers_by_id[n].native_apps]

    def comm_d(self, n: int, j: int) -> float:
        return self.comm_costs.get((n, j), 0.0)

    @cached_property
    def _providers_by_id(self) -> Dict[int, Provider]:
        return {p.id: p for p in self.providers}

    @cached_property
    def _apps_by_id(self) -> Dict[int, Application]:
        return {a.id: a for a in self.applications}


def _check_vector(name: str, v: ResourceVector, k: int, out: List[str]) -> None:
    if len(v) != k:
        out.append(f"{name}: length {len(v)} != K={k}")
    for entry in v:
        if not math.isfinite(entry) or entry < 0:
            out.append(f"{name}: entry {entry} must be finite and >= 0")
            break


def validate_scenario(s: Scenario) -> List[str]:
    """Return a list of invariant violations; empty means the scenario is well formed."""
    out: List[str] = []
    if s.K <= 0:
        out.append("K must be > 0")
    if not math.isfinite(s.delta) or s.delta <= 0:
        out.append("delta must be finite and > 0")
    if not math.isfinite(s.epsilon_gain) or s.epsilon_gain < 0:
        out.append("epsilon_gain must be finite and >= 0")

    provider_ids = [p.id for p in s.providers]
    if len(set(provider_ids)) != len(provider_ids):
        out.append("provider ids must be unique")
    app_ids = [a.id for a in s.applications]
    if len(set(app_ids)) != len(app_ids):
        out.append("application ids must be unique")

    owners: Dict[int, int] = {}
    for p in s.providers:
        _check_vector(f"provider {p.id} capacity", p.capacity, s.K, out)
        for j in p.native_apps:
            if j in owners:
                out.append(f"app {j}: multiple owners ({owners[j]} and {p.id})")
            owners[j] = p.id
            if j not in set(app_ids):
                out.append(f"provider {p.id}: unknown native app {j}")

    min_positive_request = math.inf
    for a in s.applications:
        _check_vector(f"app {a.id} request", a.request, s.K, out)
        if not math.isfinite(a.weight_w1) or a.weight_w1 <= 0:
            out.append(f"app {a.id}: weight_w1 must be finite and > 0")
        if a.owner not in set(provider_ids):
            out.append(f"app {a.id}: owner {a.owner} does not exist")
        elif owners.get(a.id) != a.owner:
            out.append(f"app {a.id}: not listed among native apps of owner {a.owner}")
        u = a.utility
        if u.kind == "linear":
            if not math.isfinite(u.a) or u.a < 0:
                out.append(f"app {a.id}: linear utility slope must be finite and >= 0")
            if not math.isfinite(u.c) or u.c < 0:
                out.append(f"app {a.id}: linear utility offset must be finite and >= 0")
        elif u.kind == "sigmoid":
            if not math.isfinite(u.mu) or u.mu <= 0:
                out.append(f"app {a.id}: sigmoid mu must be finite and > 0")
        else:
            out.append(f"app {a.id}: unknown utility kind {u.kind!r}")
        for r in a.request:
            if r > 0:
                min_positive_request = min(min_positive_request, r)

    for (n, j), d in s.comm_costs.items():
        if not math.isfinite(d) or d < 0:
            out.append(f"comm cost ({n},{j}): d must be finite and >= 0")

    if s.delta > 0 and min_positive_request < s.delta:
        out.append(
            f"delta {s.delta} exceeds smallest positive request entry {min_positive_request}"
        )
    return out


@dataclass
class AllocationTensor:
    """Allocation x_{n,k}^j keyed by (provider, application)."""

    entries: Dict[Tuple[int, int], ResourceVector] = field(default_factory=dict)

    def get(self, n: int, j: int, k_count: int) -> ResourceVector:
        return self.entries.get((n, j), (0.0,) * k_count)

    def add(self, n: int, j: int, k: int, amount: float, k_count: int) -> None:
        cur = list(self.entries.get((n, j), (0.0,) * k_count))
        cur[k] += amount
        self.entries[(n, j)] = tuple(cur)

    def total_for_app(self, j: int, k_count: int) -> List[float]:
        totals = [0.0] * k_count
        for (n, jj), vec in self.entries.items():
            if jj == j:
                for k, x in enumerate(vec):
                    totals[k] += x
        return totals

    def used_by_provider(self, n: int, k_count: int) -> List[float]:
        totals = [0.0] * k_count
        for (nn, j), vec in self.entries.items():
            if nn == n:
                for k, x in enumerate(vec):
                    totals[k] += x
        return totals

    def check_feasibility(self, s: Scenario) -> List[str]:
        """Capacity, demand-cap, and nonnegativity violations for this allocation."""
        out: List[str] = []
        for (n, j), vec in self.entries.items():
            for k, x in enumerate(vec):
                if x < -feasibility_tol(x):
                    out.append(f"x[{n},{j},{k}] = {x} is negative")
        for p in s.providers:
            used = self.used_by_provider(p.id, s.K)
            for k in range(s.K):
                if used[k] > p.capacity[k] + feasibility_tol(p.capacity[k]):
                    out.append(
                        f"provider {p.id} resource {k}: used {used[k]} > capacity {p.capacity[k]}"
                    )
        for a in s.applications:
            totals = self.total_for_app(a.id, s.K)
            for k in range(s.K):
                if totals[k] > a.request[k] + feasibility_tol(a.request[k]):
                    out.append(
                        f"app {a.id} resource {k}: allocated {totals[k]} > request {a.request[k]}"
                    )
        return out


@dataclass
class AllocState:
    """Mutable remaining-capacity / remaining-request bookkeeping shared by the algorithms."""

    remaining_capacity: Dict[int, List[float]]
    remaining_request: Dict[int, List[float]]
    allocated: Dict[int, List[float]]  # z: total granted to each app so far

    @staticmethod
    def initial(s: Scenario) -> "AllocState":
        return AllocState(
            remaining_capacity={p.id: list(p.capacity) for p in s.providers},
            remaining_request={a.id: list(a.request) for a in s.applications},
            allocated={a.id: [0.0] * s.K for a in s.applications},
        )

    def apply(self, n: int, j: int, k: int, amount: float) -> None:
        self.remaining_capacity[n][k] -= amount
        self.remaining_request[j][k] -= amount
        self.allocated[j][k] += amount

    def app_has_deficit(self, j: int, k: int | None = None) -> bool:
        """App j still misses more than TOL of resource k (of any resource when k is None)."""
        if k is None:
            return any(r > TOL for r in self.remaining_request[j])
        return self.remaining_request[j][k] > TOL

    def has_deficit(self, s: Scenario, n: int) -> bool:
        return any(self.app_has_deficit(a.id) for a in s.apps_of(n))

    def has_surplus(self, n: int) -> bool:
        return any(c > TOL for c in self.remaining_capacity[n])

    def commit(
        self, s: Scenario, alloc: AllocationTensor, n: int,
        allocation: Dict[Tuple[int, int], float], phase: str,
    ) -> "AllocEvent":
        """Grant provider n's positive amounts in (app, resource) order and record the event."""
        chunks = []
        for (j, k), x in sorted(allocation.items()):
            if x > 0:
                alloc.add(n, j, k, x, s.K)
                self.apply(n, j, k, x)
                chunks.append((j, k, x))
        return AllocEvent(phase=phase, allocator=n, chunks=chunks)

    def copy(self) -> "AllocState":
        return AllocState(
            remaining_capacity={n: list(v) for n, v in self.remaining_capacity.items()},
            remaining_request={j: list(v) for j, v in self.remaining_request.items()},
            allocated={j: list(v) for j, v in self.allocated.items()},
        )


@dataclass
class AllocEvent:
    """One committed allocation step, in commit order: a solo solve or a sharing grant."""

    phase: str  # "solo" or "share"
    allocator: int
    chunks: List[Tuple[int, int, float]]  # (app, resource index, amount)


# --- scenario file format -------------------------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "K": s.K,
        "providers": [
            {"id": p.id, "capacity": list(p.capacity), "native_apps": list(p.native_apps)}
            for p in s.providers
        ],
        "applications": [
            {
                "id": a.id,
                "owner": a.owner,
                "request": list(a.request),
                "utility": _utility_to_dict(a.utility),
                "w1": a.weight_w1,
            }
            for a in s.applications
        ],
        "comm_costs": [
            {"provider": n, "app": j, "d": d} for (n, j), d in sorted(s.comm_costs.items())
        ],
        "delta": s.delta,
        "epsilon_gain": s.epsilon_gain,
    }


def _utility_to_dict(u: UtilitySpec) -> dict:
    if u.kind == "linear":
        return {"kind": "linear", "params": {"a": u.a, "c": u.c}}
    return {"kind": "sigmoid", "params": {"mu": u.mu}}


def _utility_from_dict(d: dict) -> UtilitySpec:
    params = d.get("params", {})
    if d["kind"] == "linear":
        return UtilitySpec.linear(a=params["a"], c=params["c"])
    if d["kind"] == "sigmoid":
        return UtilitySpec.sigmoid(mu=params["mu"])
    raise ValueError(f"unknown utility kind {d['kind']!r}")


def scenario_from_dict(d: dict) -> Scenario:
    providers = tuple(
        Provider(id=p["id"], capacity=tuple(p["capacity"]), native_apps=tuple(p["native_apps"]))
        for p in d["providers"]
    )
    applications = tuple(
        Application(
            id=a["id"],
            owner=a["owner"],
            request=tuple(a["request"]),
            utility=_utility_from_dict(a["utility"]),
            weight_w1=a.get("w1", 1.0),
        )
        for a in d["applications"]
    )
    comm_costs = {
        (c["provider"], c["app"]): c["d"] for c in d.get("comm_costs", [])
    }
    return Scenario(
        K=d["K"],
        providers=providers,
        applications=applications,
        comm_costs=comm_costs,
        delta=d.get("delta", DEFAULT_DELTA),
        epsilon_gain=d.get("epsilon_gain", DEFAULT_EPSILON_GAIN),
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(s: Scenario, path: str, manifest: dict | None = None) -> None:
    d = scenario_to_dict(s)
    if manifest is not None:
        d["manifest"] = manifest
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")
