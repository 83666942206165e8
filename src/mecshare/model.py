"""Domain types: providers, applications, utilities, allocations, and feasibility checks."""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

#: Defaults used when a scenario file omits the corresponding keys.
DEFAULT_DELTA = 0.01
DEFAULT_EPSILON_GAIN = 1e-9

#: Cap on the sum of r/delta over all positive request entries. It bounds every
#: request at 10**7 * delta, which keeps `Scenario.tol` (delta * 1e-7) far above
#: the rounding of any granted amount; files needing ~5e9 steps passed a
#: capacity by more than `tol` (23652445.220860653 used of 23652445.22086065).
MAX_DELTA_STEPS = 10**7

ResourceVector = Tuple[float, ...]


def lsum(values: Iterable[float]) -> float:
    """The sum of `values`, added left to right from 0.0: the one rule for a float sum.

    Every float sum in the package goes through it, so each output has the same
    bits on every supported Python: the builtin `sum` compensates since 3.12.
    """
    return reduce(operator.add, values, 0.0)


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
        try:
            return 1.0 / (1.0 + math.exp(-u.mu * (x - r)))
        except OverflowError:  # exp(t) for t above ~709.8: 1 / (1 + inf) is 0.0
            return 0.0
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

    def restrict(self, members: FrozenSet[int]) -> Scenario:
        """The sub-scenario of `members`, which keeps their solo records."""
        providers = tuple(p for p in self.providers if p.id in members)
        app_ids = {j for p in providers for j in p.native_apps}
        comm = {(n, j): d for (n, j), d in self.comm_costs.items() if n in members and j in app_ids}
        applications = tuple(a for a in self.applications if a.id in app_ids)
        sub = replace(self, providers=providers, applications=applications, comm_costs=comm)
        sub.__dict__["post_solo"] = {n: r for n, r in self.post_solo.items() if n in members}
        return sub

    @cached_property
    def tol(self) -> float:
        """The one tolerance on resource amounts: δ·10⁻⁷, which is 1e-9 at δ = 0.01.

        An amount at or below it is no deficit or surplus (`AllocState.deficit_apps`
        and `has_surplus`, the gap test of `subsolver.build_share_spec`, PPMPOA's
        stop rule) and no fragment (`metrics`); an allocation may go below 0 or past
        a request or a capacity by it (`AllocationTensor.check_feasibility`), and a
        gap the replay leaves within it is closed (`game.realized_payoffs`). The
        allocator charges each run of δ-steps against the capacity once, so its
        grants stay within a few roundings of the capacity, far inside `tol`.
        """
        return self.delta / 1e7

    @cached_property
    def _providers_by_id(self) -> Dict[int, Provider]:
        return {p.id: p for p in self.providers}

    @cached_property
    def _apps_by_id(self) -> Dict[int, Application]:
        return {a.id: a for a in self.applications}

    @cached_property
    def post_solo(self) -> Dict[int, SoloRecord]:
        """Each provider's solo record, in provider id order, built once by `gpoa.build_post_solo`.

        A record depends on its provider alone, so `restrict` hands a coalition its members'
        records; a scenario built by `dataclasses.replace` builds its own.
        """
        from .gpoa import build_post_solo  # gpoa imports this module

        return build_post_solo(self)


def _check_vector(name: str, v: ResourceVector, k: int | None, out: List[str]) -> None:
    """Entries finite and >= 0, and the length k unless k is None (an invalid K)."""
    if k is not None and len(v) != k:
        out.append(f"{name}: length {len(v)} != K={k}")
    for entry in v:
        if not _is_finite(entry) or entry < 0:
            out.append(f"{name}: entry {entry} must be finite and >= 0")
            break


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite int or float within float range; a bool is not a number here."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def validate_scenario(s: Scenario) -> List[str]:
    """Return a list of invariant violations; empty means the scenario is well formed."""
    out: List[str] = []
    k = s.K if _is_int(s.K) and s.K > 0 else None
    if k is None:
        out.append("K must be an integer > 0")
    if not _is_finite(s.delta) or s.delta <= 0:
        out.append("delta must be finite and > 0")
    if not _is_finite(s.epsilon_gain) or s.epsilon_gain < 0:
        out.append("epsilon_gain must be finite and >= 0")

    provider_ids = [p.id for p in s.providers]
    if not provider_ids:
        out.append("scenario has no providers")
    provider_set = set(provider_ids)
    if len(provider_set) != len(provider_ids):
        out.append("provider ids must be unique")
    app_ids = [a.id for a in s.applications]
    app_set = set(app_ids)
    if len(app_set) != len(app_ids):
        out.append("application ids must be unique")
    for p in s.providers:
        if not _is_int(p.id) or not all(_is_int(j) for j in p.native_apps):
            out.append(f"provider {p.id!r}: id and native apps must be integers")
    for a in s.applications:
        if not _is_int(a.id) or not _is_int(a.owner):
            out.append(f"app {a.id!r}: id and owner must be integers")

    owners: Dict[int, int] = {}
    for p in s.providers:
        _check_vector(f"provider {p.id} capacity", p.capacity, k, out)
        for j in p.native_apps:
            if j in owners:
                out.append(f"app {j}: multiple owners ({owners[j]} and {p.id})")
            owners[j] = p.id
            if j not in app_set:
                out.append(f"provider {p.id}: unknown native app {j}")

    min_positive_request = math.inf
    for a in s.applications:
        _check_vector(f"app {a.id} request", a.request, k, out)
        if not _is_finite(a.weight_w1) or a.weight_w1 <= 0:
            out.append(f"app {a.id}: weight_w1 must be finite and > 0")
        if a.owner not in provider_set:
            out.append(f"app {a.id}: owner {a.owner} does not exist")
        elif owners.get(a.id) != a.owner:
            out.append(f"app {a.id}: not listed among native apps of owner {a.owner}")
        u = a.utility
        if u.kind == "linear":
            if not _is_finite(u.a) or u.a < 0:
                out.append(f"app {a.id}: linear utility slope must be finite and >= 0")
            if not _is_finite(u.c) or u.c < 0:
                out.append(f"app {a.id}: linear utility offset must be finite and >= 0")
        elif u.kind == "sigmoid":
            if not _is_finite(u.mu) or u.mu <= 0:
                out.append(f"app {a.id}: sigmoid mu must be finite and > 0")
        else:
            out.append(f"app {a.id}: unknown utility kind {u.kind!r}")
        for r in a.request:
            if _is_finite(r) and r > 0:  # `_check_vector` names any other entry
                min_positive_request = min(min_positive_request, r)

    for (n, j), d in s.comm_costs.items():
        if not (_is_int(n) and _is_int(j) and n in provider_set and j in app_set):
            out.append(f"comm cost ({n!r},{j!r}): provider and app must be ids in the scenario")
        elif owners.get(j) == n:
            out.append(f"comm cost ({n},{j}): app {j} is native to provider {n}")
        if not _is_finite(d) or d < 0:
            out.append(f"comm cost ({n},{j}): d must be finite and >= 0")

    if s.delta > 0 and min_positive_request < s.delta:
        out.append(
            f"delta {s.delta} exceeds smallest positive request entry {min_positive_request}"
        )
    if not out:
        demanded = [(a, r) for a in s.applications for r in a.request if r > 0]
        # Utilities are non-decreasing, so this total bounds every objective.
        try:
            full = lsum(a.weight_w1 * eval_utility(a.utility, r, r) for a, r in demanded)
        except OverflowError:  # a float times an int product beyond float range
            full = math.inf
        if not _is_finite(full):
            out.append("total utility at full satisfaction is not finite")
        steps = lsum(r / s.delta for _, r in demanded)
        if steps > MAX_DELTA_STEPS:
            out.append(f"requests need {steps:.3g} delta-steps, over the cap of {MAX_DELTA_STEPS}")
    return out


def validate_allocation(s: Scenario, alloc: AllocationTensor) -> List[str]:
    """A stored allocation's problems: bad keys and vectors, else `check_feasibility`'s."""
    out: List[str] = []
    for (n, j), vec in alloc.entries.items():
        if n not in s._providers_by_id:
            out.append(f"x[{n},{j}]: unknown provider {n}")
        if j not in s._apps_by_id:
            out.append(f"x[{n},{j}]: unknown app {j}")
        _check_vector(f"x[{n},{j}]", vec, s.K, out)
    return out or alloc.check_feasibility(s)


@dataclass
class AllocationTensor:
    """Allocation x_{n,k}^j keyed by (provider, application)."""

    entries: Dict[Tuple[int, int], ResourceVector] = field(default_factory=dict)

    def add(self, n: int, j: int, k: int, amount: float, k_count: int) -> None:
        cur = list(self.entries.get((n, j), (0.0,) * k_count))
        cur[k] += amount
        self.entries[(n, j)] = tuple(cur)

    @classmethod
    def from_events(cls, events: Iterable[AllocEvent], k_count: int) -> "AllocationTensor":
        """Every chunk of the log added in order: the same sums, and entry order, as `add`."""
        sums: Dict[Tuple[int, int], List[float]] = {}
        for ev in events:
            for j, k, x in ev.chunks:
                sums.setdefault((ev.allocator, j), [0.0] * k_count)[k] += x
        return cls({key: tuple(vec) for key, vec in sums.items()})

    def totals(self, k_count: int) -> Tuple[Dict[int, List[float]], Dict[int, List[float]]]:
        """Per-app and per-provider sums over all entries, built in one pass in insertion order."""
        by_app: Dict[int, List[float]] = {}
        by_provider: Dict[int, List[float]] = {}
        for (n, j), vec in self.entries.items():
            app_totals = by_app.setdefault(j, [0.0] * k_count)
            provider_totals = by_provider.setdefault(n, [0.0] * k_count)
            for k, x in enumerate(vec):
                app_totals[k] += x
                provider_totals[k] += x
        return by_app, by_provider

    def check_feasibility(self, s: Scenario) -> List[str]:
        """Negative entries, and capacities and requests passed, beyond the scenario's `tol`."""
        out: List[str] = []
        for (n, j), vec in self.entries.items():
            for k, x in enumerate(vec):
                if x < -s.tol:
                    out.append(f"x[{n},{j},{k}] = {x} is negative")
        by_app, by_provider = self.totals(s.K)
        zeros = [0.0] * s.K
        for p in s.providers:
            used = by_provider.get(p.id, zeros)
            for k, cap in enumerate(p.capacity):
                if used[k] > cap + s.tol:
                    out.append(f"provider {p.id} resource {k}: used {used[k]} > capacity {cap}")
        for a in s.applications:
            totals = by_app.get(a.id, zeros)
            for k, r in enumerate(a.request):
                if totals[k] > r + s.tol:
                    out.append(f"app {a.id} resource {k}: allocated {totals[k]} > request {r}")
        return out


@dataclass
class AllocState:
    """One run's record: remaining capacity, granted totals z (an app misses r - z), the events."""

    remaining_capacity: Dict[int, List[float]]
    allocated: Dict[int, List[float]]  # z: total granted to each app so far
    events: List[AllocEvent] = field(default_factory=list)

    def deficit_apps(self, s: Scenario, providers: Iterable[int]) -> List[int]:
        """Apps of `providers` missing more than `s.tol` of a resource, in provider then app order."""
        z, tol = self.allocated, s.tol
        return [a.id for n in providers for a in s.apps_of(n)
                if max(map(operator.sub, a.request, z[a.id])) > tol]

    def has_surplus(self, s: Scenario, n: int) -> bool:
        return max(self.remaining_capacity[n]) > s.tol

    def commit(self, n: int, allocation: Mapping[Tuple[int, int], float], phase: str) -> AllocEvent:
        """Grant provider n's positive amounts, in the allocation's order.

        The solvers build allocations in (app, resource) order, and grants are
        recorded and replayed in commit order. Each grant lands in the remaining
        capacity, `allocated` and the returned event, the run's one record.
        """
        chunks = []
        for (j, k), x in allocation.items():
            if x > 0:
                self.remaining_capacity[n][k] -= x
                self.allocated[j][k] += x
                chunks.append((j, k, x))
        event = AllocEvent(phase=phase, allocator=n, chunks=tuple(chunks))
        self.events.append(event)
        return event


@dataclass(frozen=True)
class AllocEvent:
    """One committed allocation step, in commit order: a solo solve or a sharing grant."""

    phase: str  # "solo" or "share"
    allocator: int
    chunks: Tuple[Tuple[int, int, float], ...]  # (app, resource index, amount)


@dataclass(frozen=True)
class SoloRecord:
    """One provider's solo phase: its solve committed to its own capacity and apps.

    A solo solve reads only the provider's capacity, its own apps, K, delta
    and epsilon_gain, so the record depends on that provider alone.
    """

    v_solo: float
    remaining_capacity: ResourceVector
    allocated: Dict[int, ResourceVector]  # z, by native app
    event: AllocEvent  # the solo commit, shared by every run of the scenario
    deficit: bool  # some native app still misses a resource
    surplus: bool  # some capacity is left


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


def _utility_from_dict(app, d) -> UtilitySpec:
    """`d` as a UtilitySpec; a malformed `d` raises a ValueError naming the app and the field."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"app {app!r}: utility must be an object with a 'kind'")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"app {app!r}: utility params must be an object")
    try:
        if d["kind"] == "linear":
            return UtilitySpec.linear(a=params["a"], c=params["c"])
        if d["kind"] == "sigmoid":
            return UtilitySpec.sigmoid(mu=params["mu"])
    except KeyError as exc:
        raise ValueError(f"app {app!r}: utility params lack {exc}") from None
    return UtilitySpec(kind=d["kind"])  # `validate_scenario` names the app


def _json_kind(value) -> str:
    """The JSON name of a loaded value's type, or its Python type name for a scalar."""
    if value is None:
        return "null"
    return "object" if isinstance(value, dict) else type(value).__name__


def require_object(value, what: str) -> dict:
    """`value` if it is a JSON object; else a ValueError naming what was found."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {_json_kind(value)}")
    return value


def _list(value, path: str, objects: bool = False) -> list:
    """`value` if a JSON list (of objects if `objects`); else a ValueError naming `path`."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list, got {_json_kind(value)}")
    for i, item in enumerate(value if objects else ()):
        if not isinstance(item, dict):
            raise ValueError(f"{path}[{i}]: expected an object, got {_json_kind(item)}")
    return value


def scenario_from_dict(d: dict) -> Scenario:
    require_object(d, "scenario")
    providers = tuple(
        Provider(p["id"], tuple(_list(p["capacity"], f"providers[{i}].capacity")),
                 tuple(_list(p["native_apps"], f"providers[{i}].native_apps")))
        for i, p in enumerate(_list(d["providers"], "providers", objects=True))
    )
    applications = tuple(
        Application(
            id=a["id"],
            owner=a["owner"],
            request=tuple(_list(a["request"], f"applications[{i}].request")),
            utility=_utility_from_dict(a["id"], a["utility"]),
            weight_w1=a.get("w1", 1.0),
        )
        for i, a in enumerate(_list(d["applications"], "applications", objects=True))
    )
    comm_costs = {}
    for c in _list(d.get("comm_costs", []), "comm_costs", objects=True):
        key = (c["provider"], c["app"])
        if key in comm_costs:
            raise ValueError(f"comm cost ({key[0]!r},{key[1]!r}) is listed twice")
        comm_costs[key] = c["d"]
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


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")
