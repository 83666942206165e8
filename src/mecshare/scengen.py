"""Seeded scenario generation with a fixed cross-language PRNG contract (splitmix64)."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from .model import Application, Provider, Scenario, UtilitySpec

MASK64 = (1 << 64) - 1

#: (number of providers, applications per provider) for each canned setting.
SETTINGS = {
    1: (3, 3),
    2: (3, 20),
    3: (6, 6),
    4: (6, 20),
}

#: Provider ids with a resource deficit in each setting; the rest have a surplus.
DEFICIT_SETS = {
    1: {1},
    2: {1},
    3: {1, 2, 3},
    4: {1, 2, 5},
}

#: Each request entry is drawn from U[REQUEST_LO, REQUEST_HI).
REQUEST_LO, REQUEST_HI = 1.0, 10.0
#: Capacity is this multiple of the provider's own total demand per resource.
DEFICIT_SCALE, SURPLUS_SCALE = 0.5, 1.6
#: Linear utility a*x + c draws a from [LINEAR_A_LO, LINEAR_A_HI) and c from
#: [LINEAR_C_LO, LINEAR_C_HI); every sigmoid utility has slope SIGMOID_MU.
LINEAR_A_LO, LINEAR_A_HI = 0.5, 2.0
LINEAR_C_LO, LINEAR_C_HI = 0.0, 1.0
SIGMOID_MU = 0.01


def prng_next(state: int) -> Tuple[int, int]:
    """One splitmix64 step: returns (output value, next state), all mod 2^64."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31), state


class Stream:
    """Stateful wrapper over the splitmix64 recurrence."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint(self) -> int:
        value, self.state = prng_next(self.state)
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (self.next_uint() / 2.0**64) * (hi - lo)

    def shuffle(self, items: List[int]) -> List[int]:
        """Fisher-Yates over a copy, high index down, j = value mod (i+1)."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.next_uint() % (i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class GenSpec:
    setting: int
    seed: int
    utility_kind: str = "linear"  # "linear" or "sigmoid"

    def validate(self) -> None:
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {sorted(SETTINGS)}")
        if self.utility_kind not in ("linear", "sigmoid"):
            raise ValueError("utility_kind must be 'linear' or 'sigmoid'")


def generate_scenario(spec: GenSpec) -> Scenario:
    """Deterministically generate a 3-resource scenario for the given setting and seed.

    The draw order is part of the contract: providers ascending, apps ascending,
    the K request entries ascending, then the app's utility parameters.
    """
    spec.validate()
    n_providers, apps_per = SETTINGS[spec.setting]
    deficit = DEFICIT_SETS[spec.setting]
    k_count = 3
    rng = Stream(spec.seed)

    providers: List[Provider] = []
    applications: List[Application] = []
    next_app_id = 1
    for n in range(1, n_providers + 1):
        native: List[int] = []
        demand = [0.0] * k_count
        for _ in range(apps_per):
            request = tuple(
                rng.uniform(REQUEST_LO, REQUEST_HI) for _ in range(k_count)
            )
            if spec.utility_kind == "linear":
                a = rng.uniform(LINEAR_A_LO, LINEAR_A_HI)
                c = rng.uniform(LINEAR_C_LO, LINEAR_C_HI)
                utility = UtilitySpec.linear(a=a, c=c)
            else:
                utility = UtilitySpec.sigmoid(mu=SIGMOID_MU)
            applications.append(
                Application(id=next_app_id, owner=n, request=request, utility=utility)
            )
            native.append(next_app_id)
            next_app_id += 1
            for k in range(k_count):
                demand[k] += request[k]
        scale = DEFICIT_SCALE if n in deficit else SURPLUS_SCALE
        capacity = tuple(scale * demand[k] for k in range(k_count))
        providers.append(Provider(id=n, capacity=capacity, native_apps=tuple(native)))

    return Scenario(K=k_count, providers=tuple(providers), applications=tuple(applications))


def with_comm_costs(s: Scenario, seed: int) -> Scenario:
    """`s` with a cost d ~ U[0, 0.5) for every provider serving every remote app.

    The draws follow provider order, then app order, from `Stream(seed)`.
    """
    rng = Stream(seed)
    costs = {
        (p.id, a.id): rng.uniform(0.0, 0.5)
        for p in s.providers
        for a in s.applications
        if a.owner != p.id
    }
    return replace(s, comm_costs=costs)
