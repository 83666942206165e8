"""A run's allocation tensor is derived from its event log, only when it is read.

The reference below is the tensor as it was built while runs committed: the
solo entries taken from each owner's `allocated` tuple, then every share
chunk added at commit time with `AllocationTensor.add`'s code, kept verbatim.
The derived tensor must give the same values in the same entry order.
"""
import math
from typing import Dict, Tuple

import pytest

from mecshare.game import enumerate_coalitions
from mecshare.gpoa import OrderingScheme, run_gpoa, run_solo_phase
from mecshare.model import AllocState, AllocationTensor
from mecshare.ppmpoa import run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario

from conftest import make_scenario, with_comm_costs


def reference_add(entries, n: int, j: int, k: int, amount: float, k_count: int) -> None:
    cur = list(entries.get((n, j), (0.0,) * k_count))
    cur[k] += amount
    entries[(n, j)] = tuple(cur)


def reference_solo_entries(s) -> Dict[Tuple[int, int], tuple]:
    return {
        (n, j): rec.allocated[j] for n, rec in s.post_solo.items() for j, _, _ in rec.event.chunks
    }


def reference_run_entries(s, result) -> Dict[Tuple[int, int], tuple]:
    """The solo entries, then each share commit's chunks added as the commit made them."""
    entries = reference_solo_entries(s)
    for ev in result.events:
        if ev.phase == "share":
            for j, k, x in ev.chunks:
                reference_add(entries, ev.allocator, j, k, x, s.K)
    return entries


SCENARIOS = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in (1, 2, 3, 4)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", SCENARIOS,
    ids=[f"s{st}-seed{sd}-{u}-{'costs' if c else 'free'}" for st, sd, u, c in SCENARIOS],
)
def test_derived_tensor_equals_the_commit_time_tensor(setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    solo = run_solo_phase(s)[1]
    assert list(solo.entries.items()) == list(reference_solo_entries(s).items())
    runs = [run_gpoa(s, scheme) for scheme in (
        OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(seed)
    )] + [run_ppmpoa(s)]
    for result in runs:
        want = reference_run_entries(s, result)
        assert list(result.allocation.entries.items()) == list(want.items())
        assert result.allocation is result.allocation  # derived once


def counting_builds(monkeypatch):
    """Count tensor derivations and `AllocationTensor.add` calls."""
    calls = []
    from_events, add = AllocationTensor.from_events, AllocationTensor.add

    def counting_from_events(events, k_count):
        calls.append("from_events")
        return from_events(events, k_count)

    def counting_add(self, *args):
        calls.append("add")
        return add(self, *args)

    monkeypatch.setattr(AllocationTensor, "from_events", staticmethod(counting_from_events))
    monkeypatch.setattr(AllocationTensor, "add", counting_add)
    return calls


@pytest.mark.parametrize("algorithm,sweep", [("gpoa", True), ("gpoa", False), ("ppmpoa", False)])
def test_an_enumeration_builds_no_tensor(monkeypatch, algorithm, sweep):
    s = generate_scenario(GenSpec(setting=3, seed=1, utility_kind="linear"))
    calls = counting_builds(monkeypatch)
    report = enumerate_coalitions(s, OrderingScheme.cdo(0), algorithm, sweep_orders=sweep)
    assert len(report.entries) == 2 ** len(s.provider_ids()) - 1
    assert calls == []
    result = run_gpoa(s, OrderingScheme.cdo(0))
    assert calls == []
    assert result.allocation is result.allocation
    assert calls == ["from_events"]


S = make_scenario([], [], delta=0.01)
TOL = S.tol
ABOVE = math.nextafter(TOL, math.inf)
BELOW = math.nextafter(TOL, 0.0)
VECTORS = [  # (vector, some entry above TOL)
    ([TOL], False), ([ABOVE], True), ([BELOW], False), ([0.0], False), ([-1.0], False),
    ([TOL, TOL], False), ([0.0, ABOVE], True), ([ABOVE, 0.0], True),
    ([TOL, BELOW, 0.0], False), ([-TOL, TOL, ABOVE], True), ([2 * TOL, -5.0], True),
    ([1.0, 0.0, TOL], True),
]


@pytest.mark.parametrize("vec,above", VECTORS, ids=[repr(v) for v, _ in VECTORS])
def test_the_max_rule_is_the_any_rule_at_the_tol_boundary(vec, above):
    state = AllocState(
        remaining_capacity={1: list(vec)},
        remaining_request={7: list(vec)},
        allocated={7: [0.0] * len(vec)},
    )
    assert any(x > TOL for x in vec) is above
    assert state.app_has_deficit(S, 7) is above
    assert state.has_surplus(S, 1) is above
