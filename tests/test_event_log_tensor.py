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
from mecshare.model import AllocState, AllocationTensor, Provider
from mecshare.ppmpoa import run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import build_share_spec

from conftest import linear_app, make_scenario


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


ORDER_INPUTS = [
    (setting, utility, costs)
    for setting in (1, 2, 3, 4)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,utility,costs", ORDER_INPUTS,
    ids=[f"s{st}-{u}-{'costs' if c else 'free'}" for st, u, c in ORDER_INPUTS],
)
def test_every_event_grants_in_app_then_resource_order(setting, utility, costs):
    # Neither `AllocState.commit` nor `realized_payoffs` sorts: the solver's
    # allocation order is the order in which grants are recorded and replayed.
    s = generate_scenario(GenSpec(setting=setting, seed=1, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, setting)
    for result in (run_gpoa(s, OrderingScheme.cdo(0)), run_ppmpoa(s)):
        assert any(len(ev.chunks) > 1 for ev in result.events)
        for ev in result.events:
            keys = [(j, k) for j, k, _ in ev.chunks]
            assert keys == sorted(set(keys)), ev


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


TOL = make_scenario([], [], delta=0.01).tol
ABOVE = math.nextafter(TOL, math.inf)
BELOW = math.nextafter(TOL, 0.0)
PAIRS = [  # (request, z, some entry misses more than TOL); each r - z is exact
    ([2 * TOL], [TOL], False), ([2 * ABOVE], [ABOVE], True), ([2 * BELOW], [BELOW], False),
    ([1.0], [1.0], False), ([1.0], [2.0], False),
    ([TOL, 2 * TOL], [0.0, TOL], False), ([0.5, 2 * ABOVE], [0.5, ABOVE], True),
    ([ABOVE, 0.0], [0.0, 0.0], True), ([2 * TOL, BELOW, 3.0], [TOL, 0.0, 3.0], False),
    ([0.0, TOL, 2 * ABOVE], [TOL, 0.0, ABOVE], True), ([4 * TOL, 1.0], [2 * TOL, 6.0], True),
    ([4.0, 2.0, 2 * TOL], [3.0, 2.0, TOL], True),
]


def _gaps(request, z):
    return [r - x for r, x in zip(request, z)]


@pytest.mark.parametrize(
    "request_,z,above", PAIRS, ids=[repr(_gaps(r, z)) for r, z, _ in PAIRS]
)
def test_the_max_rule_is_the_any_rule_at_the_tol_boundary(request_, z, above):
    # An entry with z > r is over-granted: it misses a negative amount.
    missing = _gaps(request_, z)
    s = make_scenario(
        [Provider(id=1, capacity=tuple(missing), native_apps=(7,))],
        [linear_app(7, owner=1, request=request_)],
        K=len(missing),
    )
    state = AllocState(remaining_capacity={1: list(missing)}, allocated={7: list(z)})
    assert any(x > TOL for x in missing) is above
    assert state.deficit_apps(s, [1]) == ([7] if above else [])
    # The per-resource rule: the share spec has an item for each resource missing more than TOL.
    items = build_share_spec(s, 1, state, [7]).items
    assert [it.k for it in items] == [k for k, x in enumerate(missing) if x > TOL]
    assert state.has_surplus(s, 1) is above
