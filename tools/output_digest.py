"""Print one SHA-256 over every output mecshare computes on a fixed scenario grid.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/output_digest.py

The package is imported from PYTHONPATH, so pointing it at another checkout's
``src`` digests that checkout with the same grid and the same serialization.
Two checkouts that print the same digest computed the same bits. The value
this checkout must print is pinned in ``tests/test_output_digest.py``. The
tool imports only the package and the standard library, so it runs on an
interpreter without pytest.

The grid is settings 1-4 x seeds 1-8 x both utilities, each without and with
communication costs (``mecshare.scengen.with_comm_costs``). Per scenario it
covers the solo phase, GPOA under cao:k=0, cdo:k=0 and random:seed=<seed>, and
PPMPOA: payoffs, surplus order, event log, allocation, metrics and realized
payoffs, plus PPMPOA's matches and stability replay. Setting-1 and setting-3
scenarios also cover the swept and unswept GPOA enumerations and the PPMPOA
enumeration under cdo:k=0, and the unswept GPOA enumeration under
random:seed=<seed>, whose coalition orders are no filter of the full order,
each with its verdicts. Floats enter as their hex form and dicts in
their insertion order, so any change of a bit or of an order shows.
"""
from __future__ import annotations

import dataclasses
import hashlib

from mecshare.game import (
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    enumerate_coalitions,
    realized_payoffs,
)
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa, run_solo_phase
from mecshare.metrics import compute_metrics
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs

GRID = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in range(1, 9)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


def canon(value):
    """`value` with floats as hex strings, dicts as item lists and dataclasses as field lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(canon(k), canon(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if dataclasses.is_dataclass(value):
        return [(f.name, canon(getattr(value, f.name))) for f in dataclasses.fields(value)]
    return value


def run_record(s, result) -> list:
    return [
        {n: (p.v_solo, p.sharing, p.bonus, p.total) for n, p in result.payoffs.items()},
        result.order_used,
        [(ev.phase, ev.allocator, ev.chunks) for ev in result.events],
        result.allocation.entries,
        result.matches,
        compute_metrics(s, result.allocation),
        realized_payoffs(s, result.events),
    ]


def enumeration_record(s, algorithm: str, sweep: bool, scheme=OrderingScheme.cdo(0)) -> list:
    report = enumerate_coalitions(s, scheme, algorithm, sweep_orders=sweep)
    checks = (check_superadditivity, check_rationality, check_no_blocking_coalition)
    return [
        [(sorted(members), e.value, e.payoffs, e.order_used, e.candidates)
         for members, e in report.entries.items()],
        [check(report) for check in checks],
    ]


def scenario_record(setting: int, seed: int, utility: str, costs: bool) -> list:
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    _, solo_alloc, solo_payoffs, solo_events = run_solo_phase(s)
    out = [
        (setting, seed, utility, costs),
        partition_players(s),
        {n: p.v_solo for n, p in solo_payoffs.items()},
        [(ev.phase, ev.allocator, ev.chunks) for ev in solo_events],
        solo_alloc.entries,
        compute_metrics(s, solo_alloc),
    ]
    for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(seed)):
        out.append(run_record(s, run_gpoa(s, scheme)))
    ppm = run_ppmpoa(s)
    out.append(run_record(s, ppm))
    out.append(check_matching_stability(ppm, s))
    if setting in (1, 3):
        for algorithm, sweep in (("gpoa", True), ("gpoa", False), ("ppmpoa", False)):
            out.append(enumeration_record(s, algorithm, sweep))
        out.append(enumeration_record(s, "gpoa", False, OrderingScheme.random(seed)))
    return out


def main() -> None:
    digest = hashlib.sha256()
    for cell in GRID:
        digest.update(repr(canon(scenario_record(*cell))).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
