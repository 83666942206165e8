"""check_superadditivity against a frozen copy of its all-ordered-pairs predecessor.

The reference below is the O(4^n) loop as it was before the check enumerated
each S1's complement submasks, kept verbatim. The verdict and the witness list,
order included, must be equal on every table.
"""
import math
import random

import pytest

from mecshare.game import (
    PROPERTY_TOL,
    CoalitionEntry,
    CoalitionReport,
    PropertyVerdict,
    _coalitions_by_bitset,
    check_superadditivity,
)


def reference_check_superadditivity(report: CoalitionReport) -> PropertyVerdict:
    """v(S1 ∪ S2) ≥ v(S1) + v(S2) for every disjoint nonempty pair."""
    witnesses = []
    coalitions = list(report.entries)
    for s1 in coalitions:
        for s2 in coalitions:
            if s1 & s2 or min(s1) > min(s2):
                continue
            union_value = report.entries[s1 | s2].value
            tol = PROPERTY_TOL * (1 + abs(union_value))
            if union_value < report.entries[s1].value + report.entries[s2].value - tol:
                witnesses.append((sorted(s1), sorted(s2), union_value))
    return PropertyVerdict(name="superadditivity", passed=not witnesses, witnesses=witnesses)


def edge_value(a: float, b: float) -> float:
    """The smallest union value u that the check accepts against parts a and b.

    u passes (u >= a + b - tol(u)) and the next float below it fails.
    """
    fails = lambda u: u < a + b - PROPERTY_TOL * (1 + abs(u))  # noqa: E731
    u = a + b - PROPERTY_TOL * (1 + abs(a + b))
    while fails(u):
        u = math.nextafter(u, math.inf)
    while not fails(math.nextafter(u, -math.inf)):
        u = math.nextafter(u, -math.inf)
    return u


def report_from(ids, values) -> CoalitionReport:
    entries = {
        c: CoalitionEntry(value=values[c], payoffs={}, order_used=[], candidates=[])
        for c in _coalitions_by_bitset(ids)
    }
    return CoalitionReport(entries=entries, provider_ids=list(ids))


def synthetic_report(n: int, seed: int, bonus_lo: float) -> CoalitionReport:
    """Values near the sum of the member ids, with some unions set on the tolerance edge.

    Edges are written smallest coalitions first, so no later edit moves the
    parts of an earlier edge. Half of them sit one float below the edge.
    """
    rng = random.Random(seed)
    ids = [3 * i + 2 for i in range(n)]  # neither 0-based nor contiguous
    coalitions = _coalitions_by_bitset(ids)
    values = {c: sum(c) + rng.uniform(bonus_lo, 3.0) * (len(c) - 1) for c in coalitions}
    pairs = [c for c in coalitions if len(c) > 1]
    for c in sorted(rng.sample(pairs, min(len(pairs), 60)), key=len):
        members = sorted(c)
        s1 = frozenset(rng.sample(members, rng.randint(1, len(members) - 1)))
        u = edge_value(values[s1], values[c - s1])
        values[c] = u if rng.random() < 0.5 else math.nextafter(u, -math.inf)
    return report_from(ids, values)


@pytest.mark.parametrize("n", range(1, 13))
def test_equals_reference_on_synthetic_tables(n):
    # Odd sizes draw values that are often not superadditive, even sizes only
    # miss at the edited edges. The 12-provider reference alone takes seconds.
    report = synthetic_report(n, seed=1000 + n, bonus_lo=-1.0 if n % 2 else 0.0)
    assert check_superadditivity(report) == reference_check_superadditivity(report)


def test_tolerance_edge_is_inclusive():
    ids = [4, 9]
    solo = {frozenset({4}): 1.25, frozenset({9}): 7.5}
    u = edge_value(1.25, 7.5)
    for union, passed in ((u, True), (math.nextafter(u, -math.inf), False)):
        report = report_from(ids, {**solo, frozenset(ids): union})
        verdict = check_superadditivity(report)
        assert verdict == reference_check_superadditivity(report)
        assert verdict.passed is passed
        assert verdict.witnesses == ([] if passed else [([4], [9], union)])


def test_superadditive_table_passes():
    ids = [1, 2, 3, 4, 5]
    values = {c: sum(c) + 0.5 * (len(c) - 1) for c in _coalitions_by_bitset(ids)}
    report = report_from(ids, values)
    assert check_superadditivity(report) == PropertyVerdict("superadditivity", True, [])
