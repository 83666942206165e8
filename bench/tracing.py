"""Span tracer that wraps mecshare's public functions from outside the package.

The package's modules import names directly (``from .gpoa import run_solo_phase``),
so a function is replaced in every ``mecshare.*`` namespace that holds it, and
restored by ``uninstall``.  Spans (name, start, end, parent, op id) and counts
are kept in memory; ``summary`` turns them into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A span name of None wraps the function for
# its count hook only.  "Class.method" patches the method on the class.
LAYERS = [
    ("subsolver", "allocate_greedy", None),
    ("subsolver", "solve_single_provider", "subsolver.solo"),
    ("subsolver", "solve_surplus_share", "subsolver.share"),
    ("gpoa", "run_solo_phase", "gpoa.solo_phase"),
    ("gpoa", "run_gpoa", "gpoa.share_loop"),
    ("ppmpoa", "run_ppmpoa", "ppmpoa.run"),
    ("ppmpoa", "build_matching_matrix", "ppmpoa.matrix"),
    ("ppmpoa", "check_matching_stability", "ppmpoa.stability"),
    ("game", "enumerate_coalitions", "game.enumerate"),
    ("game", "check_superadditivity", "game.checks"),
    ("game", "check_rationality", "game.checks"),
    ("game", "check_no_blocking_coalition", "game.checks"),
    ("game", "realized_payoffs", "game.replay"),
    ("game", "misreport_experiment", "game.misreport"),
    ("metrics", "compute_metrics", "metrics.compute"),
    ("model", "load_scenario", "model.load"),
    ("model", "save_scenario", "model.save"),
    ("model", "validate_scenario", "model.validate"),
    ("model", "AllocationTensor.check_feasibility", "model.feasibility"),
    ("scengen", "generate_scenario", "scengen.generate"),
    ("cli", "main", "cli.main"),
]

SPAN_NAMES = sorted({span for _, _, span in LAYERS if span})

# Counters that summary() turns into ratios: name -> (numerator, denominator).
RATIOS = {
    "subsolver.share.kept_frac": ("subsolver.share.kept", "subsolver.share.granted"),
    "gpoa.solo_phase.distinct_frac": ("subsolver.solo.distinct", "subsolver.solo.calls"),
}

# Counters the hooks add up, with their units.
COUNTERS = {
    "subsolver.solo.items": "count",
    "subsolver.solo.grant_units": "delta",
    "subsolver.share.items": "count",
    "subsolver.share.grant_units": "delta",
    "ppmpoa.rounds": "count",
    "ppmpoa.matrix.cells": "count",
    "ppmpoa.stability.cells": "count",
    "game.coalitions": "count",
    "game.candidates": "count",
}


def _nonzero(allocation) -> int:
    return sum(1 for x in allocation.values() if x > 0)


def _provider_key(s, n):
    """Everything a provider's solo solve reads: its capacity and its own apps."""
    apps = tuple((a.id, a.request, a.utility, a.weight_w1) for a in s.apps_of(n))
    return (n, s.provider(n).capacity, apps, s.K, s.delta, s.epsilon_gain)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._patches = []
        self._solo_keys = set()
        self._solo_keys_op = None
        self.missing = []

    # --- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # --- count hooks: read inputs and outputs, never change them ------------

    def _hook(self, attr, args, result):
        c = self.counts
        if attr == "allocate_greedy":
            spec = args[0]
            c[f"subsolver.{spec.kind}.items"] += len(spec.items)
            if spec.kind == "share":
                # Grants before _rollback_uncovered_cost zeroes any of them.
                c["subsolver.share.granted"] += _nonzero(result.allocation)
        elif attr == "solve_single_provider":
            s, n = args[0], args[1]
            c["subsolver.solo.grant_units"] += sum(result.allocation.values()) / s.delta
            if self._solo_keys_op != self.op:
                self._solo_keys, self._solo_keys_op = set(), self.op
            key = _provider_key(s, n)
            if key not in self._solo_keys:
                self._solo_keys.add(key)
                c["subsolver.solo.distinct"] += 1
        elif attr == "solve_surplus_share":
            s = args[0]
            c["subsolver.share.grant_units"] += sum(result.allocation.values()) / s.delta
            c["subsolver.share.kept"] += _nonzero(result.allocation)
        elif attr == "run_ppmpoa":
            c["ppmpoa.rounds"] += result.rounds
        elif attr == "build_matching_matrix":
            c["ppmpoa.matrix.cells"] += len(result.J)
            if self.inside("ppmpoa.stability"):
                c["ppmpoa.stability.cells"] += len(result.J)
        elif attr == "enumerate_coalitions":
            c["game.coalitions"] += len(result.entries)
            c["game.candidates"] += sum(len(e.candidates) for e in result.entries.values())

    def _wrap(self, fn, attr, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                self._open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
            else:
                result = fn(*args, **kwargs)
            try:
                self._hook(attr, args, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                # A changed signature or result type loses the count, not the run.
                self.missing.append(f"count hook of {attr}: {exc!r}")
            return result

        return wrapper

    # --- install / uninstall ------------------------------------------------

    def install(self):
        """Wrap every layer function in each loaded mecshare module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mecshare" or name.startswith("mecshare."))]
        for mod_name, attr, span in LAYERS:
            home = sys.modules.get(f"mecshare.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, method, None) if owner is not None else None
            if fn is None:
                # A renamed or removed function loses its layer, not the run.
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, method, span)
            if owner_name:
                self._patches.append((owner, method, fn))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                if getattr(mod, method, None) is fn:
                    self._patches.append((mod, method, fn))
                    setattr(mod, method, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # --- aggregation --------------------------------------------------------

    def totals(self) -> dict:
        """Per-span calls, busy and self seconds plus raw counters; summable across processes."""
        out = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)


def merge(into: dict, totals: dict) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0.0) + value


def summary(totals: dict) -> dict:
    """Per-layer metrics {name: (value, unit)} from summed totals."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (int(totals.get(f"{span}.calls", 0)), "count")
        out[f"{span}.busy_ms"] = (totals.get(f"{span}.busy_s", 0.0) * 1e3, "ms")
        out[f"{span}.self_ms"] = (totals.get(f"{span}.self_s", 0.0) * 1e3, "ms")
    for name, unit in COUNTERS.items():
        value = totals.get(name, 0.0)
        out[name] = (round(value) if unit == "count" else value, unit)
    for name, (num, den) in RATIOS.items():
        d = totals.get(den, 0.0)
        out[name] = (totals.get(num, 0.0) / d if d else 0.0, "frac")
    return out
