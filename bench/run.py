"""mecshare benchmark: one closed-loop workload per run, every output checked.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (stdlib only; the package is imported
from ``src``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` every
op runs traced and untraced back to back, and the metrics are the per-layer
ones.  Op and set-up times are calibrated against a fixed reference loop (see
``CALIBRATION_REF_S``).  A sidecar ``.bench_out/<workload>-seed<n>-trace<t>.json``
keeps the environment, the per-op values, the output fingerprint and any
failing cases.  See ``bench/NOTES.md`` for why each workload exists.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
IMPORT_PROBES = 5
# Op and set-up times are reported at the machine speed at which
# calibration_work takes this long: each time is scaled by CALIBRATION_REF_S
# over the mean of the calibrations around and during it.  The shared VMs this
# benchmark runs on change speed by up to 50% within minutes; see NOTES.md.
CALIBRATION_REF_S = 0.006
# Calibration after an op lasts this share of the op's time (at least three
# runs of calibration_work); the first one, before op 0, lasts CALIBRATION_FIRST_S.
CALIBRATION_SHARE = 0.05
CALIBRATION_FIRST_S = 0.3
# In-process ops also take a calibration sample this often while they run.
SAMPLE_EVERY_S = 0.5


def calibration_work():
    """A fixed delta-step greedy fill, shaped like the program's hot loop.

    Heap, dict, closure calls and float math as in mecshare's allocator, but
    written here so that no change to the program changes it.  Garbage
    collection is off while it runs, so whatever the last op left alive
    cannot land inside it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        cap = {k: 10.0 for k in range(3)}
        items = [(k, 1.0 + (j * 7 + k * 3) % 10, 0.5 + (j % 5) / 4.0)
                 for j in range(24) for k in range(3)]
        x = [0.0] * len(items)

        def gain(i):
            k, ub, slope = items[i]
            step = min(0.01, ub - x[i], cap[k])
            return slope * step + math.log1p(step / ub) if step > 0 else -1.0

        heap = [(-gain(i), i) for i in range(len(items))]
        heapq.heapify(heap)
        while heap:
            _, i = heapq.heappop(heap)
            g = gain(i)
            if g <= 0:
                continue
            step = min(0.01, items[i][1] - x[i], cap[items[i][0]])
            x[i] += step
            cap[items[i][0]] -= step
            heapq.heappush(heap, (-gain(i), i))
        return x
    finally:
        if gc_was_enabled:
            gc.enable()


def calibration_s(budget_s: float) -> float:
    """Mean time of calibration_work over at least three runs and `budget_s` seconds.

    The machine's speed wanders on scales from a fraction of a second to
    minutes; a longer op is bracketed by longer calibrations so that their
    mean reflects the speed level rather than one momentary swing.
    """
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def calibrate(seconds: float, cal_before: float, during=()):
    """A time scaled to the reference speed, and the calibration taken after it.

    The speed is the mean of the calibrations just before and just after the
    timed work and of any samples taken during it.
    """
    cal_after = calibration_s(CALIBRATION_SHARE * seconds)
    speed = statistics.fmean([cal_before, cal_after, *during])
    return seconds * CALIBRATION_REF_S / speed, cal_after


class DuringSampler:
    """Calibration samples every SAMPLE_EVERY_S while an in-process op runs.

    A SIGALRM handler runs calibration_work between the op's bytecodes; its
    time is kept in `spent` and taken out of the op's time.  Over ops of
    several seconds the speed seen at the op's ends says little about the
    speed inside it (see NOTES.md), so long ops need these samples.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        calibration_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def weighted_quantile(samples, q: float) -> float:
    """Quantile of (value, weight) samples, interpolated between weight midpoints."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    points, acc = [], 0.0
    for value, weight in samples:
        points.append(((acc + weight / 2) / total, value))
        acc += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def mix_stats(ops, key="ref_s") -> dict:
    """Throughput and latency of the workload's cell mix, each cell weighted equally.

    A run ends mid-cycle, so raw op counts over-represent the cells at the
    start of the cycle; weighting each cell equally keeps the mix the same in
    every run.  ops_per_s is the inverse of the mean over cells of the cell's
    mean op time; op_p50_ms is the median over cells of the cell's median op
    time, which stays inside a cell instead of falling in the gap between the
    cheap and the costly half of the mix; op_p90_ms is the 90th percentile of
    the mix, each op weighted 1/(ops in its cell).  `key` picks calibrated
    ("ref_s") or uncalibrated ("latency_s") times.
    """
    by_cell = {}
    for op in ops:
        by_cell.setdefault(op["cell"], []).append(op[key])
    samples = [(lat, 1.0 / len(lats)) for lats in by_cell.values() for lat in lats]
    return {
        "ops_per_s": 1.0 / statistics.fmean(statistics.fmean(lats) for lats in by_cell.values()),
        "op_p50_ms": statistics.median(statistics.median(lats) for lats in by_cell.values()) * 1e3,
        "op_p90_ms": weighted_quantile(samples, 0.9) * 1e3,
    }


def run_op(workload, index: int, cal_before: float, tracer=None):
    """One timed op and its checks; returns the op record and the calibration taken after it."""
    inp = workload.make_input(index)
    if tracer is not None:
        tracer.install()
        tracer.op = index
        workload.traced = True
    sampler = DuringSampler()
    try:
        start = time.perf_counter()
        try:
            if workload.in_process:
                with sampler:
                    out = workload.run(inp)
            else:
                out = workload.run(inp)
        except Exception as exc:  # a crash in the program is a failed op, reported
            latency = time.perf_counter() - start - sampler.spent
            values, problems, findings = {}, [f"raised {exc!r}"], []
        else:
            latency = time.perf_counter() - start - sampler.spent
            values, problems, findings = workload.judge(inp, out)
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
            workload.traced = False
    ref_s, cal_after = calibrate(latency, cal_before, sampler.samples)
    op = {
        "i": index,
        "cell": workload.cell(index),
        "latency_s": latency,
        "ref_s": ref_s,
        "values": values,
        "problems": problems,
        "findings": findings,
    }
    return op, cal_after


def run_ops(workload, seconds: float, tracer=None):
    """Closed loop from op 0 until `seconds` have passed; returns (untraced, traced) ops.

    With a tracer every op runs twice back to back, traced and untraced,
    alternating which goes first, so that speed drift and warm-up fall on both
    sides of the tracing-overhead comparison alike.
    """
    ops = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    cal = calibration_s(CALIBRATION_FIRST_S)
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        order = (False,) if tracer is None else ((True, False) if index % 2 == 0 else (False, True))
        for traced in order:
            op, cal = run_op(workload, index, cal, tracer if traced else None)
            ops[traced].append(op)
        index += 1
    return ops[False], ops[True]


def fingerprint(ops, cycle: int) -> dict:
    """Hash of the first cycle's per-op values in op order, comparable across commits."""
    first = ops[:cycle]
    blob = json.dumps([op["values"] for op in first], sort_keys=True)
    return {"sha256": hashlib.sha256(blob.encode()).hexdigest(), "ops": len(first)}


def parse_args(argv):
    p = argparse.ArgumentParser(description="mecshare benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mecshare" / "__init__.py").is_file():
        print(f"error: no mecshare sources under {SRC}", file=sys.stderr)
        return 2
    caller_threads = os.environ.pop("COALITION_SHARE_THREADS", None)
    # One CPU for the benchmark and, by inheritance, every child it starts, so
    # that the calibration measures the CPU the op runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "COALITION_SHARE_THREADS": "unset (caller had %r)" % caller_threads,
    }
    print("# env " + json.dumps(env), flush=True)

    build = ROOT / ".bench_build" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()  # set-up spans count too, under op id None
        setup_s = []
        cal = calibration_s(CALIBRATION_FIRST_S)
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup(build / f"setup{rep}")
            took, cal = calibrate(time.perf_counter() - start, cal)
            setup_s.append(took)
        if tracer is not None:
            tracer.uninstall()
        untraced, traced = run_ops(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(build, ignore_errors=True)

    all_ops = untraced + traced
    if tracer is None:
        stats = mix_stats(untraced)
        metrics = {
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_p90_ms": (stats["op_p90_ms"], "ms"),
            "ok_frac": (sum(1 for op in untraced if not op["problems"]) / len(untraced), "frac"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(children=not workload.in_process), "MB"),
        }
    else:
        for a, b in zip(traced, untraced):
            if a["values"] != b["values"]:
                a["problems"].append("traced and untraced outputs differ")
        totals = tracer.totals()
        tracing.merge(totals, getattr(workload, "child_totals", {}))
        metrics = tracing.summary(totals)
        traced_rate = mix_stats(traced)["ops_per_s"]
        untraced_rate = mix_stats(untraced)["ops_per_s"]
        metrics.update({
            "cli.import_ms": (statistics.median(
                workloads.fresh_import_s(SRC) * 1e3 for _ in range(IMPORT_PROBES)), "ms"),
            "trace.ops_per_s": (traced_rate, "1/s"),
            "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
            "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "frac"),
            "failed_frac": (sum(1 for op in all_ops if op["problems"]) / len(all_ops), "frac"),
            "game.verdict_fails": (sum(len(op["findings"]) for op in traced), "count"),
        })
        if tracer.missing:
            print("# layers not traced: " + ", ".join(sorted(set(tracer.missing))), flush=True)

    failed = [op for op in all_ops if op["problems"]]
    findings = [f for op in untraced for f in op["findings"]]
    fp = fingerprint(untraced, len(workload.cells))
    raw = mix_stats(untraced, key="latency_s")
    print("# uncalibrated: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()), flush=True)
    print(f"# {args.workload}: {len(all_ops)} ops, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(all_ops)!r}, fingerprint {fp['sha256']} over {fp['ops']} ops",
          flush=True)
    for op in failed[:10]:
        print(f"# FAILED op {op['i']} ({op['cell']}): {'; '.join(op['problems'])}", flush=True)
    for f in findings:
        print(f"# finding: {json.dumps(f, sort_keys=True)}", flush=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    sidecar = {
        "env": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fingerprint": fp,
        "findings": findings,
        "ops": [{k: op[k] for k in ("i", "cell", "latency_s", "ref_s", "values", "problems")}
                for op in all_ops],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
