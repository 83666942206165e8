"""Self-test of the benchmark: every metric is emitted, and the output checks can fail.

    python3 bench/selftest.py

1. A tiny run of every workload in BENCHMARK.json, untraced and traced, must
   print exactly the end-to-end or the per-layer metric names it lists.
2. Outputs perturbed after the program returns them (an allocation beyond
   capacity, a payoff the replay cannot reproduce, a coalition value that
   contradicts the printed verdicts, a CLI artifact missing a key) must each
   be counted as a failed op by the same loop the benchmark runs.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_runs(failures: list) -> None:
    for wl in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", wl["name"],
                 "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"tiny run {wl['name']} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"] for m in SPEC[section]}
            got = set(result["metrics"])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                failures.append(f"{label}: missing {sorted(want - got)}, extra {sorted(got - want)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} ops", flush=True)


def perturbed(base, perturb):
    """A workload class whose outputs, once armed after set-up, are perturbed before the checks."""

    class Perturbed(base):
        armed = False

        def run(self, inp):
            out = super().run(inp)
            if self.armed:
                perturb(self, inp, out)
            return out

    return Perturbed


def over_capacity(_wl, inp, out):
    s = inp["scenario"]
    p = s.providers[0]
    out["cdo"][1].add(p.id, p.native_apps[0], 0, p.capacity[0] + 1.0, s.K)


def extra_payoff(_wl, inp, out):
    out["ppmpoa"][0][inp["scenario"].provider_ids()[0]].sharing += 1.0


def contradict_verdicts(_wl, _inp, out):
    report, _verdicts = out
    singleton = next(m for m in report.entries if len(m) == 1)
    report.entries[singleton].value += 1e6


def drop_artifact_key(wl, inp, proc):
    path = wl.work / inp["artifact"]
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop(sorted(inp["expected"])[0])
        path.write_text(json.dumps(payload))
    else:
        path.write_text("not,the,header\n")


def gate_checks(failures: list) -> None:
    import workloads

    cases = [
        ("sweep: allocation beyond capacity", workloads.Sweep, over_capacity),
        ("comm: payoff the replay cannot reproduce", workloads.Comm, extra_payoff),
        ("verify: coalition table contradicts the verdicts", workloads.Verify, contradict_verdicts),
        ("cli: artifact missing an expected key", workloads.Cli, drop_artifact_key),
    ]
    work = ROOT / ".bench_build" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for k, (label, base, perturb) in enumerate(cases):
            wl = perturbed(base, perturb)(1)
            wl.setup(work / str(k))
            wl.armed = True
            op, _ = run.run_op(wl, 0, run.calibration_s(0.0))
            if op["problems"]:
                print(f"{label}: failed op as expected ({op['problems'][0]})", flush=True)
            else:
                failures.append(f"{label}: the perturbed output passed the checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures: list = []
    gate_checks(failures)
    tiny_runs(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("PASS" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
