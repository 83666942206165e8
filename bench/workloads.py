"""The benchmark's workloads: seeded inputs, the timed program calls, and the output checks.

Each workload is a closed loop with one op in flight.  ``setup`` writes the
first ops' inputs into a work directory, ``make_input(i)`` returns op i's input
(beyond the set-up pool it is generated on the spot, outside the timed region,
so no input ever repeats), ``run`` is the timed call into the program and
``judge`` turns its output into per-op values for the fingerprint and a list of
problems; any problem fails the op.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from mecshare import cli, game, gpoa, metrics, model, ppmpoa, scengen

import tracing

BENCH_DIR = Path(__file__).resolve().parent
REPLAY_TOL = 1e-9
PROPERTY_TOL = 1e-6
COMM_D_HI = 0.5
IMPORT_PROBE = "import time; t = time.perf_counter(); import mecshare.cli; print(time.perf_counter() - t)"


def scenario_seed(workload_key: str, seed: int, i: int) -> int:
    return random.Random(f"{workload_key}:{seed}:{i}").randrange(2**32)


def with_comm_costs(s: model.Scenario, seed: int) -> model.Scenario:
    """Cost d ~ U[0, COMM_D_HI] for every provider serving every remote app."""
    rng = scengen.Stream(seed)
    costs = {
        (p.id, a.id): rng.uniform(0.0, COMM_D_HI)
        for p in s.providers
        for a in s.applications
        if a.owner != p.id
    }
    return dataclasses.replace(s, comm_costs=costs)


def fresh_import_s(pythonpath: Path) -> float:
    """Wall time of `import mecshare.cli` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(pythonpath),
                         cwd=pythonpath, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def round_trip(s: model.Scenario, path: Path) -> model.Scenario:
    """Save and reload a scenario the way the CLI reads it, validation included."""
    model.save_scenario(s, str(path))
    loaded = model.load_scenario(str(path))
    problems = model.validate_scenario(loaded)
    if problems:
        raise RuntimeError(f"generated scenario {path.name} is invalid: {problems[0]}")
    return loaded


class Workload:
    name = ""
    cells: list = []
    pool = 0
    # The op runs in this process, so calibration samples can be taken while
    # it runs (see run.DuringSampler).
    in_process = True
    # Set while an op runs under the tracer; cli then traces its children.
    traced = False

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = []
        self.work = None

    def setup(self, work: Path) -> None:
        """Start the tool in a fresh interpreter, then write and reload the input pool.

        The fresh import makes work moved to import time show in setup_s.
        """
        fresh_import_s(Path(model.__file__).parent.parent)
        work.mkdir(parents=True)
        self.work = work
        self.inputs = [self.new_input(i, work) for i in range(self.pool)]

    def make_input(self, i: int):
        if i < len(self.inputs):
            return self.inputs[i]
        return self.new_input(i, None)

    def cell(self, i: int) -> str:
        return self.cells[i % len(self.cells)]


# --- sweep and comm -------------------------------------------------------


class Sweep(Workload):
    """One op: one scenario run as solo, GPOA cao/cdo/random and PPMPOA, then checked."""

    name = "sweep"
    cells = [f"s{st}-{u}" for st in (1, 2, 3, 4) for u in ("linear", "sigmoid")]
    pool = 64
    comm = False

    def new_input(self, i: int, work: Path | None):
        setting, utility = (1, 2, 3, 4)[i % 8 // 2], ("linear", "sigmoid")[i % 2]
        sd = scenario_seed("sweep", self.seed, i)
        s = scengen.generate_scenario(scengen.GenSpec(setting=setting, seed=sd, utility_kind=utility))
        if self.comm:
            s = with_comm_costs(s, scenario_seed("comm", self.seed, i))
        if work is not None:
            s = round_trip(s, work / f"scenario-{i}.json")
        return {"scenario": s, "seed": sd}

    def run(self, inp):
        s = inp["scenario"]
        _, solo_alloc, solo_payoffs, _ = gpoa.run_solo_phase(s)
        out = {
            "solo": (solo_payoffs, solo_alloc, metrics.compute_metrics(s, solo_alloc), None),
        }
        schemes = {
            "cao": gpoa.OrderingScheme.cao(0),
            "cdo": gpoa.OrderingScheme.cdo(0),
            "random": gpoa.OrderingScheme.random(inp["seed"]),
        }
        results = {label: gpoa.run_gpoa(s, scheme) for label, scheme in schemes.items()}
        results["ppmpoa"] = ppmpoa.run_ppmpoa(s)
        for label, r in results.items():
            out[label] = (
                r.payoffs,
                r.allocation,
                metrics.compute_metrics(s, r.allocation),
                game.realized_payoffs(s, r.events),
            )
        out["blocking"] = ppmpoa.check_matching_stability(results["ppmpoa"], s)
        return out

    def judge(self, inp, out):
        s = inp["scenario"]
        problems = []
        values = {"seed": inp["seed"]}
        solo_sat = out["solo"][2].provider_satisfaction
        for label in ("solo", "cao", "cdo", "random", "ppmpoa"):
            payoffs, alloc, report, replay = out[label]
            totals = {str(n): p.total for n, p in sorted(payoffs.items())}
            values[label] = totals
            infeasible = alloc.check_feasibility(s)
            if infeasible:
                problems.append(f"{label}: infeasible: {infeasible[0]}")
            if replay is not None:
                total = sum(totals.values())
                gap = abs(sum(replay.values()) - total) / max(1.0, abs(total))
                if gap > REPLAY_TOL:
                    problems.append(f"{label}: replay gap {gap!r} > {REPLAY_TOL}")
            drops = [n for n in s.provider_ids() if report.provider_satisfaction[n] < solo_sat[n]]
            if drops:
                problems.append(f"{label}: satisfaction below solo for providers {drops}")
        if out["blocking"]:
            b = out["blocking"][0]
            problems.append(f"ppmpoa: {len(out['blocking'])} blocking pairs, first ({b.m},{b.n}) round {b.round}")
        return values, problems, []


class Comm(Sweep):
    """The sweep's scenarios with remote communication costs d ~ U[0, 0.5]."""

    name = "comm"
    comm = True


# --- verify ---------------------------------------------------------------


def property_verdicts(report) -> dict:
    """The three property verdicts re-derived from the report's coalition values.

    Independent of game.check_*: the benchmark compares its own reading of the
    coalition table with the verdicts the program printed.
    """
    entries = report.entries
    full = frozenset(report.provider_ids)
    grand = entries[full]
    superadditive = all(
        entries[a | b].value >= entries[a].value + entries[b].value - PROPERTY_TOL * (1 + abs(entries[a | b].value))
        for a in entries
        for b in entries
        if not a & b
    )
    rational = all(
        grand.payoffs.get(n, 0.0) >= entries[frozenset({n})].value - PROPERTY_TOL for n in full
    ) and abs(sum(grand.payoffs.values()) - grand.value) <= 1e-9 * max(1.0, abs(grand.value))
    blocked = any(
        all(vec[n] > grand.payoffs.get(n, 0.0) + PROPERTY_TOL for n in members)
        for members, entry in entries.items()
        if members != full
        for _order, vec in (entry.candidates or [((), entry.payoffs)])
    )
    return {
        "superadditivity": superadditive,
        "rationality": rational,
        "no_blocking_coalition": not blocked,
    }


class Verify(Workload):
    """One op: the order-swept coalition enumeration and the three property checks."""

    name = "verify"
    cells = ["s3-linear"]
    pool = 4

    def new_input(self, i: int, work: Path | None):
        sd = scenario_seed("verify", self.seed, i)
        s = scengen.generate_scenario(scengen.GenSpec(setting=3, seed=sd, utility_kind="linear"))
        if work is not None:
            s = round_trip(s, work / f"scenario-{i}.json")
        return {"scenario": s, "seed": sd}

    def run(self, inp):
        report = game.enumerate_coalitions(
            inp["scenario"], gpoa.OrderingScheme.cdo(0), "gpoa", sweep_orders=True
        )
        verdicts = [
            game.check_superadditivity(report),
            game.check_rationality(report),
            game.check_no_blocking_coalition(report),
        ]
        return report, verdicts

    def judge(self, inp, out):
        report, verdicts = out
        grand = report.grand()
        printed = {v.name: v.passed for v in verdicts}
        values = {
            "seed": inp["seed"],
            "grand_value": grand.value,
            "grand_payoffs": {str(n): x for n, x in sorted(grand.payoffs.items())},
            "verdicts": printed,
        }
        problems = []
        expected = property_verdicts(report)
        if printed != expected:
            problems.append(f"verdicts {printed} disagree with the coalition table {expected}")
        for members, entry in report.entries.items():
            if abs(sum(entry.payoffs.values()) - entry.value) > 1e-9 * max(1.0, abs(entry.value)):
                problems.append(f"coalition {sorted(members)}: value is not the sum of its payoffs")
                break
        # A failing property on a correctly computed table is a finding about
        # the scenario, not a failed op; it is reported, never filtered.
        findings = [
            {"scenario_seed": inp["seed"], "verdict": name}
            for name, passed in printed.items()
            if not passed
        ]
        return values, problems, findings


# --- cli ------------------------------------------------------------------

# (command, argv after the command, artifact, expected JSON keys or CSV header)
CLI_COMMANDS = [
    ("gen", ["--setting", "{setting}", "--seed", "{seed}", "--utility", "linear"], "gen.json",
     {"K", "providers", "applications", "comm_costs", "delta", "epsilon_gain", "manifest"}),
    ("solo", ["--scenario", "{scenario}"], "solo.json",
     {"algorithm", "payoffs", "value", "allocation", "manifest"}),
    ("gpoa", ["--scenario", "{scenario}", "--order", "cdo:k=0"], "gpoa.json",
     {"algorithm", "ordering", "g1", "g2", "order_used", "payoffs", "value", "allocation", "manifest"}),
    ("ppmpoa", ["--scenario", "{scenario}", "--trace", "rounds.csv"], "ppmpoa.json",
     {"algorithm", "g1", "g2", "rounds", "matches", "payoffs", "value", "allocation", "manifest"}),
    ("compare", ["--scenario", "{scenario}", "--orderings", "cdo:k=0,cao:k=0"], "compare.csv",
     ["provider", "mode", "utility", "satisfaction", "utilization"]),
    ("report", ["--scenario", "{scenario}", "--allocation", "gpoa.json"], "report.csv",
     ["entity", "metric", "value"]),
    ("misreport", ["--scenario", "{scenario}", "--provider", "{provider}", "--cap-factor", "1.5",
                   "--req-factor", "0.75"], "misreport.json",
     {"provider", "cap_factor", "req_factor", "algorithm", "truthful_payoff", "misreport_payoff",
      "gain", "manifest"}),
    ("table3", ["--scenario", "{scenario}"], "table3.csv",
     ["coalition", "player_1", "player_2", "player_3", "value", "superadditive", "rational", "core"]),
    ("verify", ["--scenario", "{scenario}", "--algorithm", "ppmpoa"], "verify.json",
     {"algorithm", "coalitions", "verdicts", "matching_stable", "manifest"}),
]
CLI_SCENARIOS_PER_SETTING = 9
GPOA_POS = [c[0] for c in CLI_COMMANDS].index("gpoa")


def child_env(pythonpath: Path) -> dict:
    env = dict(os.environ)
    for var in ("COALITION_SHARE_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(pythonpath)
    return env


def canonical_artifact(path: Path) -> str:
    """Artifact content without the run-to-run manifest wall time."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        payload["manifest"].pop("wall_time_s", None)
        return json.dumps(payload, sort_keys=True)
    return text


class Cli(Workload):
    """One op: one `mecshare` child process running one command, one at a time.

    Setup copies the package into a fresh directory, so the commands it runs
    once compile the package's bytecode and that cost lands in setup_s.
    """

    name = "cli"
    cells = [f"{cmd}-s{st}" for st in (1, 2) for cmd, *_ in CLI_COMMANDS]
    in_process = False

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.work = work
        self.pkg = work / "pkg"
        shutil.copytree(Path(cli.__file__).parent, self.pkg / "mecshare",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.env = child_env(self.pkg)
        self.child_totals = {}
        self.scenarios = {}
        for setting in (1, 2):
            for k in range(CLI_SCENARIOS_PER_SETTING):
                sd = scenario_seed(f"cli{setting}", self.seed, k)
                s = scengen.generate_scenario(scengen.GenSpec(setting=setting, seed=sd))
                name = f"scenario-s{setting}-{k}.json"
                self.scenarios[name] = round_trip(s, work / name)
        for i in range(len(CLI_COMMANDS)):
            inp = self.make_input(i)
            out = self.run(inp)
            _values, problems, _ = self.judge(inp, out)
            if problems:
                raise RuntimeError(f"setup command {inp['argv'][0]} failed: {problems[0]}")

    def make_input(self, i: int):
        cycle, pos = divmod(i, len(CLI_COMMANDS))
        setting = 1 + cycle % 2
        command, template, artifact, expected = CLI_COMMANDS[pos]
        # Each command of a cycle reads another scenario, so that one easy or
        # hard scenario does not move all the costly commands of a run
        # together; report reads the scenario of the cycle's gpoa allocation.
        shift = GPOA_POS if command == "report" else pos
        k = (cycle // 2 + shift) % CLI_SCENARIOS_PER_SETTING
        scenario = f"scenario-s{setting}-{k}.json"
        fields = {
            "setting": setting,
            "seed": scenario_seed(f"cli{setting}", self.seed, k),
            "scenario": scenario,
            "provider": 1 + cycle % 3,
        }
        argv = [command] + [a.format(**fields) for a in template] + ["--out", artifact]
        return {"argv": argv, "artifact": artifact, "expected": expected, "scenario": scenario, "i": i}

    def run(self, inp):
        argv = inp["argv"]
        (self.work / inp["artifact"]).unlink(missing_ok=True)  # no stale artifact can pass
        if self.traced:
            totals = self.work / "child-totals.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(totals)] + argv
        else:
            cmd = [sys.executable, "-m", "mecshare.cli"] + argv
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, text=True,
                              timeout=120)
        if self.traced and proc.returncode == 0:
            tracing.merge(self.child_totals, json.loads(totals.read_text()))
        return proc

    def judge(self, inp, proc):
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            return {}, [f"{inp['argv'][0]}: exit {proc.returncode}: {tail}"], []
        path = self.work / inp["artifact"]
        problems = []
        try:
            if path.suffix == ".json":
                payload = json.loads(path.read_text())
                missing = inp["expected"] - set(payload)
                if missing:
                    problems.append(f"{path.name}: missing keys {sorted(missing)}")
                elif "allocation" in payload:
                    alloc = cli.alloc_from_dict(payload["allocation"])
                    infeasible = alloc.check_feasibility(self.scenarios[inp["scenario"]])
                    if infeasible:
                        problems.append(f"{path.name}: infeasible: {infeasible[0]}")
            else:
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                if not rows or rows[0] != inp["expected"] or len(rows) < 2:
                    problems.append(f"{path.name}: header {rows[:1]} or no rows")
            if inp["argv"][0] == "ppmpoa":
                with open(self.work / "rounds.csv", newline="") as fh:
                    if next(csv.reader(fh), None) != ["round", "m", "n", "J", "R"]:
                        problems.append("rounds.csv: unexpected header")
            values = {"artifact_sha256": hashlib.sha256(canonical_artifact(path).encode()).hexdigest()}
        except (OSError, ValueError, KeyError) as exc:
            return {}, problems + [f"{path.name}: unreadable: {exc!r}"], []
        return values, problems, []


WORKLOADS = {w.name: w for w in (Sweep, Comm, Verify, Cli)}
