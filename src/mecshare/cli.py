"""Command-line entry point: generation, algorithms, verification, metrics, comparisons."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Callable, Dict, List, NoReturn, Tuple, TypeVar, Union

from . import __version__
from .model import (
    AllocationTensor,
    Scenario,
    load_scenario,
    lsum,
    require_object,
    scenario_to_dict,
    validate_allocation,
    validate_scenario,
)
from .gpoa import parse_ordering, partition_players, run_gpoa, run_solo_phase
from .ppmpoa import check_matching_stability, run_ppmpoa
from .game import (
    SWEEP_LIMIT,
    CoalitionReport,
    PropertyVerdict,
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    enumerate_coalitions,
    misreport_experiment,
)
from .metrics import compute_metrics
from .scengen import GenSpec, generate_scenario


#: What a command returns for `main` to write: a JSON payload without its
#: manifest, or a CSV (header, rows).
Artifact = Union[dict, Tuple[List[str], List[list]]]
T = TypeVar("T")


def _manifest(args: argparse.Namespace, started: float) -> dict:
    return {
        "command": args.command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, header: List[str], rows: List[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read(what: str, path: str, load: Callable[[str], T], check: Callable[[T], List[str]]) -> T:
    """`load(path)` once `check` finds no problem; else a one-line ValueError naming the file."""
    if not os.path.exists(path):
        raise ValueError(f"{what} file not found: {path}")
    try:
        value = load(path)
        problems = check(value)
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"cannot read {what} {path}: {reason}") from exc
    if problems:
        raise ValueError(f"invalid {what} {path}: " + "; ".join(problems))
    return value


def _alloc_key(key: str) -> Tuple[int, int]:
    """(n, j) for a key exactly as `_outcome` writes it, f"{n}:{j}"; else a ValueError."""
    try:
        n, j = (int(part) for part in key.split(":"))
    except ValueError:
        pass
    else:
        if key == f"{n}:{j}":
            return n, j
    raise ValueError(f"allocation key {key!r} is not <provider>:<app>")


def alloc_from_dict(d: Dict[str, List[float]]) -> AllocationTensor:
    """The tensor of an "allocation" object, which maps "<provider>:<app>" to a list."""
    require_object(d, "'allocation'")
    tensor = AllocationTensor()
    for key, vec in d.items():
        n, j = _alloc_key(key)
        if not isinstance(vec, list):
            raise ValueError(f"allocation {key!r}: vector must be a list, got {type(vec).__name__}")
        tensor.entries[(n, j)] = tuple(vec)
    return tensor


def _load_allocation(path: str) -> AllocationTensor:
    with open(path) as fh:
        return alloc_from_dict(require_object(json.load(fh), "allocation file")["allocation"])


def _outcome(payoffs, alloc: AllocationTensor) -> dict:
    """The payoffs, value and allocation keys that end a solo, gpoa or ppmpoa payload."""
    return {
        "payoffs": {
            str(n): {"v_solo": p.v_solo, "sharing": p.sharing, "bonus": p.bonus, "total": p.total}
            for n, p in sorted(payoffs.items())
        },
        "value": lsum(p.total for p in payoffs.values()),
        "allocation": {f"{n}:{j}": list(vec) for (n, j), vec in sorted(alloc.entries.items())},
    }


def _coalition_analysis(
    args: argparse.Namespace, s: Scenario
) -> Tuple[CoalitionReport, List[PropertyVerdict], bool, int]:
    """Verify's and table3's report, verdicts, stability and exit code; prints each check."""
    memo = {}  # the stability run's grand coalition reuses the enumeration's share solves
    scheme = parse_ordering(args.order)
    report = enumerate_coalitions(s, scheme, args.algorithm, args.sweep_orders, memo)
    checks = (check_superadditivity, check_rationality, check_no_blocking_coalition)
    verdicts = [check(report) for check in checks]
    lines = [(v.name, v.passed, f"witnesses: {len(v.witnesses)}") for v in verdicts]
    blocking = []
    if args.algorithm == "ppmpoa":
        blocking = check_matching_stability(run_ppmpoa(s, memo), s)
        lines.append(("matching_stable", not blocking, f"blocking pairs: {len(blocking)}"))
    for name, passed, count in lines:
        print(f"{name}: pass" if passed else f"{name}: FAIL ({count})")
    return report, verdicts, not blocking, 0 if all(passed for _, passed, _ in lines) else 1


# --- subcommands ----------------------------------------------------------
# Each takes the parsed arguments and the loaded scenario (None for gen) and
# returns (artifact, exit code); `main` stamps the manifest and writes.


def cmd_gen(args: argparse.Namespace, _s: None) -> Tuple[Artifact, int]:
    spec = GenSpec(setting=args.setting, seed=args.seed, utility_kind=args.utility)
    return scenario_to_dict(generate_scenario(spec)), 0


def cmd_solo(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    _state, alloc, payoffs, _events = run_solo_phase(s)
    return {"algorithm": "solo", **_outcome(payoffs, alloc)}, 0


def cmd_gpoa(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    result = run_gpoa(s, parse_ordering(args.order))
    g1, g2 = partition_players(s)
    return {
        "algorithm": "gpoa",
        "ordering": args.order,
        "g1": g1,
        "g2": g2,
        "order_used": result.order_used,
        **_outcome(result.payoffs, result.allocation),
    }, 0


def cmd_ppmpoa(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    result = run_ppmpoa(s)
    if args.trace:
        rows = [[r.round, r.m, r.n, r.value, r.resources] for r in result.matches]
        _write_csv(args.trace, ["round", "m", "n", "J", "R"], rows)
    g1, g2 = partition_players(s)
    return {
        "algorithm": "ppmpoa",
        "g1": g1,
        "g2": g2,
        "rounds": result.rounds,
        "matches": [
            {"round": r.round, "m": r.m, "n": r.n, "value": r.value, "resources": r.resources}
            for r in result.matches
        ],
        **_outcome(result.payoffs, result.allocation),
    }, 0


def cmd_verify(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    report, verdicts, stable, code = _coalition_analysis(args, s)
    return {
        "algorithm": args.algorithm,
        "coalitions": {
            ",".join(str(n) for n in sorted(members)): {
                "value": entry.value,
                "payoffs": {str(n): v for n, v in sorted(entry.payoffs.items())},
                "order_used": entry.order_used,
            }
            for members, entry in sorted(report.entries.items(), key=lambda kv: sorted(kv[0]))
        },
        "verdicts": {
            v.name: {"passed": v.passed, "witnesses": [list(w) for w in v.witnesses]}
            for v in verdicts
        },
        "matching_stable": stable,
    }, code


def cmd_misreport(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    truthful, misreport = misreport_experiment(
        s, args.provider, args.cap_factor, args.req_factor, args.algorithm
    )
    return {
        "provider": args.provider,
        "cap_factor": args.cap_factor,
        "req_factor": args.req_factor,
        "algorithm": args.algorithm,
        "truthful_payoff": truthful,
        "misreport_payoff": misreport,
        "gain": misreport - truthful,
    }, 0


def cmd_table3(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    report, verdicts, _stable, code = _coalition_analysis(args, s)
    cells = ["pass" if v.passed else "fail" for v in verdicts]
    ids = report.provider_ids
    header = (
        ["coalition"]
        + [f"player_{n}" for n in ids]
        + ["value", "superadditive", "rational", "core"]
    )
    rows = []
    for members, entry in sorted(
        report.entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        label = "{" + ",".join(str(n) for n in sorted(members)) + "}"
        rows.append([label] + [entry.payoffs.get(n, 0.0) for n in ids] + [entry.value] + cells)
    return (header, rows), code


def _split_orderings(text: str) -> List[str]:
    """Comma-separated ordering specs; a bare integer continues the explicit order before it."""
    specs: List[str] = []
    for token in text.split(","):
        if specs and specs[-1].lower().startswith("explicit:") and token.lstrip("-").isdigit():
            specs[-1] += "," + token
        elif token:
            specs.append(token)
    return specs or ["cdo:k=0"]


def cmd_compare(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    orderings = _split_orderings(args.orderings)

    rows = []

    def add_rows(mode: str, alloc: AllocationTensor, payoffs) -> None:
        report = compute_metrics(s, alloc)
        for n in s.provider_ids():
            rows.append(
                [
                    n,
                    mode,
                    payoffs[n].total,
                    report.provider_satisfaction[n],
                    report.provider_utilization[n],
                ]
            )
        rows.append(["all", mode + ":fragmentation", report.mean_fragmentation, "", ""])

    _state, solo_alloc, solo_payoffs, _ev = run_solo_phase(s)
    add_rows("alone", solo_alloc, solo_payoffs)
    for ordering in orderings:
        result = run_gpoa(s, parse_ordering(ordering))
        add_rows(f"gpoa[{ordering}]", result.allocation, result.payoffs)
    pres = run_ppmpoa(s)
    add_rows("ppmpoa", pres.allocation, pres.payoffs)

    return (["provider", "mode", "utility", "satisfaction", "utilization"], rows), 0


def cmd_report(args: argparse.Namespace, s: Scenario) -> Tuple[Artifact, int]:
    alloc = _read("allocation", args.allocation, _load_allocation, lambda a: validate_allocation(s, a))
    report = compute_metrics(s, alloc)
    rows = []
    for n in s.provider_ids():
        rows.append([f"provider:{n}", "satisfaction", report.provider_satisfaction[n]])
        rows.append([f"provider:{n}", "utilization", report.provider_utilization[n]])
    for a in s.applications:
        rows.append([f"app:{a.id}", "satisfaction", report.app_satisfaction[a.id]])
        rows.append([f"app:{a.id}", "fragmentation", report.app_fragmentation[a.id]])
    rows.append(["aggregate", "mean_fragmentation", report.mean_fragmentation])
    return (["entity", "metric", "value"], rows), 0


class _Parser(argparse.ArgumentParser):
    """Rejects a bad argument with a ValueError, which `run` reports on one line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mecshare",
        description="Cooperative resource sharing simulator for edge clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded scenario")
    p.add_argument("--setting", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--utility", choices=["linear", "sigmoid"], default="linear")
    p.set_defaults(func=cmd_gen)

    def on_scenario(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=True)
        p.set_defaults(func=func)
        return p

    on_scenario("solo", cmd_solo, "run the no-sharing baseline")

    p = on_scenario("gpoa", cmd_gpoa, "run the ordered surplus-sharing algorithm")
    p.add_argument("--order", default="cdo:k=0")

    p = on_scenario("ppmpoa", cmd_ppmpoa, "run the matching-based algorithm")
    p.add_argument("--trace", default=None, help="per-round match CSV")

    def on_coalitions(name: str, func, help: str) -> None:
        p = on_scenario(name, func, help)
        p.add_argument("--algorithm", choices=["gpoa", "ppmpoa"], default="gpoa")
        p.add_argument(
            "--order",
            default="cdo:k=0",
            help="GPOA surplus order, validated under either algorithm; with --sweep-orders it "
            f"runs only for coalitions with more than {SWEEP_LIMIT} surplus providers; "
            "ppmpoa never runs it",
        )
        p.add_argument("--sweep-orders", action=argparse.BooleanOptionalAction, default=True,
                       help="evaluate every surplus-order permutation per coalition")

    on_coalitions("verify", cmd_verify, "coalition sweep with property checks")

    p = on_scenario("misreport", cmd_misreport, "truthful vs misreported capacity/requests")
    p.add_argument("--provider", type=int, required=True)
    p.add_argument("--cap-factor", type=float, default=1.0)
    p.add_argument("--req-factor", type=float, default=1.0)
    p.add_argument("--algorithm", choices=["gpoa", "ppmpoa"], default="gpoa")

    on_coalitions("table3", cmd_table3, "verify's coalition table and verdicts as CSV")

    p = on_scenario("compare", cmd_compare, "solo vs gpoa vs ppmpoa side by side")
    p.add_argument("--orderings", default="", help="comma-separated ordering specs")

    p = on_scenario("report", cmd_report, "metrics CSV for a stored allocation")
    p.add_argument("--allocation", required=True)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def main(argv: List[str] | None = None) -> int:
    """Parse, load the scenario, run the command, and write its artifact with a manifest."""
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    s = _read("scenario", args.scenario, load_scenario, validate_scenario) if "scenario" in args else None
    artifact, code = args.func(args, s)
    if isinstance(artifact, tuple):
        _write_csv(args.out, *artifact)
    else:
        _write_json(args.out, {**artifact, "manifest": _manifest(args, started)})
    return code


def run(argv: List[str] | None = None) -> int:
    """Process entry point: a rejected argument or input, or an unwritable output, ends in exit 2."""
    try:
        return main(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
