"""Command-line entry point: generation, algorithms, verification, metrics, comparisons."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Dict, List, NoReturn

from . import __version__
from .model import (
    AllocationTensor,
    Scenario,
    load_scenario,
    save_scenario,
    validate_allocation,
    validate_scenario,
)
from .gpoa import parse_ordering, run_gpoa, run_solo_phase
from .ppmpoa import check_matching_stability, run_ppmpoa
from .game import (
    SWEEP_LIMIT,
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    enumerate_coalitions,
    misreport_experiment,
)
from .metrics import compute_metrics
from .scengen import GenSpec, generate_scenario


def _manifest(command: str, args: argparse.Namespace, started: float) -> dict:
    skip = {"func"}
    return {
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k not in skip},
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


def _exit_with_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _describe(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _load_scenario_or_exit(path: str) -> Scenario:
    if not os.path.exists(path):
        _exit_with_error(f"scenario file not found: {path}")
    try:
        s = load_scenario(path)
        problems = validate_scenario(s)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        _exit_with_error(f"cannot read scenario {path}: {_describe(exc)}")
    if problems:
        _exit_with_error(f"invalid scenario {path}: " + "; ".join(problems))
    return s


def _alloc_to_dict(alloc: AllocationTensor) -> Dict[str, List[float]]:
    return {f"{n}:{j}": list(vec) for (n, j), vec in sorted(alloc.entries.items())}


def alloc_from_dict(d: Dict[str, List[float]]) -> AllocationTensor:
    tensor = AllocationTensor()
    for key, vec in d.items():
        n, j = (int(part) for part in key.split(":"))
        tensor.entries[(n, j)] = tuple(vec)
    return tensor


def _payoffs_to_dict(payoffs) -> dict:
    return {
        str(n): {
            "v_solo": p.v_solo,
            "sharing": p.sharing,
            "bonus": p.bonus,
            "total": p.total,
        }
        for n, p in sorted(payoffs.items())
    }


# --- subcommands ----------------------------------------------------------


def cmd_gen(args: argparse.Namespace, started: float) -> int:
    spec = GenSpec(setting=args.setting, seed=args.seed, utility_kind=args.utility)
    scenario = generate_scenario(spec)
    save_scenario(scenario, args.out, manifest=_manifest("gen", args, started))
    return 0


def cmd_solo(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    state, alloc, payoffs, _events = run_solo_phase(s)
    payload = {
        "algorithm": "solo",
        "payoffs": _payoffs_to_dict(payoffs),
        "value": sum(p.total for p in payoffs.values()),
        "allocation": _alloc_to_dict(alloc),
        "manifest": _manifest("solo", args, started),
    }
    _write_json(args.out, payload)
    return 0


def cmd_gpoa(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    scheme = parse_ordering(args.order)
    result = run_gpoa(s, scheme)
    payload = {
        "algorithm": "gpoa",
        "ordering": args.order,
        "g1": result.g1,
        "g2": result.g2,
        "order_used": result.order_used,
        "payoffs": _payoffs_to_dict(result.payoffs),
        "value": sum(p.total for p in result.payoffs.values()),
        "allocation": _alloc_to_dict(result.allocation),
        "manifest": _manifest("gpoa", args, started),
    }
    _write_json(args.out, payload)
    return 0


def cmd_ppmpoa(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    result = run_ppmpoa(s)
    payload = {
        "algorithm": "ppmpoa",
        "g1": result.g1,
        "g2": result.g2,
        "rounds": result.rounds,
        "matches": [
            {"round": r.round, "m": r.m, "n": r.n, "value": r.value, "resources": r.resources}
            for r in result.matches
        ],
        "payoffs": _payoffs_to_dict(result.payoffs),
        "value": sum(p.total for p in result.payoffs.values()),
        "allocation": _alloc_to_dict(result.allocation),
        "manifest": _manifest("ppmpoa", args, started),
    }
    _write_json(args.out, payload)
    if args.trace:
        rows = [[r.round, r.m, r.n, r.value, r.resources] for r in result.matches]
        _write_csv(args.trace, ["round", "m", "n", "J", "R"], rows)
    return 0


def cmd_verify(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    scheme = parse_ordering(args.order)
    report = enumerate_coalitions(s, scheme, args.algorithm, sweep_orders=args.sweep_orders)
    verdicts = [
        check_superadditivity(report),
        check_rationality(report),
        check_no_blocking_coalition(report),
    ]
    stability_ok = True
    if args.algorithm == "ppmpoa":
        blocking = check_matching_stability(report.grand_result, s)
        stability_ok = not blocking
    payload = {
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
        "matching_stable": stability_ok,
        "manifest": _manifest("verify", args, started),
    }
    _write_json(args.out, payload)
    ok = all(v.passed for v in verdicts) and stability_ok
    for v in verdicts:
        print(f"{v.name}: {'pass' if v.passed else 'FAIL'}")
    return 0 if ok else 1


def cmd_misreport(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    truthful, misreport = misreport_experiment(
        s, args.provider, args.cap_factor, args.req_factor, args.algorithm
    )
    payload = {
        "provider": args.provider,
        "cap_factor": args.cap_factor,
        "req_factor": args.req_factor,
        "algorithm": args.algorithm,
        "truthful_payoff": truthful,
        "misreport_payoff": misreport,
        "gain": misreport - truthful,
        "manifest": _manifest("misreport", args, started),
    }
    _write_json(args.out, payload)
    return 0


def cmd_table3(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    scheme = parse_ordering(args.order)
    report = enumerate_coalitions(s, scheme, args.algorithm)
    superadd = check_superadditivity(report)
    rational = check_rationality(report)
    core = check_no_blocking_coalition(report)
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
        rows.append(
            [label]
            + [entry.payoffs.get(n, 0.0) for n in ids]
            + [
                entry.value,
                "pass" if superadd.passed else "fail",
                "pass" if rational.passed else "fail",
                "pass" if core.passed else "fail",
            ]
        )
    _write_csv(args.out, header, rows)
    return 0 if superadd.passed and rational.passed and core.passed else 1


def cmd_compare(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    orderings = [o for o in (args.orderings or "").split(",") if o] or ["cdo:k=0"]

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

    _write_csv(args.out, ["provider", "mode", "utility", "satisfaction", "utilization"], rows)
    return 0


def cmd_report(args: argparse.Namespace, started: float) -> int:
    s = _load_scenario_or_exit(args.scenario)
    if not os.path.exists(args.allocation):
        _exit_with_error(f"allocation file not found: {args.allocation}")
    try:
        with open(args.allocation) as fh:
            alloc = alloc_from_dict(json.load(fh)["allocation"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        _exit_with_error(f"cannot read allocation {args.allocation}: {_describe(exc)}")
    problems = validate_allocation(s, alloc)
    if problems:
        _exit_with_error(f"invalid allocation {args.allocation}: " + "; ".join(problems))
    violations = alloc.check_feasibility(s)
    if violations:
        _exit_with_error(f"infeasible allocation {args.allocation}: " + "; ".join(violations))
    report = compute_metrics(s, alloc)
    rows = []
    for n in s.provider_ids():
        rows.append([f"provider:{n}", "satisfaction", report.provider_satisfaction[n]])
        rows.append([f"provider:{n}", "utilization", report.provider_utilization[n]])
    for a in s.applications:
        rows.append([f"app:{a.id}", "satisfaction", report.app_satisfaction[a.id]])
        rows.append([f"app:{a.id}", "fragmentation", report.app_fragmentation[a.id]])
    rows.append(["aggregate", "mean_fragmentation", report.mean_fragmentation])
    _write_csv(args.out, ["entity", "metric", "value"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecshare",
        description="Cooperative resource sharing simulator for edge clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded scenario")
    p.add_argument("--setting", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--utility", choices=["linear", "sigmoid"], default="linear")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solo", help="run the no-sharing baseline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solo)

    p = sub.add_parser("gpoa", help="run the ordered surplus-sharing algorithm")
    p.add_argument("--scenario", required=True)
    p.add_argument("--order", default="cdo:k=0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gpoa)

    p = sub.add_parser("ppmpoa", help="run the matching-based algorithm")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="per-round match CSV")
    p.set_defaults(func=cmd_ppmpoa)

    p = sub.add_parser("verify", help="coalition sweep with property checks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algorithm", choices=["gpoa", "ppmpoa"], default="gpoa")
    p.add_argument(
        "--order",
        default="cdo:k=0",
        help="GPOA surplus order; with --sweep-orders it is read only for coalitions "
        f"with more than {SWEEP_LIMIT} surplus providers, and --algorithm ppmpoa never reads it",
    )
    p.add_argument(
        "--sweep-orders",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate every surplus-order permutation per coalition",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("misreport", help="truthful vs misreported capacity/requests")
    p.add_argument("--scenario", required=True)
    p.add_argument("--provider", type=int, required=True)
    p.add_argument("--cap-factor", type=float, default=1.0)
    p.add_argument("--req-factor", type=float, default=1.0)
    p.add_argument("--algorithm", choices=["gpoa", "ppmpoa"], default="gpoa")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_misreport)

    p = sub.add_parser("table3", help="coalition payoff table with verdict columns")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algorithm", choices=["gpoa", "ppmpoa"], default="gpoa")
    p.add_argument("--order", default="cdo:k=0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("compare", help="solo vs gpoa vs ppmpoa side by side")
    p.add_argument("--scenario", required=True)
    p.add_argument("--orderings", default="", help="comma-separated ordering specs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="metrics CSV for a stored allocation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: List[str] | None = None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    return args.func(args, started)


def run(argv: List[str] | None = None) -> int:
    """Process entry point: a rejected argument or unwritable output ends in exit 2."""
    try:
        return main(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
