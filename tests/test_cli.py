import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mecshare
from mecshare import cli, game, subsolver
from mecshare.cli import main
from mecshare.gpoa import parse_ordering
from mecshare.model import load_scenario, save_scenario, scenario_to_dict
from mecshare.ppmpoa import BlockingPair, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs

from conftest import failing_rationality_report


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def without_manifest(path):
    payload = read_json(path)
    payload.pop("manifest", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    assert main(["gen", "--setting", "1", "--seed", "42", "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_writes_loadable_scenario_with_manifest(self, scenario_file):
        payload = read_json(scenario_file)
        assert payload["manifest"]["command"] == "gen"
        s = load_scenario(scenario_file)
        assert len(s.providers) == 3

    def test_rerun_is_byte_identical_apart_from_wall_time(self, tmp_path):
        out = tmp_path / "out.json"
        main(["gen", "--setting", "2", "--seed", "7", "--out", str(out)])
        first = read_json(str(out))
        main(["gen", "--setting", "2", "--seed", "7", "--out", str(out)])
        second = read_json(str(out))
        first["manifest"].pop("wall_time_s")
        second["manifest"].pop("wall_time_s")
        assert first == second

    def test_unknown_setting_is_one_error_line(self, tmp_path, capsys):
        assert cli.run(["gen", "--setting", "9", "--seed", "1", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv",
    [["solo"], ["gpoa", "--order", "cao:k=0"], ["ppmpoa"], ["verify", "--algorithm", "ppmpoa"],
     ["misreport", "--provider", "2", "--cap-factor", "1.5"]],
    ids=lambda argv: argv[0],
)
def test_json_artifact_ends_with_the_manifest_of_its_command(scenario_file, tmp_path, argv):
    argv = argv + ["--scenario", scenario_file, "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    payload = read_json(str(tmp_path / "out.json"))
    assert list(payload)[-1] == "manifest"
    manifest = payload["manifest"]
    assert manifest["command"] == argv[0]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert "func" in parsed and "func" not in manifest["args"]
    assert manifest["args"] == {k: v for k, v in parsed.items() if k != "func"}


class TestAlgorithms:
    def test_solo_payload_shape(self, scenario_file, tmp_path):
        out = tmp_path / "solo.json"
        assert main(["solo", "--scenario", scenario_file, "--out", str(out)]) == 0
        payload = read_json(str(out))
        assert payload["algorithm"] == "solo"
        assert set(payload["payoffs"]) == {"1", "2", "3"}
        assert payload["value"] == pytest.approx(
            sum(p["total"] for p in payload["payoffs"].values())
        )

    def test_gpoa_value_at_least_solo(self, scenario_file, tmp_path):
        solo_out, gpoa_out = tmp_path / "solo.json", tmp_path / "gpoa.json"
        main(["solo", "--scenario", scenario_file, "--out", str(solo_out)])
        assert main(
            ["gpoa", "--scenario", scenario_file, "--order", "cdo:k=0", "--out", str(gpoa_out)]
        ) == 0
        assert read_json(str(gpoa_out))["value"] >= read_json(str(solo_out))["value"] - 1e-9

    def test_ppmpoa_payload_and_trace(self, scenario_file, tmp_path):
        out, trace = tmp_path / "pp.json", tmp_path / "trace.csv"
        assert main(
            ["ppmpoa", "--scenario", scenario_file, "--out", str(out), "--trace", str(trace)]
        ) == 0
        payload = read_json(str(out))
        assert payload["rounds"] == len(payload["matches"])
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "m", "n", "J", "R"]
        assert len(rows) == payload["rounds"] + 1

    def test_bad_ordering_spec_raises(self, scenario_file, tmp_path):
        with pytest.raises(ValueError):
            main(["gpoa", "--scenario", scenario_file, "--order", "bogus", "--out",
                  str(tmp_path / "x.json")])

    @pytest.mark.parametrize("spec", ["cdo:k=", "explicit:", "explicit:2,,3", "random:seed=x"])
    def test_bad_ordering_spec_is_named_in_the_error(self, scenario_file, tmp_path, capsys, spec):
        argv = ["gpoa", "--scenario", scenario_file, "--order", spec, "--out",
                str(tmp_path / "x.json")]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and spec in err[0], err


class TestVerify:
    def test_passing_scenario_exits_zero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--scenario", scenario_file, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "superadditivity: pass" in printed
        assert "rationality: pass" in printed
        payload = read_json(str(out))
        assert len(payload["coalitions"]) == 7
        assert all(v["passed"] for v in payload["verdicts"].values())

    def test_failing_verdict_prints_its_witness_count(self, tmp_path, capsys):
        scenario, out = str(tmp_path / "s.json"), str(tmp_path / "verify.json")
        main(["gen", "--setting", "3", "--seed", "9", "--utility", "linear", "--out", scenario])
        capsys.readouterr()
        assert main(["verify", "--scenario", scenario, "--out", out]) == 1
        printed = capsys.readouterr().out.splitlines()
        verdicts = read_json(out)["verdicts"]
        assert not verdicts["no_blocking_coalition"]["passed"]
        assert printed == [
            f"{name}: pass" if v["passed"] else f"{name}: FAIL (witnesses: {len(v['witnesses'])})"
            for name, v in verdicts.items()
        ]

    def test_failing_rationality_prints_its_witnesses(
        self, scenario_file, tmp_path, capsys, monkeypatch
    ):
        report = failing_rationality_report()
        monkeypatch.setattr(cli, "enumerate_coalitions", lambda *args: report)
        out = str(tmp_path / "verify.json")
        capsys.readouterr()
        assert main(["verify", "--scenario", scenario_file, "--out", out]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "superadditivity: pass",
            "rationality: FAIL (witnesses: 2)",
            "no_blocking_coalition: FAIL (witnesses: 1)",
        ]
        assert read_json(out)["verdicts"]["rationality"]["witnesses"] == [
            ["individual", 1, 4.0, 5.0], ["group", 9.0, 10.0]
        ]

    def test_ppmpoa_stability_run_reuses_the_enumeration_solves(self, tmp_path, monkeypatch):
        scenario, out = str(tmp_path / "s.json"), str(tmp_path / "verify.json")
        main(["gen", "--setting", "3", "--seed", "1", "--utility", "linear", "--out", scenario])
        share_solves = {"enumeration": 0, "stability": 0}
        phase = ["enumeration"]
        greedy = subsolver.allocate_greedy

        def counting_greedy(spec, delta, epsilon_gain):
            if spec.kind == "share":
                share_solves[phase[0]] += 1
            return greedy(spec, delta, epsilon_gain)

        def stability_run(s, share_memo=None):
            phase[0] = "stability"
            return run_ppmpoa(s, share_memo)

        monkeypatch.setattr(subsolver, "allocate_greedy", counting_greedy)
        monkeypatch.setattr(cli, "run_ppmpoa", stability_run)
        assert main(["verify", "--scenario", scenario, "--algorithm", "ppmpoa", "--out", out]) == 1
        assert read_json(out)["matching_stable"] is True
        # The stability run and its replay are all hits in the enumeration's memo.
        assert share_solves == {"enumeration": 67, "stability": 0}

    def test_ppmpoa_verify_includes_matching_stability(self, scenario_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(
            ["verify", "--scenario", scenario_file, "--algorithm", "ppmpoa", "--out", str(out)]
        ) == 0
        assert read_json(str(out))["matching_stable"] is True

    @pytest.mark.parametrize(
        "flags,same",
        [(["--algorithm", "gpoa"], True), (["--algorithm", "ppmpoa"], True),
         (["--algorithm", "gpoa", "--no-sweep-orders"], False)],
    )
    def test_order_is_read_only_without_sweeping(self, scenario_file, tmp_path, flags, same):
        # Setting 1 has 3 providers: no coalition has more than 4 surplus
        # providers, so the default sweep evaluates every order of each one.
        outs = []
        for order in ("cao:k=0", "random:seed=5"):
            out = tmp_path / f"verify-{order.replace(':', '-')}.json"
            assert main(["verify", "--scenario", scenario_file, *flags,
                         "--order", order, "--out", str(out)]) == 0
            outs.append(without_manifest(str(out)))
        assert (outs[0] == outs[1]) is same

    def test_ppmpoa_verify_runs_each_coalition_once(self, scenario_file, tmp_path, monkeypatch):
        calls = []

        def counting_ppmpoa(s, share_memo=None):
            calls.append(s.provider_ids())
            return run_ppmpoa(s, share_memo)

        monkeypatch.setattr(game, "run_ppmpoa", counting_ppmpoa)
        monkeypatch.setattr(cli, "run_ppmpoa", counting_ppmpoa)
        out = tmp_path / "verify.json"
        assert main(
            ["verify", "--scenario", scenario_file, "--algorithm", "ppmpoa", "--out", str(out)]
        ) == 0
        # The enumeration runs each coalition once; the stability check then runs
        # the full scenario once more.
        assert len(calls) == 2**3
        assert len({tuple(ids) for ids in calls[:-1]}) == 2**3 - 1
        assert calls[-1] == max(calls, key=len)


class TestMisreport:
    def test_payload_reports_gain(self, scenario_file, tmp_path):
        out = tmp_path / "mis.json"
        assert main(
            ["misreport", "--scenario", scenario_file, "--provider", "2",
             "--cap-factor", "0.5", "--out", str(out)]
        ) == 0
        payload = read_json(str(out))
        assert payload["gain"] == pytest.approx(
            payload["misreport_payoff"] - payload["truthful_payoff"]
        )
        assert payload["gain"] <= 1e-6


class TestTables:
    def test_table3_shape(self, scenario_file, tmp_path):
        out = tmp_path / "table3.csv"
        assert main(["table3", "--scenario", scenario_file, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:1] + rows[0][-3:] == ["coalition", "superadditive", "rational", "core"]
        assert len(rows) == 8  # header + 7 coalitions
        assert rows[1][0] == "{1}"
        assert rows[-1][0] == "{1,2,3}"

    def test_table3_explicit_order_is_restricted_per_coalition(self, scenario_file, tmp_path):
        cdo_out = tmp_path / "cdo.json"
        main(["gpoa", "--scenario", scenario_file, "--out", str(cdo_out)])
        order = "explicit:" + ",".join(str(n) for n in read_json(str(cdo_out))["order_used"])
        gpoa_out, table_out = tmp_path / "gpoa.json", tmp_path / "table3.csv"
        assert main(
            ["gpoa", "--scenario", scenario_file, "--order", order, "--out", str(gpoa_out)]
        ) == 0
        # Only an unswept table runs the given order in every coalition.
        assert main(
            ["table3", "--scenario", scenario_file, "--no-sweep-orders", "--order", order,
             "--out", str(table_out)]
        ) == 0
        with open(table_out) as fh:
            rows = list(csv.reader(fh))
        grand = dict(zip(rows[0], rows[-1]))
        payoffs = read_json(str(gpoa_out))["payoffs"]
        assert {n: float(grand[f"player_{n}"]) for n in payoffs} == {
            n: p["total"] for n, p in payoffs.items()
        }

    def test_table3_writes_verifys_verdicts_and_exit_code(self, tmp_path):
        # Unswept, this file fails superadditivity and no-blocking; the sweep passes both.
        scenario = str(tmp_path / "s.json")
        main(["gen", "--setting", "3", "--seed", "4", "--utility", "linear", "--out", scenario])
        table_out, verify_out = tmp_path / "table3.csv", tmp_path / "verify.json"
        assert main(["table3", "--scenario", scenario, "--out", str(table_out)]) == 0
        assert main(["verify", "--scenario", scenario, "--out", str(verify_out)]) == 0
        verify = read_json(str(verify_out))
        with open(table_out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-3:] == ["superadditive", "rational", "core"]
        want = ["pass" if v["passed"] else "fail" for v in verify["verdicts"].values()]
        assert want == ["pass"] * 3
        assert all(row[-3:] == want for row in rows[1:])
        assert float(rows[-1][-4]) == verify["coalitions"]["1,2,3,4,5,6"]["value"]

    def test_table3_without_sweep_is_the_unswept_enumeration(self, tmp_path):
        scenario = str(tmp_path / "s.json")
        main(["gen", "--setting", "3", "--seed", "4", "--utility", "linear", "--out", scenario])
        out = tmp_path / "table3.csv"
        assert main(["table3", "--scenario", scenario, "--no-sweep-orders", "--out", str(out)]) == 1
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert all(row[-3:] == ["fail", "pass", "fail"] for row in rows[1:])
        s = load_scenario(scenario)
        grand = game.enumerate_coalitions(s, parse_ordering("cdo:k=0")).entries[
            frozenset(s.provider_ids())
        ]
        assert rows[-1][0] == "{1,2,3,4,5,6}"
        assert rows[-1][1:-3] == [repr(grand.payoffs[n]) for n in s.provider_ids()] + [
            repr(grand.value)
        ]

    def test_table3_fails_an_unstable_matching_as_verify_does(
        self, scenario_file, tmp_path, monkeypatch
    ):
        blocked = [BlockingPair(round=1, m=1, n=2, value=2.0, committed_value=1.0)]
        monkeypatch.setattr(cli, "check_matching_stability", lambda result, s: blocked)
        verify_out, table_out = str(tmp_path / "verify.json"), str(tmp_path / "table3.csv")
        for command, out in (("verify", verify_out), ("table3", table_out)):
            argv = [command, "--scenario", scenario_file, "--algorithm", "ppmpoa", "--out", out]
            assert main(argv) == 1, command
        assert read_json(verify_out)["matching_stable"] is False
        with open(table_out) as fh:
            assert all(row[-3:] == ["pass"] * 3 for row in list(csv.reader(fh))[1:])

    def test_verify_and_table3_print_the_same_lines(
        self, scenario_file, tmp_path, monkeypatch, capsys
    ):
        verdicts = ["superadditivity: pass", "rationality: pass", "no_blocking_coalition: pass"]
        blocked = [BlockingPair(round=1, m=1, n=2, value=2.0, committed_value=1.0)] * 2

        def printed(command, algorithm):
            capsys.readouterr()
            out = str(tmp_path / f"{command}-{algorithm}.out")
            code = main([command, "--scenario", scenario_file, "--algorithm", algorithm,
                         "--out", out])
            return code, capsys.readouterr().out.splitlines()

        for command in ("verify", "table3"):
            assert printed(command, "gpoa") == (0, verdicts)
            assert printed(command, "ppmpoa") == (0, verdicts + ["matching_stable: pass"])
        monkeypatch.setattr(cli, "check_matching_stability", lambda result, s: blocked)
        for command in ("verify", "table3"):
            assert printed(command, "gpoa") == (0, verdicts)
            assert printed(command, "ppmpoa") == (
                1, verdicts + ["matching_stable: FAIL (blocking pairs: 2)"]
            )

    def test_compare_lists_all_modes(self, scenario_file, tmp_path):
        out = tmp_path / "compare.csv"
        assert main(
            ["compare", "--scenario", scenario_file, "--orderings", "cao:k=0,cdo:k=0",
             "--out", str(out)]
        ) == 0
        with open(out) as fh:
            modes = {row["mode"] for row in csv.DictReader(fh)}
        assert {"alone", "gpoa[cao:k=0]", "gpoa[cdo:k=0]", "ppmpoa"} <= modes

    def test_compare_orderings_split_on_commas(self):
        assert cli._split_orderings("cdo:k=0,cao:k=0") == ["cdo:k=0", "cao:k=0"]
        assert cli._split_orderings("") == ["cdo:k=0"]
        assert cli._split_orderings("explicit:3,2,cao:k=1,explicit:1,2,3") == [
            "explicit:3,2", "cao:k=1", "explicit:1,2,3"
        ]

    def test_compare_takes_an_explicit_order(self, tmp_path, capsys):
        scenario = str(tmp_path / "s.json")
        main(["gen", "--setting", "1", "--seed", "1", "--out", scenario])
        gpoa_out, cmp_out = str(tmp_path / "gpoa.json"), str(tmp_path / "cmp.csv")
        assert main(["gpoa", "--scenario", scenario, "--order", "explicit:3,2",
                     "--out", gpoa_out]) == 0
        assert main(["compare", "--scenario", scenario, "--orderings", "cdo:k=0,explicit:3,2",
                     "--out", cmp_out]) == 0
        with open(cmp_out) as fh:
            rows = [row for row in csv.DictReader(fh) if row["mode"] == "gpoa[explicit:3,2]"]
        payoffs = read_json(gpoa_out)["payoffs"]
        assert {row["provider"]: float(row["utility"]) for row in rows} == {
            n: p["total"] for n, p in payoffs.items()
        }
        capsys.readouterr()
        argv = ["compare", "--scenario", scenario, "--orderings", "cdo:k=0,explicit:3,x",
                "--out", cmp_out]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_report_metrics_csv(self, scenario_file, tmp_path):
        alloc_out = tmp_path / "gpoa.json"
        main(["gpoa", "--scenario", scenario_file, "--out", str(alloc_out)])
        out = tmp_path / "metrics.csv"
        assert main(
            ["report", "--scenario", scenario_file, "--allocation", str(alloc_out),
             "--out", str(out)]
        ) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        entities = {row["entity"] for row in rows}
        assert "provider:1" in entities
        assert "aggregate" in entities


def run_on(scenario, argv, out):
    """`cli.run` of one command on `scenario`, writing `out`; returns its exit code."""
    return cli.run([argv[0], "--scenario", str(scenario), *argv[1:], "--out", str(out)])


def run_json(tmp_path, text, argv):
    """The JSON artifact of one command, which must exit 0, on a scenario file of `text`."""
    scenario, out = tmp_path / "scenario.json", tmp_path / "out.json"
    scenario.write_text(text)
    assert run_on(scenario, argv, out) == 0
    return read_json(out)


def test_setting1_seed1_through_every_command_that_reads_it(tmp_path):
    scenario = tmp_path / "s.json"
    assert cli.run(["gen", "--setting", "1", "--seed", "1", "--out", str(scenario)]) == 0
    misreport = ["misreport", "--provider", "1", "--cap-factor", "1.5", "--req-factor", "0.75"]
    for argv, out in (
        (["gpoa"], "gpoa.json"),
        (["report", "--allocation", str(tmp_path / "gpoa.json")], "report.csv"),
        (["solo"], "solo.json"),
        (["ppmpoa", "--trace", str(tmp_path / "rounds.csv")], "ppmpoa.json"),
        (misreport, "misreport.json"),
        (["table3"], "table3.csv"),
    ):
        assert run_on(scenario, argv, tmp_path / out) == 0, argv
    assert (tmp_path / "rounds.csv").read_text().splitlines()[0] == "round,m,n,J,R"
    assert "gain" in read_json(tmp_path / "misreport.json")
    assert (tmp_path / "table3.csv").read_text().startswith("coalition,player_1,")


@pytest.fixture(scope="module")
def generated_files(tmp_path_factory):
    """Linear setting 3 seed 1, and setting 3 seed 2 with a cost d ~ U[0, 0.5] on
    every remote (provider, app) pair (cost seed 7)."""
    folder = tmp_path_factory.mktemp("generated")
    files = {"setting3-seed1": folder / "s3.json", "costed": folder / "c3.json"}
    assert main(["gen", "--setting", "3", "--seed", "1", "--utility", "linear",
                 "--out", str(files["setting3-seed1"])]) == 0
    costed = with_comm_costs(generate_scenario(GenSpec(setting=3, seed=2)), 7)
    save_scenario(costed, str(files["costed"]))
    return files


# (file, argv, exit code, a key of the JSON artifact, a printed line)
GENERATED_RUNS = [
    ("setting3-seed1", ["verify"], 0, "verdicts", "superadditivity: pass"),
    # table3 writes verify's swept analysis; unswept, the file fails superadditivity.
    ("setting3-seed1", ["table3"], 0, None, "superadditivity: pass"),
    ("setting3-seed1", ["table3", "--no-sweep-orders"], 1, None,
     "superadditivity: FAIL (witnesses: 3)"),
    # Under PPMPOA superadditivity fails, and the stability replay must still hold.
    ("setting3-seed1", ["table3", "--algorithm", "ppmpoa"], 1, None, "matching_stable: pass"),
    ("costed", ["ppmpoa"], 0, "matches", None),
    ("costed", ["verify"], 0, "verdicts", "superadditivity: pass"),
    ("costed", ["verify", "--algorithm", "ppmpoa"], 1, "verdicts", "matching_stable: pass"),
    ("costed", ["misreport", "--provider", "1", "--cap-factor", "1.5", "--req-factor", "0.75"],
     0, "gain", None),
]


@pytest.mark.parametrize(
    "file, argv, code, key, line", GENERATED_RUNS,
    ids=[f"{f}-{'-'.join(argv).replace('--', '')}" for f, argv, *_ in GENERATED_RUNS],
)
def test_generated_file_exit_code_and_output(
    generated_files, tmp_path, capsys, file, argv, code, key, line
):
    out = tmp_path / "out"
    assert run_on(generated_files[file], argv, out) == code
    if key is not None:
        assert key in read_json(out)
    if line is not None:
        assert line in capsys.readouterr().out.splitlines()


def test_costs_lower_the_gpoa_value_of_a_generated_file(generated_files, tmp_path):
    costed = generated_files["costed"]
    assert len(read_json(costed)["comm_costs"]) == 180
    free = tmp_path / "s.json"
    assert cli.run(["gen", "--setting", "3", "--seed", "2", "--out", str(free)]) == 0
    assert run_on(free, ["gpoa"], tmp_path / "free.json") == 0
    assert run_on(costed, ["gpoa"], tmp_path / "costed.json") == 0
    # 932.68 against 963.65
    assert read_json(tmp_path / "costed.json")["value"] < read_json(tmp_path / "free.json")["value"]
    report = ["report", "--allocation", str(tmp_path / "costed.json")]
    assert run_on(costed, report, tmp_path / "report.csv") == 0


class TestErrorHandling:
    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        argv = ["solo", "--scenario", str(tmp_path / "nope.json"), "--out",
                str(tmp_path / "x.json")]
        with pytest.raises(ValueError, match="scenario file not found"):
            main(argv)
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.startswith("error: scenario file not found")

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"K": 0, "providers": [], "applications": []}))
        argv = ["solo", "--scenario", str(bad), "--out", str(tmp_path / "x.json")]
        with pytest.raises(ValueError, match="invalid scenario"):
            main(argv)
        assert cli.run(argv) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_non_integer_k_is_the_only_problem_named(self, tmp_path, capsys):
        # A string K used to add "length 3 != K=3" for all 126 vectors of this file.
        s4 = tmp_path / "s4.json"
        assert main(["gen", "--setting", "4", "--seed", "1", "--out", str(s4)]) == 0
        d = read_json(s4)
        d["K"] = "3"
        s4.write_text(json.dumps(d))
        argv = ["solo", "--scenario", str(s4), "--out", str(tmp_path / "x.json")]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid scenario {s4}: K must be an integer > 0\n"
        assert err.replace(str(s4), "").count("K") == 1


def sub_unit_json(delta, capacities, requests, comm_costs=()):
    """K=1, linear a=1 c=0: provider n has capacities[n-1] and one app n requesting requests[n-1]."""
    linear = {"kind": "linear", "params": {"a": 1.0, "c": 0.0}}
    return json.dumps({
        "K": 1,
        "delta": delta,
        "providers": [
            {"id": n, "capacity": [c], "native_apps": [n]} for n, c in enumerate(capacities, 1)
        ],
        "applications": [
            {"id": n, "owner": n, "request": [r], "utility": linear}
            for n, r in enumerate(requests, 1)
        ],
        "comm_costs": [{"provider": n, "app": j, "d": d} for n, j, d in comm_costs],
    })


class TestSubUnitAmounts:
    """Amounts far below 1 are compared against the scenario's own tolerance."""

    def test_misreports_truthful_payoff_is_the_runs_payoff(self, tmp_path):
        # Provider 2 closes a quarter of app 1's gap; an absolute 1e-9 counted it closed.
        text = sub_unit_json(1e-13, (3e-10, 3e-10), (7e-10, 2e-10))
        total = run_json(tmp_path, text, ["gpoa"])["payoffs"]["2"]["total"]
        assert total == pytest.approx(1.0625000003, abs=1e-12)
        payload = run_json(tmp_path, text, ["misreport", "--provider", "2"])
        assert payload["truthful_payoff"] == total

    @pytest.mark.parametrize(
        "delta, capacities, requests",
        [(1e-303, (3e-300, 9e-300), (7e-300, 2e-300)), (1e-3, (3.0, 9.0), (7.0, 2.0))],
        ids=["1e-300", "1"],
    )
    def test_a_grant_that_does_not_cover_its_cost_is_rolled_back_at_any_scale(
        self, tmp_path, delta, capacities, requests
    ):
        # d = 5 on (2, 1) exceeds app 1's slope of 1, so provider 2 grants it nothing.
        text = sub_unit_json(delta, capacities, requests, [(2, 1, 5.0)])
        allocation = run_json(tmp_path, text, ["gpoa"])["allocation"]
        assert sorted(allocation) == ["1:1", "2:2"]


def linear(a):
    return {"kind": "linear", "params": {"a": a, "c": 0.0}}


SUBNORMAL = 64 * 5e-324

# name -> (scenario, command, a check of its JSON artifact)
SMALL_FILES = {
    # A run of delta-steps is counted, not summed: requests of 3.0 on a capacity of 5.0
    # get exactly 3.0 and 2.0.
    "counted-steps": (
        {"K": 1,
         "providers": [{"id": 1, "capacity": [5.0], "native_apps": [1, 2]}],
         "applications": [{"id": 1, "owner": 1, "request": [3.0], "utility": linear(2.0)},
                          {"id": 2, "owner": 1, "request": [3.0], "utility": linear(1.0)}]},
        "solo", lambda out: out["allocation"] == {"1:1": [3.0], "1:2": [2.0]},
    ),
    # epsilon_gain is the stop rule on a slack resource type too: each step gains
    # 0.015 <= 1.0, so nothing is granted.
    "epsilon-on-a-slack-type": (
        {"K": 2, "epsilon_gain": 1.0,
         "providers": [{"id": 1, "capacity": [10.0, 1.0], "native_apps": [1]}],
         "applications": [{"id": 1, "owner": 1, "request": [2.0, 2.0], "utility": linear(1.0)}]},
        "solo", lambda out: out["allocation"] == {},
    ),
    # A flat deficit app (a = 0) gains about 1.2e-10 < epsilon_gain per step, so a
    # surplus provider that covers its gap shares nothing.
    "flat-deficit-app": (
        {"K": 1,
         "providers": [{"id": 1, "capacity": [100.0], "native_apps": [1]},
                       {"id": 2, "capacity": [5000.0], "native_apps": [2]}],
         "applications": [{"id": 1, "owner": 1, "request": [1000.0], "utility": linear(0.0)},
                          {"id": 2, "owner": 2, "request": [10.0], "utility": linear(1.0)}]},
        "gpoa", lambda out: "2:1" not in out["allocation"],
    ),
    "subnormal-delta": (
        {"K": 1, "delta": SUBNORMAL,
         "providers": [{"id": 1, "capacity": [300 * SUBNORMAL], "native_apps": [1]}],
         "applications": [{"id": 1, "owner": 1, "request": [700 * SUBNORMAL],
                           "utility": linear(1.0)}]},
        "gpoa", lambda out: out["allocation"] == {"1:1": [300 * SUBNORMAL]},
    ),
    # The deficit/surplus threshold is relative to delta: a file whose amounts all
    # sit below 1e-9 still shares.
    "amounts-below-1e-9": (
        json.loads(sub_unit_json(1e-12, (3e-10, 9e-10), (7e-10, 2e-10))),
        "gpoa", lambda out: out["g1"] == [1] and "2:1" in out["allocation"],
    ),
}


@pytest.mark.parametrize("case", sorted(SMALL_FILES))
def test_small_file_gives_its_result(tmp_path, case):
    payload, command, check = SMALL_FILES[case]
    assert check(run_json(tmp_path, json.dumps(payload), [command]))


class TestDeterminism:
    @pytest.mark.parametrize(
        "command",
        [
            ["solo"],
            ["gpoa", "--order", "cao:k=1"],
            ["ppmpoa"],
            ["verify", "--algorithm", "gpoa"],
        ],
    )
    def test_rerun_payloads_identical_modulo_wall_time(
        self, scenario_file, tmp_path, command
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(command + ["--scenario", scenario_file, "--out", str(path)])
        assert without_manifest(str(a)) == without_manifest(str(b))


def two_provider_json(edit=None):
    """K=1: provider 1 lacks 2 units for its app, provider 2 has 4 to spare."""
    linear = {"kind": "linear", "params": {"a": 1.0, "c": 0.0}}
    payload = {
        "K": 1,
        "providers": [
            {"id": 1, "capacity": [2.0], "native_apps": [1]},
            {"id": 2, "capacity": [6.0], "native_apps": [2]},
        ],
        "applications": [
            {"id": 1, "owner": 1, "request": [4.0], "utility": linear},
            {"id": 2, "owner": 2, "request": [2.0], "utility": linear},
        ],
    }
    if edit is not None:
        edit(payload)
    return json.dumps(payload)


def report_case(allocation):
    """A `report` run on the two-provider scenario with this stored allocation."""
    return two_provider_json(), ["report", "--allocation", "alloc.json"], json.dumps(
        {"allocation": allocation}
    )


def app_1_utility(utility):
    return lambda d: d["applications"][0].update(utility=utility)


def provider_field(i, **fields):
    return lambda d: d["providers"][i].update(fields)


def app_field(i, **fields):
    return lambda d: d["applications"][i].update(fields)


def fine_delta_grid(d):
    """Provider 1 could grant 5e10 delta-steps of 0.01 towards a request of 1e9."""
    d["providers"][0].update(capacity=[5e8])
    d["applications"][0].update(request=[1e9])
    d.update(delta=0.01)


def provider_2_id(value):
    """Provider 2, and the owner of its app, get the id `value`."""
    def edit(d):
        d["providers"][1].update(id=value)
        d["applications"][1].update(owner=value)
    return edit


def generated_json(setting, seed, edit=None):
    """The scenario that `mecshare gen --setting <setting> --seed <seed>` writes, edited."""
    payload = scenario_to_dict(generate_scenario(GenSpec(setting=setting, seed=seed)))
    if edit is not None:
        edit(payload)
    return json.dumps(payload)


def comm_cost(provider, app):
    """One cost d = 0.5 on the (provider, app) pair."""
    return lambda d: d.update(comm_costs=[{"provider": provider, "app": app, "d": 0.5}])


NO_PROVIDERS = json.dumps({"K": 1, "providers": [], "applications": []})
THIRTEEN_PROVIDERS = json.dumps({
    "K": 1,
    "providers": [{"id": n, "capacity": [1.0], "native_apps": []} for n in range(1, 14)],
    "applications": [],
})
DEEP_JSON = "[" * 100000 + "]" * 100000
HUGE_SLOPE = {"kind": "linear", "params": {"a": 1e308, "c": 0.0}}

# name -> (scenario text, argv[, allocation text written next to the scenario])
BAD_INPUTS = {
    "malformed-json": ("{not json", ["solo"]),
    "missing-K": (two_provider_json(lambda d: d.pop("K")), ["solo"]),
    "float-K": (two_provider_json(lambda d: d.update(K=1.0)), ["solo"]),
    "bool-K": (two_provider_json(lambda d: d.update(K=True)), ["solo"]),
    "string-provider-id": (two_provider_json(provider_2_id("2")), ["solo"]),
    "float-provider-id": (two_provider_json(provider_2_id(2.0)), ["gpoa"]),
    "comm-cost-string-provider": (two_provider_json(comm_cost("2", 1)), ["gpoa"]),
    "comm-cost-unknown-pair": (two_provider_json(comm_cost(99, 77)), ["gpoa"]),
    "comm-cost-own-app": (two_provider_json(comm_cost(1, 1)), ["gpoa"]),
    "comm-cost-duplicate": (
        two_provider_json(lambda d: d.update(comm_costs=[
            {"provider": 2, "app": 1, "d": 0.5}, {"provider": 2, "app": 1, "d": 0.1},
        ])),
        ["gpoa"],
    ),
    "infinite-total-utility": (
        two_provider_json(lambda d: d["applications"][0].update(utility=HUGE_SLOPE)), ["gpoa"]
    ),
    "too-many-delta-steps": (two_provider_json(fine_delta_grid), ["solo"]),
    "nan-delta": (two_provider_json(lambda d: d.update(delta=math.nan)), ["solo"]),
    "nan-w1": (two_provider_json(lambda d: d["applications"][0].update(w1=math.nan)), ["gpoa"]),
    "huge-int-capacity": (
        two_provider_json(lambda d: d["providers"][0].update(capacity=[10**400])), ["solo"]
    ),
    "huge-int-capacity-setting1-seed1": (
        generated_json(1, 1, lambda d: d["providers"][0]["capacity"].__setitem__(0, 10**400)),
        ["solo"],
    ),
    "huge-int-delta": (two_provider_json(lambda d: d.update(delta=10**400)), ["solo"]),
    "bool-capacity": (
        two_provider_json(lambda d: d["providers"][0].update(capacity=[True])), ["solo"]
    ),
    "bool-delta": (two_provider_json(lambda d: d.update(delta=True)), ["solo"]),
    "int-total-utility-beyond-float-range": (
        two_provider_json(lambda d: d["applications"][0].update(
            request=[10**200], utility={"kind": "linear", "params": {"a": 10**200, "c": 0}}
        )),
        ["solo"],
    ),
    "unknown-order": (two_provider_json(), ["gpoa", "--order", "bogus"]),
    "order-resource-out-of-range": (two_provider_json(), ["gpoa", "--order", "cao:k=7"]),
    "explicit-order-not-surplus": (two_provider_json(), ["gpoa", "--order", "explicit:9,8"]),
    "table3-explicit-order": (two_provider_json(), ["table3", "--order", "explicit:2,3"]),
    "verify-explicit-order": (
        two_provider_json(), ["verify", "--no-sweep-orders", "--order", "explicit:2,3"]
    ),
    "verify-ppmpoa-order-resource-out-of-range": (
        two_provider_json(), ["verify", "--algorithm", "ppmpoa", "--order", "cao:k=7"]
    ),
    "misreport-unknown-provider": (two_provider_json(), ["misreport", "--provider", "99"]),
    "misreport-zero-factor": (
        two_provider_json(), ["misreport", "--provider", "1", "--cap-factor", "0"]
    ),
    "misreport-non-int-provider": (two_provider_json(), ["misreport", "--provider", "two"]),
    "misreport-missing-provider": (two_provider_json(), ["misreport"]),
    "misreport-beyond-delta-step-cap": (
        two_provider_json(),
        ["misreport", "--provider", "1", "--cap-factor", "1e9", "--req-factor", "1e9"],
    ),
    "misreport-beyond-delta-step-cap-setting1-seed1": (
        generated_json(1, 1),
        ["misreport", "--provider", "1", "--cap-factor", "1e9", "--req-factor", "1e9"],
    ),
    "verify-no-providers": (NO_PROVIDERS, ["verify"]),
    "table3-no-providers": (NO_PROVIDERS, ["table3"]),
    "verify-too-many-providers": (THIRTEEN_PROVIDERS, ["verify"]),
    "table3-too-many-providers": (THIRTEEN_PROVIDERS, ["table3"]),
    # [0.0] * K in metrics raised MemoryError at K = 10**12 and OverflowError at 10**20.
    "compare-no-providers-huge-K": (
        json.dumps({"K": 10**12, "providers": [], "applications": []}), ["compare"]
    ),
    "report-no-providers-huge-K": (
        json.dumps({"K": 10**20, "providers": [], "applications": []}),
        ["report", "--allocation", "alloc.json"],
        json.dumps({"allocation": {}}),
    ),
    "deep-json": (DEEP_JSON, ["solo"]),
    "report-deep-allocation": (
        two_provider_json(), ["report", "--allocation", "alloc.json"],
        '{"allocation": ' + DEEP_JSON + "}",
    ),
    "verify-order-resource-out-of-range": (two_provider_json(), ["verify", "--order", "cao:k=7"]),
    "verify-order-resource-out-of-range-setting3-seed1": (
        generated_json(3, 1), ["verify", "--order", "cao:k=7"]
    ),
    "duplicate-app-id": (two_provider_json(lambda d: d["applications"][1].update(id=1)), ["solo"]),
    "app-with-two-owners": (
        two_provider_json(lambda d: d["providers"][1].update(native_apps=[2, 1])), ["solo"]
    ),
    "unknown-native-app": (
        two_provider_json(lambda d: d["providers"][1].update(native_apps=[2, 9])), ["solo"]
    ),
    "app-not-listed-by-owner": (
        two_provider_json(lambda d: d["providers"][0].update(native_apps=[])), ["solo"]
    ),
    "unknown-utility-kind": (
        two_provider_json(lambda d: d["applications"][0].update(utility={"kind": "cubic"})),
        ["solo"],
    ),
    "utility-an-int": (two_provider_json(app_1_utility(5)), ["solo"]),
    "utility-a-list": (two_provider_json(app_1_utility([1])), ["solo"]),
    "utility-params-an-int": (
        two_provider_json(app_1_utility({"kind": "linear", "params": 3})), ["solo"]
    ),
    "utility-without-kind": (
        two_provider_json(app_1_utility({"params": {"a": 1.0, "c": 0.0}})), ["solo"]
    ),
    "linear-utility-without-params": (two_provider_json(app_1_utility({"kind": "linear"})), ["solo"]),
    "report-unknown-provider": report_case({"9:1": [1.0]}),
    "report-vector-too-long": report_case({"2:1": [1.0, 1.0]}),
    "report-string-entry": report_case({"2:1": ["1.0"]}),
    "report-nan-entry": report_case({"2:1": [math.nan]}),
    "report-huge-int-entry": report_case({"2:1": [10**400]}),
    "report-bool-entry": report_case({"2:1": [True]}),
    "report-negative-entry": report_case({"2:1": [-1.0]}),
    "report-unknown-app": report_case({"1:999": [1.0]}),
    # A key is read only as the CLI writes it, f"{n}:{j}"; int() takes the next four's parts.
    "report-key-padded": report_case({" 1 : 1 ": [1.0]}),
    "report-key-signed": report_case({"+1:+1": [1.0]}),
    "report-key-underscore": report_case({"1_0:1": [1.0]}),
    "report-key-leading-zero": report_case({"01:1": [1.0]}),
    "report-key-one-part": report_case({"1": [1.0]}),
    "report-key-three-parts": report_case({"1:1:1": [1.0]}),
    "report-key-not-int": report_case({"a:1": [1.0]}),
    "report-allocation-a-list": report_case([[1.0]]),
    "report-vector-an-int": report_case({"2:1": 5}),
    "report-vector-a-string": report_case({"2:1": "1.0"}),
    "report-over-capacity-and-request": report_case({"2:1": [1000.0]}),
    "providers-null": (two_provider_json(lambda d: d.update(providers=None)), ["solo"]),
    "providers-an-object": (two_provider_json(lambda d: d.update(providers={})), ["solo"]),
    "provider-null": (two_provider_json(lambda d: d["providers"].__setitem__(1, None)), ["solo"]),
    "applications-a-string": (two_provider_json(lambda d: d.update(applications="x")), ["solo"]),
    "application-an-int": (
        two_provider_json(lambda d: d["applications"].__setitem__(0, 5)), ["solo"]
    ),
    "comm-costs-an-empty-object": (two_provider_json(lambda d: d.update(comm_costs={})), ["gpoa"]),
    "capacity-an-int": (two_provider_json(provider_field(0, capacity=5)), ["solo"]),
    "capacity-null": (two_provider_json(provider_field(0, capacity=None)), ["solo"]),
    "capacity-a-string": (two_provider_json(provider_field(0, capacity="123")), ["solo"]),
    "native-apps-an-int": (two_provider_json(provider_field(1, native_apps=2)), ["solo"]),
    "native-apps-a-string": (two_provider_json(provider_field(1, native_apps="2")), ["solo"]),
    "request-an-int": (two_provider_json(app_field(0, request=4)), ["solo"]),
    "request-null": (two_provider_json(app_field(1, request=None)), ["solo"]),
    "request-a-string-entry": (two_provider_json(app_field(0, request=["x"])), ["solo"]),
    "comm-cost-a-list": (two_provider_json(lambda d: d.update(comm_costs=[[2, 1, 0.5]])), ["gpoa"]),
    "scenario-a-list": ("[1]", ["solo"]),
    "scenario-null": ("null", ["solo"]),
    "scenario-a-string": ('"x"', ["solo"]),
    "report-file-a-list": (two_provider_json(), ["report", "--allocation", "alloc.json"], "[1]"),
    "report-file-null": (two_provider_json(), ["report", "--allocation", "alloc.json"], "null"),
    "report-file-a-string": (two_provider_json(), ["report", "--allocation", "alloc.json"], '"x"'),
    # App 1 receives 1.1e-9 of its 7e-10 and provider 2 grants 1e-9 of its 9e-10.
    "report-over-bounds-below-1e-9": (
        sub_unit_json(1e-12, (3e-10, 9e-10), (7e-10, 2e-10)),
        ["report", "--allocation", "alloc.json"],
        json.dumps({"allocation": {"1:1": [3e-10], "2:2": [2e-10], "2:1": [8e-10]}}),
    ),
}


# The words of a case's reason, where its file also breaks another rule or its
# message moved from another place.
BAD_INPUT_REASONS = {
    "duplicate-app-id": "application ids must be unique",
    "app-with-two-owners": "app 1: multiple owners (1 and 2)",
    "unknown-native-app": "provider 2: unknown native app 9",
    "app-not-listed-by-owner": "app 1: not listed among native apps of owner 1",
    "unknown-utility-kind": "invalid scenario scenario.json: app 1: unknown utility kind 'cubic'",
    "utility-an-int": "app 1: utility must be an object",
    "utility-a-list": "app 1: utility must be an object",
    "utility-params-an-int": "app 1: utility params must be an object",
    "utility-without-kind": "app 1: utility must be an object with a 'kind'",
    "linear-utility-without-params": "app 1: utility params lack 'a'",
    "report-unknown-provider": "x[9,1]: unknown provider 9",
    "report-over-capacity-and-request": "invalid allocation alloc.json: provider 2 resource 0",
    "report-key-padded": "allocation key ' 1 : 1 ' is not <provider>:<app>",
    "report-key-signed": "allocation key '+1:+1' is not <provider>:<app>",
    "report-key-underscore": "allocation key '1_0:1' is not <provider>:<app>",
    "report-key-leading-zero": "allocation key '01:1' is not <provider>:<app>",
    "report-key-one-part": "allocation key '1' is not <provider>:<app>",
    "report-key-three-parts": "allocation key '1:1:1' is not <provider>:<app>",
    "report-key-not-int": "allocation key 'a:1' is not <provider>:<app>",
    "report-allocation-a-list": "'allocation' must be an object, got list",
    "report-vector-an-int": "allocation '2:1': vector must be a list, got int",
    "report-vector-a-string": "allocation '2:1': vector must be a list, got str",
    "providers-null": "cannot read scenario scenario.json: providers: expected a list, got null",
    "providers-an-object": "providers: expected a list, got object",
    "provider-null": "providers[1]: expected an object, got null",
    "applications-a-string": "applications: expected a list, got str",
    "application-an-int": "applications[0]: expected an object, got int",
    "comm-costs-an-empty-object": "comm_costs: expected a list, got object",
    "capacity-an-int": (
        "cannot read scenario scenario.json: providers[0].capacity: expected a list, got int"
    ),
    "capacity-null": "providers[0].capacity: expected a list, got null",
    "capacity-a-string": "providers[0].capacity: expected a list, got str",
    "native-apps-an-int": "providers[1].native_apps: expected a list, got int",
    "native-apps-a-string": "providers[1].native_apps: expected a list, got str",
    "request-an-int": "applications[0].request: expected a list, got int",
    "request-null": "applications[1].request: expected a list, got null",
    "request-a-string-entry": (
        "invalid scenario scenario.json: app 1 request: entry x must be finite and >= 0"
    ),
    "comm-cost-a-list": "comm_costs[0]: expected an object, got list",
    "scenario-a-list": "cannot read scenario scenario.json: scenario must be an object, got list",
    "scenario-null": "cannot read scenario scenario.json: scenario must be an object, got null",
    "scenario-a-string": "cannot read scenario scenario.json: scenario must be an object, got str",
    "report-file-a-list": "allocation alloc.json: allocation file must be an object, got list",
    "report-file-null": "allocation alloc.json: allocation file must be an object, got null",
    "report-file-a-string": "allocation alloc.json: allocation file must be an object, got str",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, case):
    text, argv, *allocation = BAD_INPUTS[case]
    (tmp_path / "scenario.json").write_text(text)
    if allocation:
        (tmp_path / "alloc.json").write_text(allocation[0])
    env = dict(os.environ, PYTHONPATH=str(Path(mecshare.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "mecshare.cli", argv[0], "--scenario", "scenario.json"]
        + argv[1:] + ["--out", "out"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert BAD_INPUT_REASONS.get(case, "") in lines[0]


@pytest.mark.parametrize("command", ["solo", "gpoa", "ppmpoa"])
def test_a_provider_without_apps_writes_a_float_solo_value(tmp_path, command):
    # Provider 2 owns no app, so its solo solve has no item and is worth 0.0.
    def drop_app_2(d):
        d["providers"][1].update(native_apps=[])
        del d["applications"][1]

    scenario = tmp_path / "scenario.json"
    scenario.write_text(two_provider_json(drop_app_2))
    out = tmp_path / "out.json"
    assert cli.run([command, "--scenario", str(scenario), "--out", str(out)]) == 0
    v_solo = json.loads(out.read_text())["payoffs"]["2"]["v_solo"]
    assert type(v_solo) is float and v_solo == 0.0


STEEP_SIGMOID = {"kind": "sigmoid", "params": {"mu": 1000.0}}


@pytest.mark.parametrize(
    "argv",
    [["solo"], ["gpoa"], ["ppmpoa"], ["verify", "--algorithm", "gpoa"],
     ["verify", "--algorithm", "ppmpoa"], ["table3"], ["compare"],
     ["misreport", "--provider", "1"]],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_steep_sigmoid_gives_a_result_without_overflow(tmp_path, argv):
    # mu * r is 4000 and 2000, so exp overflows at every allocation below the request.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        two_provider_json(lambda d: [a.update(utility=STEEP_SIGMOID) for a in d["applications"]])
    )
    out = tmp_path / "out"
    assert cli.run([argv[0], "--scenario", str(scenario), "--out", str(out)] + argv[1:]) in (0, 1)
    assert not re.search(r"\b(nan|inf|infinity)\b", out.read_text(), re.IGNORECASE)


# Imports nothing before recording sys.modules; prints the exit codes, then the
# top-level names of the modules the nine commands imported.
STDLIB_ONLY_SCRIPT = """
import sys
before = set(sys.modules)
from mecshare import cli
argvs = [
    ["gen", "--setting", "1", "--seed", "42", "--out", "s.json"],
    ["solo", "--scenario", "s.json", "--out", "solo.json"],
    ["gpoa", "--scenario", "s.json", "--out", "gpoa.json"],
    ["ppmpoa", "--scenario", "s.json", "--trace", "trace.csv", "--out", "ppmpoa.json"],
    ["verify", "--scenario", "s.json", "--out", "verify.json"],
    ["misreport", "--scenario", "s.json", "--provider", "2", "--out", "misreport.json"],
    ["table3", "--scenario", "s.json", "--out", "table3.csv"],
    ["compare", "--scenario", "s.json", "--out", "compare.json"],
    ["report", "--scenario", "s.json", "--allocation", "gpoa.json", "--out", "report.csv"],
]
print(*(cli.run(argv) for argv in argvs))
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_every_command_imports_only_the_standard_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mecshare.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY_SCRIPT],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = proc.stdout.splitlines()[-2:]
    assert codes.split() == ["0"] * 9, proc.stderr
    outside = set(modules.split()) - set(sys.stdlib_module_names) - {"mecshare"}
    assert not outside
