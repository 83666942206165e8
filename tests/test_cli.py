import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mecshare
from mecshare.cli import main
from mecshare.model import load_scenario


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

    def test_ppmpoa_verify_includes_matching_stability(self, scenario_file, tmp_path):
        out = tmp_path / "verify.json"
        assert main(
            ["verify", "--scenario", scenario_file, "--algorithm", "ppmpoa", "--out", str(out)]
        ) == 0
        assert read_json(str(out))["matching_stable"] is True


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

    def test_compare_lists_all_modes(self, scenario_file, tmp_path):
        out = tmp_path / "compare.csv"
        assert main(
            ["compare", "--scenario", scenario_file, "--orderings", "cao:k=0,cdo:k=0",
             "--out", str(out)]
        ) == 0
        with open(out) as fh:
            modes = {row["mode"] for row in csv.DictReader(fh)}
        assert {"alone", "gpoa[cao:k=0]", "gpoa[cdo:k=0]", "ppmpoa"} <= modes

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


class TestErrorHandling:
    def test_missing_scenario_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solo", "--scenario", str(tmp_path / "nope.json"), "--out",
                  str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"K": 0, "providers": [], "applications": []}))
        with pytest.raises(SystemExit) as exc:
            main(["solo", "--scenario", str(bad), "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "invalid scenario" in capsys.readouterr().err


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


BAD_INPUTS = {
    "malformed-json": ("{not json", ["solo"]),
    "missing-K": (two_provider_json(lambda d: d.pop("K")), ["solo"]),
    "nan-delta": (two_provider_json(lambda d: d.update(delta=math.nan)), ["solo"]),
    "nan-w1": (two_provider_json(lambda d: d["applications"][0].update(w1=math.nan)), ["gpoa"]),
    "unknown-order": (two_provider_json(), ["gpoa", "--order", "bogus"]),
    "order-resource-out-of-range": (two_provider_json(), ["gpoa", "--order", "cao:k=7"]),
    "explicit-order-not-surplus": (two_provider_json(), ["gpoa", "--order", "explicit:9,8"]),
    "table3-explicit-order": (two_provider_json(), ["table3", "--order", "explicit:2,3"]),
    "verify-explicit-order": (
        two_provider_json(), ["verify", "--no-sweep-orders", "--order", "explicit:2,3"]
    ),
    "misreport-unknown-provider": (two_provider_json(), ["misreport", "--provider", "99"]),
    "misreport-zero-factor": (
        two_provider_json(), ["misreport", "--provider", "1", "--cap-factor", "0"]
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, case):
    text, argv = BAD_INPUTS[case]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(mecshare.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "mecshare.cli", argv[0], "--scenario", str(scenario)]
        + argv[1:] + ["--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
