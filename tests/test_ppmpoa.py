import itertools
from types import MappingProxyType

import pytest

from mecshare import ppmpoa
from mecshare.model import Provider
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa, start_run
from mecshare.ppmpoa import (
    MatchingMatrix,
    check_matching_stability,
    run_ppmpoa,
    select_match,
)
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import SubproblemResult

from conftest import linear_app, make_scenario


class TestSelectMatch:
    def _matrix(self, j, r):
        return MatchingMatrix(
            J={c: SubproblemResult(MappingProxyType({}), value, r[c]) for c, value in j.items()}
        )

    def test_largest_value_wins(self):
        m = self._matrix({(1, 4): 2.0, (2, 4): 5.0}, {(1, 4): 1.0, (2, 4): 9.0})
        assert select_match(m) == (2, 4)

    def test_value_tie_prefers_fewer_resources(self):
        m = self._matrix({(1, 4): 5.0, (2, 4): 5.0}, {(1, 4): 3.0, (2, 4): 1.0})
        assert select_match(m) == (2, 4)

    def test_full_tie_prefers_lowest_pair(self):
        m = self._matrix(
            {(1, 4): 5.0, (1, 5): 5.0, (2, 4): 5.0, (2, 5): 5.0},
            {(1, 4): 2.0, (1, 5): 2.0, (2, 4): 2.0, (2, 5): 2.0},
        )
        assert select_match(m) == (1, 4)


class TestRunPpmpoa:
    def test_two_provider_example_matches_gpoa(self):
        apps = [
            linear_app(1, owner=1, request=(4.0,), a=1.0),
            linear_app(2, owner=2, request=(2.0,), a=1.0),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(2.0,), native_apps=(1,)),
                Provider(id=2, capacity=(6.0,), native_apps=(2,)),
            ],
            apps,
        )
        res = run_ppmpoa(s)
        assert res.rounds == 1
        assert (res.matches[0].m, res.matches[0].n) == (1, 2)
        assert res.matches[0].value == pytest.approx(3.0, abs=1e-8)
        assert res.payoffs[1].total == pytest.approx(3.0, abs=1e-8)
        assert res.payoffs[2].total == pytest.approx(6.0, abs=1e-8)
        assert res.allocation.check_feasibility(s) == []

    def test_no_surplus_means_no_rounds(self):
        apps = [linear_app(1, owner=1, request=(4.0,), a=1.0)]
        s = make_scenario([Provider(id=1, capacity=(2.0,), native_apps=(1,))], apps)
        res = run_ppmpoa(s)
        assert res.rounds == 0
        assert res.matches == []

    @pytest.mark.parametrize("setting", [1, 3])
    @pytest.mark.parametrize("utility", ["linear", "sigmoid"])
    def test_generated_scenarios_stay_feasible(self, setting, utility):
        s = generate_scenario(GenSpec(setting=setting, seed=5, utility_kind=utility))
        res = run_ppmpoa(s)
        assert res.allocation.check_feasibility(s) == []

    def test_match_values_are_positive_and_rounds_bounded(self, setting3_seed7):
        res = run_ppmpoa(setting3_seed7)
        g1, g2 = partition_players(setting3_seed7)
        assert res.rounds == len(res.matches)
        for rec in res.matches:
            assert rec.value > setting3_seed7.epsilon_gain
            assert rec.resources > 0
            assert rec.m in g1 and rec.n in g2

    def test_payoffs_never_below_solo(self, setting3_seed7):
        res = run_ppmpoa(setting3_seed7)
        for p in res.payoffs.values():
            assert p.total >= p.v_solo - 1e-9

    def test_deterministic_across_runs(self, setting3_seed7):
        a = run_ppmpoa(setting3_seed7)
        b = run_ppmpoa(setting3_seed7)
        assert a.allocation.entries == b.allocation.entries
        assert [(r.m, r.n, r.value) for r in a.matches] == [
            (r.m, r.n, r.value) for r in b.matches
        ]

    def test_fragmentation_not_worse_than_gpoa_on_sample(self, setting3_seed7):
        from mecshare.metrics import fragmentation_index

        gpoa = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        ppmpoa = run_ppmpoa(setting3_seed7)
        _, frag_g = fragmentation_index(setting3_seed7, gpoa.allocation)
        _, frag_p = fragmentation_index(setting3_seed7, ppmpoa.allocation)
        assert frag_p <= frag_g + 1e-12


def test_matrix_cells_are_the_memos_own_results(setting3_seed7):
    s, memo = setting3_seed7, {}
    run_ppmpoa(s, memo)
    solved = len(memo)
    g1, g2 = partition_players(s)
    matrix = ppmpoa.build_matching_matrix(s, start_run(s)[0], g1, g2, memo)
    assert len(memo) == solved  # the run's first round built these cells: all hits
    assert len(matrix.J) == len(g1) * len(g2) > 1
    assert all(any(cell is res for res in memo.values()) for cell in matrix.J.values())


class TestMatchingStability:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_committed_matches_have_no_objectors(self, setting):
        s = generate_scenario(GenSpec(setting=setting, seed=11))
        res = run_ppmpoa(s)
        assert check_matching_stability(res, s) == []

    def test_tampered_history_is_flagged(self, setting3_seed7):
        res = run_ppmpoa(setting3_seed7)
        assert len(res.matches) >= 2
        # Swap the first two rounds: the replay should object somewhere.
        res.matches[0], res.matches[1] = res.matches[1], res.matches[0]
        assert check_matching_stability(res, setting3_seed7) != []


@pytest.mark.parametrize("setting", [1, 2, 3, 4])
def test_every_matrix_row_has_a_deficit_app(monkeypatch, setting):
    """Cell (m, n) is n's share solve over m's deficit apps, so every m that a
    matrix build is given, by the run or by its replay, must still have one."""
    rows = {"run": [], "replay": []}  # caller -> (m, m's deficit apps) per row built
    caller = ["run"]
    build = ppmpoa.build_matching_matrix

    def checking(s_, state, g1, g2, memo):
        rows[caller[0]].extend((m, state.deficit_apps(s_, [m])) for m in g1)
        return build(s_, state, g1, g2, memo)

    monkeypatch.setattr(ppmpoa, "build_matching_matrix", checking)
    for seed, utility, costs in itertools.product(range(1, 5), ("linear", "sigmoid"), (False, True)):
        s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
        if costs:
            s = with_comm_costs(s, 100 * setting + seed)
        caller[0] = "run"
        result = run_ppmpoa(s)
        caller[0] = "replay"
        check_matching_stability(result, s)
    assert rows["run"] and rows["replay"]
    for m, apps in rows["run"] + rows["replay"]:
        assert apps, f"provider {m} reached the matrix without a deficit app"
