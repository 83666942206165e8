"""The share-solve memo, passed explicitly by the call that owns its scope.

One coalition enumeration passes one memo to every run it makes; each PPMPOA
run and each stability replay otherwise solves through a fresh memo of its
own; plain GPOA runs take none. A memoised enumeration must give the same bits
as solving every share subproblem again, and no memo outlives its owner:
nothing the caller keeps can reach it.
"""
import gc
import itertools
import types

import pytest

from mecshare import game, gpoa, subsolver
from mecshare.game import coalition_value, enumerate_coalitions
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa, run_solo_phase
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario

from conftest import with_comm_costs

CDO = OrderingScheme.cdo(0)


def record_share_solves(monkeypatch):
    """Patch solve_surplus_share wherever it is bound; return the memo each call was given."""
    memos = []
    solve = subsolver.solve_surplus_share

    def recording(s, n, state, deficit_apps, memo=None):
        memos.append(memo)
        return solve(s, n, state, deficit_apps, memo)

    monkeypatch.setattr(subsolver, "solve_surplus_share", recording)
    monkeypatch.setattr(gpoa, "solve_surplus_share", recording)
    return memos


@pytest.mark.parametrize(
    "setting,utility,costs",
    list(itertools.product((1, 2, 3, 4), ("linear", "sigmoid"), (False, True))),
)
def test_every_candidate_equals_a_memo_free_run(setting, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=2, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 10 * setting + len(utility))
    for algorithm, sweep in (("gpoa", True), ("ppmpoa", False)):
        report = enumerate_coalitions(s, CDO, algorithm, sweep_orders=sweep)
        for members, entry in report.entries.items():
            for order, payoffs in entry.candidates:
                _, expected, used = coalition_value(
                    s, members, OrderingScheme.explicit(order), algorithm
                )
                assert payoffs == expected
                assert tuple(used) == order


def test_swept_enumeration_solves_fewer_shares_than_it_asks_for(monkeypatch):
    s = generate_scenario(GenSpec(setting=3, seed=4))
    assert len(s.provider_ids()) == 6
    asked = record_share_solves(monkeypatch)
    solved = []
    greedy = subsolver.allocate_greedy

    def counting(spec, delta, epsilon_gain):
        if spec.kind == "share":
            solved.append(spec)
        return greedy(spec, delta, epsilon_gain)

    monkeypatch.setattr(subsolver, "allocate_greedy", counting)
    enumerate_coalitions(s, CDO, sweep_orders=True)
    assert 0 < len(solved) < len(asked)


def test_only_the_enumeration_hands_out_a_memo(monkeypatch):
    s = with_comm_costs(generate_scenario(GenSpec(setting=3, seed=7)), 5)
    memos = record_share_solves(monkeypatch)
    run_gpoa(s, CDO)
    game.misreport_experiment(s, s.provider_ids()[-1], 1.5, 0.75)
    assert memos and all(memo is None for memo in memos)

    memos.clear()
    enumerate_coalitions(s, CDO, sweep_orders=True)
    assert len({id(memo) for memo in memos}) == 1 and memos[0]


def test_each_ppmpoa_run_and_replay_solves_through_a_fresh_memo(monkeypatch):
    s = with_comm_costs(generate_scenario(GenSpec(setting=3, seed=7)), 5)
    memos = record_share_solves(monkeypatch)
    owned = []
    for _ in range(2):
        result = run_ppmpoa(s)
        check_matching_stability(result, s)
        run_memo = memos[0]
        replay_memo = memos[-1]
        assert run_memo and replay_memo and run_memo is not replay_memo
        assert all(memo is run_memo or memo is replay_memo for memo in memos)
        assert {id(run_memo), id(replay_memo)}.isdisjoint(reachable(s, result))
        owned += [run_memo, replay_memo]
        memos.clear()
    assert len({id(memo) for memo in owned}) == 4


def reachable(*roots):
    """Ids of every object reachable from the roots through data, not code or modules."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
        if hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return seen


@pytest.mark.parametrize("algorithm,sweep", [("gpoa", True), ("gpoa", False), ("ppmpoa", False)])
def test_memo_ends_with_the_enumeration(monkeypatch, algorithm, sweep):
    s = generate_scenario(GenSpec(setting=3, seed=2))
    memos = record_share_solves(monkeypatch)
    report = enumerate_coalitions(s, CDO, algorithm, sweep_orders=sweep)
    memo = memos[-1]
    assert memo and all(m is memo for m in memos)
    assert id(memo) not in reachable(s, report, report.grand_result)


def test_mutating_a_hit_leaves_the_next_hit_unchanged():
    s = generate_scenario(GenSpec(setting=3, seed=7))
    memo = {}
    state = run_solo_phase(s)[0]
    g1, g2 = partition_players(s, state)
    apps = [a.id for m in g1 for a in s.apps_of(m) if state.app_has_deficit(a.id)]

    def solve():
        return subsolver.solve_surplus_share(s, g2[0], state, apps, memo)

    def fields(res):
        return dict(res.allocation), res.objective_value, res.resources_used

    miss = solve()
    expected = fields(miss)
    assert len(memo) == 1 and any(x > 0 for x in miss.allocation.values())
    for res in (miss, solve()):
        res.allocation.clear()
        res.objective_value = -1.0
        res.resources_used = -1.0
        assert fields(solve()) == expected
    assert len(memo) == 1
