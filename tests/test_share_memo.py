"""The share-solve memo, handed to every share solve by the call that owns its scope.

One coalition enumeration passes one memo to every share solve it makes; any
other run solves through a fresh memo of its own, and a PPMPOA result keeps
its memo for the stability replay. An enumeration, whose GPOA candidates
share their surplus-order prefixes across coalitions, must give the same
bits as a run of each candidate outside it. A replay on the
run's own scenario is all memo hits, and one on any other scenario solves
through a fresh memo, not the run's. No memo is reachable from a scenario,
and an enumeration's memo ends with the enumeration. A memo holds each solve's
immutable result and hands out that very object on a hit.
"""
import dataclasses
import gc
import itertools
import types

import pytest

from mecshare import game, gpoa, ppmpoa, subsolver
from mecshare.game import coalition_value, enumerate_coalitions
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa, run_solo_phase
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs

from conftest import append_providers, left_sum


CDO = OrderingScheme.cdo(0)


def record_share_solves(monkeypatch):
    """Patch solve_surplus_share wherever it is bound; return the memo each call was given."""
    memos = []
    solve = subsolver.solve_surplus_share

    def recording(s, n, state, deficit_apps, memo):
        memos.append(memo)
        return solve(s, n, state, deficit_apps, memo)

    for module in (subsolver, gpoa, ppmpoa):
        monkeypatch.setattr(module, "solve_surplus_share", recording)
    return memos


def count_greedy_calls(monkeypatch):
    """Patch allocate_greedy; return the spec kind of each call that reached it."""
    calls = []
    greedy = subsolver.allocate_greedy

    def counting(spec, delta, epsilon_gain):
        calls.append(spec.kind)
        return greedy(spec, delta, epsilon_gain)

    monkeypatch.setattr(subsolver, "allocate_greedy", counting)
    return calls


def seven_providers():
    """Setting-1 seed 2 (provider 1 in deficit, 2 and 3 in surplus), plus providers
    2 and 3 of seeds 3 and 4, renumbered 4 to 7.

    Provider 4's capacity is set to its apps' summed requests, so its solo phase
    leaves it neither deficit nor surplus. One enumeration then has swept
    coalitions, coalitions past SWEEP_LIMIT, and a member with neither, whose
    id is neither the smallest nor the largest.
    """
    s = generate_scenario(GenSpec(setting=1, seed=2))
    for seed in (3, 4):
        s = append_providers(s, generate_scenario(GenSpec(setting=1, seed=seed)), [2, 3])
    used_up = tuple(left_sum(a.request[k] for a in s.apps_of(4)) for k in range(s.K))
    providers = [
        dataclasses.replace(p, capacity=used_up) if p.id == 4 else p for p in s.providers
    ]
    return dataclasses.replace(s, providers=tuple(providers))


@pytest.mark.parametrize(
    "setting,utility,costs",
    list(itertools.product((1, 2, 3, 4), ("linear", "sigmoid"), (False, True)))
    + [("merged", "linear", False)],
)
def test_every_candidate_equals_a_run_outside_the_enumeration(setting, utility, costs):
    if setting == "merged":
        s = seven_providers()
        assert partition_players(s) == ([1], [2, 3, 5, 6, 7]) and game.SWEEP_LIMIT < 5
    else:
        s = generate_scenario(GenSpec(setting=setting, seed=2, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 10 * setting + len(utility))
    for algorithm, sweep in (("gpoa", True), ("gpoa", False), ("ppmpoa", False)):
        report = enumerate_coalitions(s, CDO, algorithm, sweep_orders=sweep)
        for members, entry in report.entries.items():
            for order, payoffs in entry.candidates:
                _, expected, used = coalition_value(
                    s, members, OrderingScheme.explicit(order), algorithm
                )
                assert list(payoffs.items()) == list(expected.items())
                assert tuple(used) == order


@pytest.mark.parametrize(
    "scheme,sweep,candidates,steps",
    [(CDO, True, 127, 79), (CDO, False, 63, 41), (OrderingScheme.random(7), False, 63, 44)],
    ids=["swept", "unswept-cdo:k=0", "unswept-random:seed=7"],
)
def test_an_enumeration_takes_each_share_step_once(monkeypatch, scheme, sweep, candidates, steps):
    # Every share step asked for is a distinct subproblem. Run one by one, the
    # swept candidates' orders took 201 share steps, and the unswept coalitions
    # 75 under cdo:k=0 and 79 under random:seed=7.
    s = generate_scenario(GenSpec(setting=3, seed=4))
    assert len(s.provider_ids()) == 6
    asked = record_share_solves(monkeypatch)
    solved = count_greedy_calls(monkeypatch)
    report = enumerate_coalitions(s, scheme, sweep_orders=sweep)
    assert sum(len(entry.candidates) for entry in report.entries.values()) == candidates
    assert len(asked) == solved.count("share") == steps


def memo_runs(memos):
    """The memos in call order, each stretch of calls given the same memo once."""
    return [next(calls) for _, calls in itertools.groupby(memos, key=id)]


def test_only_the_enumeration_shares_a_memo_between_runs(monkeypatch):
    s = with_comm_costs(generate_scenario(GenSpec(setting=3, seed=7)), 5)
    memos = record_share_solves(monkeypatch)
    run_gpoa(s, CDO)
    game.misreport_experiment(s, s.provider_ids()[-1], 1.5, 0.75)
    # The GPOA run and the misreport's truthful and reported runs: a fresh memo each.
    assert len(memo_runs(memos)) == len({id(memo) for memo in memos}) == 3

    memos.clear()
    enumerate_coalitions(s, CDO, sweep_orders=True)
    assert len({id(memo) for memo in memos}) == 1 and memos[0]


@pytest.mark.parametrize("setting,costs", list(itertools.product((1, 3), (False, True))))
def test_every_share_solve_is_handed_a_dict(monkeypatch, setting, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=3))
    if costs:
        s = with_comm_costs(s, setting)
    memos = record_share_solves(monkeypatch)
    calls = []

    def calls_of(work):
        memos.clear()
        result = work()
        calls.extend(memos)
        return result, memo_runs(memos)

    plain = []
    for scheme in (OrderingScheme.cao(0), CDO, OrderingScheme.random(3)):
        plain += calls_of(lambda: run_gpoa(s, scheme))[1]
    result, ppmpoa_memos = calls_of(lambda: run_ppmpoa(s))
    plain += ppmpoa_memos
    assert len(plain) == 4  # one memo per run
    assert len({id(memo) for memo in plain}) == 4  # distinct per run
    assert not {id(memo) for memo in plain} & reachable(s)  # none kept by the scenario

    run_memo = result.share_memo[1]
    assert calls_of(lambda: check_matching_stability(result, s))[1] == [run_memo]
    (other_memo,) = calls_of(lambda: check_matching_stability(result, dataclasses.replace(s)))[1]
    assert other_memo is not run_memo
    for algorithm in ("gpoa", "ppmpoa"):
        n = s.provider_ids()[-1]
        misreport_memos = calls_of(lambda: game.misreport_experiment(s, n, 1.5, 0.75, algorithm))[1]
        assert len({id(memo) for memo in misreport_memos}) == 2
    for algorithm, sweep in (("gpoa", True), ("gpoa", False), ("ppmpoa", False)):
        enumeration_memos = calls_of(lambda: enumerate_coalitions(s, CDO, algorithm, sweep))[1]
        assert len({id(memo) for memo in enumeration_memos}) == 1
    assert calls and all(type(memo) is dict for memo in calls)


def test_each_ppmpoa_run_solves_through_a_fresh_memo_its_result_keeps(monkeypatch):
    s = with_comm_costs(generate_scenario(GenSpec(setting=3, seed=7)), 5)
    memos = record_share_solves(monkeypatch)
    owned = []
    for _ in range(2):
        result = run_ppmpoa(s)
        run_memo = memos[0]
        assert run_memo and all(memo is run_memo for memo in memos)
        assert result.share_memo == (s, run_memo) and result.share_memo[0] is s
        assert id(run_memo) not in reachable(s)
        owned.append(run_memo)
        memos.clear()
    assert owned[0] is not owned[1]


@pytest.mark.parametrize("setting", [1, 2, 3, 4])
def test_an_untampered_replay_is_all_hits_in_its_runs_memo(monkeypatch, setting):
    memos = record_share_solves(monkeypatch)
    greedy_calls = count_greedy_calls(monkeypatch)
    replayed = 0
    for seed in range(1, 5):
        for utility in ("linear", "sigmoid"):
            s = with_comm_costs(
                generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility)), seed
            )
            result = run_ppmpoa(s)
            run_memo = result.share_memo[1]
            solved = dict(run_memo)
            memos.clear()
            greedy_calls.clear()
            assert check_matching_stability(result, s) == []
            assert greedy_calls == []
            assert all(memo is run_memo for memo in memos)
            assert run_memo == solved
            replayed += len(memos)
    assert replayed


def test_a_replay_on_another_scenario_solves_without_the_runs_memo(monkeypatch):
    s = generate_scenario(GenSpec(setting=3, seed=7))
    result = run_ppmpoa(s)
    assert result.rounds >= 2
    run_memo = result.share_memo[1]
    memoless = dataclasses.replace(result, share_memo=None)
    for other in (dataclasses.replace(s), with_comm_costs(s, 6)):
        want = check_matching_stability(memoless, other)
        memos = record_share_solves(monkeypatch)
        greedy_calls = count_greedy_calls(monkeypatch)
        assert check_matching_stability(result, other) == want
        (replay_memo,) = memo_runs(memos)
        assert type(replay_memo) is dict and replay_memo is not run_memo
        assert "share" in greedy_calls
        monkeypatch.undo()
    # The costs make a pair object to the run's history, which the run's own
    # cost-free solves would not show.
    assert want and check_matching_stability(result, s) == []


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
    assert id(memo) not in reachable(s, report)


def test_mutating_a_hit_leaves_the_next_hit_unchanged():
    s = generate_scenario(GenSpec(setting=3, seed=7))
    memo = {}
    state = run_solo_phase(s)[0]
    g1, g2 = partition_players(s)
    apps = state.deficit_apps(s, g1)

    def solve():
        return subsolver.solve_surplus_share(s, g2[0], state, apps, memo)

    def fields(res):
        return dict(res.allocation), res.objective_value, res.resources_used

    miss = solve()
    expected = fields(miss)
    assert len(memo) == 1 and any(x > 0 for x in miss.allocation.values())
    hit = solve()
    assert hit is miss
    key = next(iter(hit.allocation))
    with pytest.raises(TypeError):
        hit.allocation[key] = -1.0
    with pytest.raises(AttributeError):
        hit.allocation.clear()
    for name in ("allocation", "objective_value", "resources_used"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(hit, name, -1.0)
    assert fields(solve()) == expected
    assert len(memo) == 1
