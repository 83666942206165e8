"""Work done once: the post-solo record per scenario and the memoised PPMPOA matrix.

The reference functions below are the PPMPOA loop and stability replay as they
were when every round rebuilt every matrix cell on a private copy of the
state, kept verbatim apart from the cell solve, which is written out in full.
The memoised build must give the same bits.
"""
import copy
import dataclasses
import itertools
from types import MappingProxyType
from typing import List

import pytest

from mecshare import game, gpoa, ppmpoa, subsolver
from mecshare.game import (
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    enumerate_coalitions,
    misreport_experiment,
)
from mecshare.gpoa import (
    OrderingScheme,
    RunResult,
    partition_players,
    run_gpoa,
    run_solo_phase,
)
from mecshare.model import (
    AllocState,
    Scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from mecshare.ppmpoa import (
    BlockingPair,
    MatchingMatrix,
    MatchRecord,
    _commit_match,
    check_matching_stability,
    run_ppmpoa,
    select_match,
)
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs
from mecshare.subsolver import SubproblemResult, solve_single_provider, solve_surplus_share

from conftest import append_providers, left_sum


def fresh(s: Scenario) -> Scenario:
    """An equal scenario that shares no post-solo record with `s`."""
    return scenario_from_dict(scenario_to_dict(s))


# --- frozen full-rebuild reference -----------------------------------------


def reference_build_matching_matrix(
    s: Scenario, state: AllocState, g1: List[int], g2: List[int]
) -> MatchingMatrix:
    """Candidate (value, resources, allocation) for every deficit/surplus pair.

    Each cell is evaluated on a private copy of the state; the shared state is
    left untouched.
    """
    matrix = MatchingMatrix()
    for n in g2:
        for m in g1:
            cell = copy.deepcopy(state)
            deficit_apps = cell.deficit_apps(s, [m])
            if deficit_apps:
                res = solve_surplus_share(s, n, cell, deficit_apps, {})
            else:
                res = SubproblemResult(MappingProxyType({}), 0.0, 0.0)
            matrix.J[(m, n)] = res
    return matrix


def reference_run_ppmpoa(s: Scenario) -> RunResult:
    state, alloc, payoffs, events = run_solo_phase(s)
    g1, g2 = partition_players(s)
    g1_active, g2_active = list(g1), list(g2)

    matches: List[MatchRecord] = []
    round_no = 0
    while g1_active and g2_active:
        matrix = reference_build_matching_matrix(s, state, g1_active, g2_active)
        m, n = select_match(matrix)
        j_val, r_val = matrix.J[(m, n)].objective_value, matrix.J[(m, n)].resources_used
        if j_val <= s.epsilon_gain or r_val <= s.tol:
            break
        round_no += 1
        matches.append(MatchRecord(round=round_no, m=m, n=n, value=j_val, resources=r_val))
        payoffs[n].sharing += j_val
        ev = _commit_match(s, state, matrix, m, n, g1_active, g2_active)
        bonus = 0.0
        for j, k, x in ev.chunks:
            r = s.app(j).request[k]
            if r > 0:
                bonus += x / r
        payoffs[m].bonus += bonus

    return RunResult(
        K=s.K,
        payoffs=payoffs,
        order_used=[rec.n for rec in matches],
        events=events,
        matches=matches,
    )


def reference_check_matching_stability(result: RunResult, s: Scenario) -> List[BlockingPair]:
    """Replay the match history and report any pair that objects to it.

    At each round the committed surplus provider must have been offered no
    larger value by any other available deficit provider.
    """
    state, alloc, _, _ = run_solo_phase(s)
    g1, g2 = partition_players(s)
    g1_active, g2_active = list(g1), list(g2)
    blocking: List[BlockingPair] = []

    for rec in result.matches:
        if rec.m not in g1_active or rec.n not in g2_active:
            blocking.append(
                BlockingPair(round=rec.round, m=rec.m, n=rec.n, value=float("nan"),
                             committed_value=rec.value)
            )
            continue
        matrix = reference_build_matching_matrix(s, state, g1_active, g2_active)
        committed = matrix.J[(rec.m, rec.n)].objective_value
        for m_other in g1_active:
            if m_other != rec.m and matrix.J[(m_other, rec.n)].objective_value > committed:
                blocking.append(
                    BlockingPair(
                        round=rec.round,
                        m=m_other,
                        n=rec.n,
                        value=matrix.J[(m_other, rec.n)].objective_value,
                        committed_value=committed,
                    )
                )
        _commit_match(s, state, matrix, rec.m, rec.n, g1_active, g2_active)
    return blocking


# --- memoised matrix against the reference ----------------------------------


def run_fields(result: RunResult):
    return (
        [(r.round, r.m, r.n, r.value, r.resources) for r in result.matches],
        result.rounds,
        {n: (p.v_solo, p.sharing, p.bonus, p.total) for n, p in result.payoffs.items()},
        [(ev.phase, ev.allocator, ev.chunks) for ev in result.events],
        result.allocation.entries,
    )


def blocking_fields(blocking: List[BlockingPair]):
    # repr, so that the NaN of a pair absent from the active sets compares equal.
    return [(b.round, b.m, b.n, repr(b.value), b.committed_value) for b in blocking]


SCENARIOS = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in (1, 2, 3)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", SCENARIOS,
    ids=[f"s{st}-seed{sd}-{u}-{'costs' if c else 'free'}" for st, sd, u, c in SCENARIOS],
)
def test_incremental_matrix_matches_full_rebuild(setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    got = run_ppmpoa(s)
    want = reference_run_ppmpoa(fresh(s))
    assert run_fields(got) == run_fields(want)
    assert blocking_fields(check_matching_stability(got, s)) == blocking_fields(
        reference_check_matching_stability(want, fresh(s))
    )
    if len(got.matches) >= 2:
        # Swapped rounds: both replays must object in the same places.
        for res in (got, want):
            res.matches[0], res.matches[1] = res.matches[1], res.matches[0]
        assert blocking_fields(check_matching_stability(got, s)) == blocking_fields(
            reference_check_matching_stability(want, fresh(s))
        )


def test_tampered_history_still_reports_blocking_pairs():
    s = generate_scenario(GenSpec(setting=3, seed=7))
    res = run_ppmpoa(s)
    assert len(res.matches) >= 3
    # Move the last round to the front: the replay must object somewhere.
    res.matches.insert(0, res.matches.pop())
    blocking = check_matching_stability(res, s)
    assert blocking != []
    assert blocking_fields(blocking) == blocking_fields(
        reference_check_matching_stability(res, fresh(s))
    )


def test_matrix_re_evaluates_only_the_committed_row_and_column(monkeypatch):
    s = generate_scenario(GenSpec(setting=4, seed=2))
    builds = []  # per build: (g1, g2, the cells whose share solve reached the allocator)
    cell = []

    def recording_share(s_, n, state, deficit_apps, memo):
        (m,) = {s_.app(j).owner for j in deficit_apps}
        cell[:] = [(m, n)]
        return share(s_, n, state, deficit_apps, memo)

    def counting_greedy(spec, delta, epsilon_gain):
        if spec.kind == "share":
            builds[-1][2].append(cell[0])
        return greedy(spec, delta, epsilon_gain)

    def recording_build(s_, state, g1, g2, memo):
        builds.append((list(g1), list(g2), []))
        return build(s_, state, g1, g2, memo)

    share, greedy, build = solve_surplus_share, subsolver.allocate_greedy, ppmpoa.build_matching_matrix
    monkeypatch.setattr(ppmpoa, "solve_surplus_share", recording_share)
    monkeypatch.setattr(subsolver, "allocate_greedy", counting_greedy)
    monkeypatch.setattr(ppmpoa, "build_matching_matrix", recording_build)
    result = run_ppmpoa(s)
    assert result.rounds >= 2 and len(builds) - result.rounds in (0, 1)
    g1, g2, solved = builds[0]
    assert sorted(solved) == sorted((m, n) for m in g1 for n in g2)
    for (g1, g2, solved), committed in zip(builds[1:], result.matches):
        stale = [(m, n) for m in g1 for n in g2 if m == committed.m or n == committed.n]
        assert sorted(solved) == sorted(stale)


COSTED = [scenario for scenario in SCENARIOS if scenario[3]]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", COSTED,
    ids=[f"s{st}-seed{sd}-{u}" for st, sd, u, _ in COSTED],
)
def test_match_resources_equal_the_committed_grants(setting, seed, utility, costs):
    s = with_comm_costs(
        generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility)),
        1000 * setting + 10 * seed + len(utility),
    )
    result = run_ppmpoa(s)
    shares = [ev for ev in result.events if ev.phase == "share"]
    assert len(shares) == len(result.matches)
    for rec, ev in zip(result.matches, shares):
        assert rec.resources == left_sum(x for _, _, x in ev.chunks)


def test_stability_replay_builds_only_the_committed_column(monkeypatch):
    s = generate_scenario(GenSpec(setting=4, seed=2))
    result = run_ppmpoa(s)
    columns = []

    def recording_build(s_, state, g1, g2, memo):
        columns.append(list(g2))
        return build(s_, state, g1, g2, memo)

    build = ppmpoa.build_matching_matrix
    monkeypatch.setattr(ppmpoa, "build_matching_matrix", recording_build)
    assert check_matching_stability(result, s) == []
    assert len(partition_players(s)[1]) >= 2 and result.rounds >= 2
    assert columns == [[rec.n] for rec in result.matches]


# --- the post-solo record ---------------------------------------------------


def count_solo_solves(monkeypatch):
    solves = []

    def counting(s, n):
        solves.append(n)
        return solve_single_provider(s, n)

    monkeypatch.setattr(gpoa, "solve_single_provider", counting)
    return solves


def test_each_provider_is_solved_once_per_scenario(monkeypatch):
    s = generate_scenario(GenSpec(setting=3, seed=4))
    solves = count_solo_solves(monkeypatch)
    for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(3)):
        run_gpoa(s, scheme)
    check_matching_stability(run_ppmpoa(s), s)
    assert sorted(solves) == s.provider_ids()


def test_memo_holds_the_solo_solve(monkeypatch):
    s = generate_scenario(GenSpec(setting=2, seed=9, utility_kind="sigmoid"))
    solves = count_solo_solves(monkeypatch)
    _, _, payoffs, events = run_solo_phase(s)
    run_solo_phase(s)
    assert solves == s.provider_ids()
    for n, ev in zip(s.provider_ids(), events):
        res = solve_single_provider(s, n)
        want = [(j, k, x) for (j, k), x in sorted(res.allocation.items()) if x > 0]
        assert s.post_solo[n].v_solo == payoffs[n].v_solo == res.objective_value
        assert s.post_solo[n].event is ev and list(ev.chunks) == want


def test_restriction_shares_the_memo_and_replace_does_not(monkeypatch):
    s = generate_scenario(GenSpec(setting=2, seed=3))
    ids = s.provider_ids()
    solves = count_solo_solves(monkeypatch)
    sub = s.restrict(frozenset(ids[:2]))
    run_gpoa(sub, OrderingScheme.cdo(0))
    assert solves == ids  # the parent's solves only: the restriction solves nothing
    assert list(sub.post_solo) == ids[:2]
    for n in sub.post_solo:
        assert sub.post_solo[n] is s.post_solo[n]
    others = [
        dataclasses.replace(s),
        with_comm_costs(s, 5),
        game._scaled_scenario(s, ids[0], 1.0, 1.0),
    ]
    for other in others:
        assert other.post_solo is not s.post_solo
    assert solves == ids * (1 + len(others))


def coalition_table(report):
    return {
        members: (e.value, e.payoffs, e.order_used, e.candidates)
        for members, e in report.entries.items()
    }


def assert_candidates_are_fresh_runs(s: Scenario, report) -> None:
    """Every candidate of `report`, keys in order, is a GPOA run under its order on
    its coalition rebuilt from the file format, which solves its own solo records."""
    for members, entry in report.entries.items():
        sub = fresh(s.restrict(members))
        for order, payoffs in entry.candidates:
            result = run_gpoa(sub, OrderingScheme.explicit(order))
            assert [(n, p.total) for n, p in result.payoffs.items()] == list(payoffs.items())


@pytest.mark.parametrize("setting,seed", [(2, 5), (3, 2)])
def test_swept_enumeration_equals_fresh_scenario_per_coalition(monkeypatch, setting, seed):
    s = generate_scenario(GenSpec(setting=setting, seed=seed))
    scheme = OrderingScheme.cdo(0)
    run_gpoa(s, scheme)  # the scenario's post-solo record is now built

    solves = count_solo_solves(monkeypatch)
    cached = enumerate_coalitions(s, scheme, sweep_orders=True)
    assert solves == []

    assert_candidates_are_fresh_runs(s, cached)
    assert len(solves) > len(s.provider_ids())


def eight_providers() -> Scenario:
    """Linear setting-3 seed 1 plus the first two providers of seed 2, renumbered 7 and 8."""
    base = generate_scenario(GenSpec(setting=3, seed=1))
    return append_providers(base, generate_scenario(GenSpec(setting=3, seed=2)), [1, 2])


def verdicts(report):
    return [
        (v.name, v.passed, v.witnesses)
        for v in (
            check_superadditivity(report),
            check_rationality(report),
            check_no_blocking_coalition(report),
        )
    ]


def test_eight_provider_enumeration_equals_fresh_scenario_per_coalition():
    s = eight_providers()
    assert validate_scenario(s) == []
    assert len(s.provider_ids()) == 8
    scheme = OrderingScheme.cdo(0)
    cached = enumerate_coalitions(s, scheme, sweep_orders=True)
    rebuilt = enumerate_coalitions(fresh(s), scheme, sweep_orders=True)
    assert len(cached.entries) == 255
    assert coalition_table(cached) == coalition_table(rebuilt)
    assert verdicts(cached) == verdicts(rebuilt)
    assert_candidates_are_fresh_runs(s, cached)


def bits(value):
    """`value` with every float as its hex string and every dict as its item list, in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(bits(k), bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [(f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    return value


RECORD_SCENARIOS = [
    (setting, seed, utility, costs)
    for setting in (1, 2, 3, 4)
    for seed in (1, 2)
    for utility in ("linear", "sigmoid")
    for costs in (False, True)
]


@pytest.mark.parametrize(
    "setting,seed,utility,costs", RECORD_SCENARIOS,
    ids=[f"s{st}-seed{sd}-{u}-{'costs' if c else 'free'}" for st, sd, u, c in RECORD_SCENARIOS],
)
def test_restricted_record_equals_a_fresh_one_bit_for_bit(setting, seed, utility, costs):
    s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1000 * setting + 10 * seed + len(utility))
    ids = s.provider_ids()
    for size in range(1, len(ids) + 1):
        for members in itertools.combinations(ids, size):
            sub = s.restrict(frozenset(members))
            rebuilt = fresh(sub)
            assert bits(sub.post_solo) == bits(rebuilt.post_solo)
            assert bits(run_solo_phase(sub)) == bits(run_solo_phase(rebuilt))


def test_swept_enumeration_solves_and_commits_each_solo_once(monkeypatch):
    s = generate_scenario(GenSpec(setting=3, seed=4))
    solves = count_solo_solves(monkeypatch)
    solo_commits = []
    commit = AllocState.commit

    def counting_commit(self, n, allocation, phase):
        if phase == "solo":
            solo_commits.append(n)
        return commit(self, n, allocation, phase)

    monkeypatch.setattr(AllocState, "commit", counting_commit)
    report = enumerate_coalitions(s, OrderingScheme.cdo(0), sweep_orders=True)
    assert sum(len(e.candidates) for e in report.entries.values()) > len(report.entries) > 6
    assert solves == solo_commits == s.provider_ids()


def test_misreport_solves_the_scaled_provider_again(monkeypatch):
    s = generate_scenario(GenSpec(setting=3, seed=7))
    n = partition_players(s)[0][0]  # a deficit provider: capacity binds
    runs = []

    def recording(s_, algorithm, scheme):
        result = run_gpoa(s_, scheme)
        runs.append((s_, result.events))
        return result

    monkeypatch.setattr(game, "run_algorithm", recording)
    outcome = misreport_experiment(s, n, 1.5, 1.0)
    (truth_s, _), (reported, reported_events) = runs
    assert truth_s is s
    scaled_solve = solve_single_provider(game._scaled_scenario(fresh(s), n, 1.5, 1.0), n)
    want = [(j, k, x) for (j, k), x in sorted(scaled_solve.allocation.items()) if x > 0]
    solo_n = next(ev for ev in reported_events if ev.phase == "solo" and ev.allocator == n)
    assert list(solo_n.chunks) == want
    assert want != list(s.post_solo[n].event.chunks)
    monkeypatch.undo()
    assert misreport_experiment(fresh(s), n, 1.5, 1.0) == outcome


def test_mutating_a_result_does_not_reach_a_later_run():
    s = generate_scenario(GenSpec(setting=2, seed=6))
    scheme = OrderingScheme.cdo(0)
    first = run_gpoa(s, scheme)
    for p in first.payoffs.values():
        p.v_solo += 100.0
    ppm = run_ppmpoa(s)
    ppm.payoffs[s.provider_ids()[0]].v_solo = -1.0
    state, _, payoffs, _ = run_solo_phase(s)
    state.remaining_capacity[s.provider_ids()[0]][0] = 0.0
    payoffs[s.provider_ids()[0]].bonus = 9.0

    def dump(res):
        return (
            {n: (p.v_solo, p.sharing, p.bonus) for n, p in res.payoffs.items()},
            [(ev.phase, ev.allocator, ev.chunks) for ev in res.events],
            res.allocation.entries,
        )

    assert dump(run_gpoa(s, scheme)) == dump(run_gpoa(fresh(s), scheme))
    assert dump(run_ppmpoa(s)) == dump(run_ppmpoa(fresh(s)))
