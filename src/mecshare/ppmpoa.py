"""Matching-based sharing: pair deficit providers with surplus providers round by round."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .model import AllocEvent, AllocState, Scenario
from .gpoa import RunResult, credit_bonus, partition_players, start_run
from .subsolver import ShareMemo, SubproblemResult, solve_surplus_share


@dataclass
class MatchingMatrix:
    J: Dict[Tuple[int, int], SubproblemResult] = field(default_factory=dict)


@dataclass
class MatchRecord:
    round: int
    m: int
    n: int
    value: float
    resources: float


@dataclass
class BlockingPair:
    round: int
    m: int
    n: int
    value: float
    committed_value: float


def build_matching_matrix(
    s: Scenario, state: AllocState, g1: List[int], g2: List[int], memo: ShareMemo
) -> MatchingMatrix:
    """Every deficit/surplus pair's share solve, the very result `solve_surplus_share` returned.

    Cell (m, n) is n's share solve over m's deficit apps; every m in g1 has
    one. The solves leave the state untouched. After a committed match
    (m, n), a cell outside row m and column n reads neither m's apps nor n's
    remaining capacity, so it is a hit in `memo`.
    """
    matrix = MatchingMatrix()
    apps = {m: state.deficit_apps(s, [m]) for m in g1}
    for n in g2:
        for m in g1:
            matrix.J[(m, n)] = solve_surplus_share(s, n, state, apps[m], memo)
    return matrix


def select_match(matrix: MatchingMatrix) -> Tuple[int, int]:
    """Largest value wins; ties go to the cell using fewest resources, then lowest ids."""
    J = matrix.J
    return min(J, key=lambda c: (-J[c].objective_value, J[c].resources_used, c))


def _commit_match(
    s: Scenario, state: AllocState, matrix: MatchingMatrix,
    m: int, n: int, g1_active: List[int], g2_active: List[int],
) -> AllocEvent:
    """Commit cell (m, n) and retire whichever side it left without surplus or deficit."""
    ev = state.commit(n, matrix.J[(m, n)].allocation, "share")
    if not state.has_surplus(s, n):
        g2_active.remove(n)
    if not state.deficit_apps(s, [m]):
        g1_active.remove(m)
    return ev


def run_ppmpoa(s: Scenario, share_memo: ShareMemo | None = None) -> RunResult:
    memo = {} if share_memo is None else share_memo
    state, payoffs = start_run(s)
    g1_active, g2_active = partition_players(s)

    matches: List[MatchRecord] = []
    while g1_active and g2_active:
        matrix = build_matching_matrix(s, state, g1_active, g2_active, memo)
        m, n = select_match(matrix)
        j_val, r_val = matrix.J[(m, n)].objective_value, matrix.J[(m, n)].resources_used
        if j_val <= s.epsilon_gain or r_val <= s.tol:
            break
        matches.append(MatchRecord(round=len(matches) + 1, m=m, n=n, value=j_val, resources=r_val))
        payoffs[n].sharing += j_val
        credit_bonus(s, payoffs, _commit_match(s, state, matrix, m, n, g1_active, g2_active))

    return RunResult(
        payoffs=payoffs,
        order_used=[rec.n for rec in matches],
        events=state.events,
        K=s.K,
        matches=matches,
        share_memo=(s, memo),
    )


def check_matching_stability(result: RunResult, s: Scenario) -> List[BlockingPair]:
    """Replay the match history and report any pair that objects to it.

    At each round the committed surplus provider must have been offered no
    larger value by any other available deficit provider. The replay builds
    only that provider's column. Replayed on the scenario object its run was
    made on, it builds the column through the run's share memo: a memo key
    holds all the state a solve reads, so the cells of an untampered history
    are all hits, and a tampered one solves its misses. A replay on any other
    scenario solves through a fresh memo of its own.
    """
    memo = result.share_memo[1] if result.share_memo and result.share_memo[0] is s else {}
    state = start_run(s)[0]
    g1_active, g2_active = partition_players(s)
    blocking: List[BlockingPair] = []

    for rec in result.matches:
        if rec.m not in g1_active or rec.n not in g2_active:
            blocking.append(
                BlockingPair(round=rec.round, m=rec.m, n=rec.n, value=float("nan"),
                             committed_value=rec.value)
            )
            continue
        matrix = build_matching_matrix(s, state, g1_active, [rec.n], memo)
        value = matrix.J[(rec.m, rec.n)].objective_value
        for m_other in g1_active:
            if m_other != rec.m and matrix.J[(m_other, rec.n)].objective_value > value:
                blocking.append(
                    BlockingPair(
                        round=rec.round,
                        m=m_other,
                        n=rec.n,
                        value=matrix.J[(m_other, rec.n)].objective_value,
                        committed_value=value,
                    )
                )
        _commit_match(s, state, matrix, rec.m, rec.n, g1_active, g2_active)
    return blocking
