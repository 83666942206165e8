"""Matching-based sharing: pair deficit providers with surplus providers round by round."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .model import AllocEvent, AllocState, AllocationTensor, Scenario, TOL
from .gpoa import Payoff, partition_players, run_solo_phase
from .subsolver import solve_pair_match


@dataclass
class MatchingMatrix:
    rows: List[int]  # deficit providers
    cols: List[int]  # surplus providers
    J: Dict[Tuple[int, int], float] = field(default_factory=dict)
    R: Dict[Tuple[int, int], float] = field(default_factory=dict)
    allocs: Dict[Tuple[int, int], Dict[Tuple[int, int], float]] = field(default_factory=dict)


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


@dataclass
class PpmpoaResult:
    allocation: AllocationTensor
    payoffs: Dict[int, Payoff]
    g1: List[int]
    g2: List[int]
    matches: List[MatchRecord]
    rounds: int
    events: List[AllocEvent] = field(default_factory=list)

    @property
    def order_used(self) -> List[int]:
        """Surplus providers in the order their matches were committed."""
        return [rec.n for rec in self.matches]


def build_matching_matrix(
    s: Scenario, state: AllocState, g1: List[int], g2: List[int]
) -> MatchingMatrix:
    """Candidate (value, resources, allocation) for every deficit/surplus pair.

    Each cell is evaluated on a private copy of the state; the shared state is
    left untouched.
    """
    matrix = MatchingMatrix(rows=list(g1), cols=list(g2))
    for n in g2:
        for m in g1:
            j_val, r_val, alloc = solve_pair_match(s, m, n, state.copy())
            matrix.J[(m, n)] = j_val
            matrix.R[(m, n)] = r_val
            matrix.allocs[(m, n)] = alloc
    return matrix


def select_match(matrix: MatchingMatrix) -> Tuple[int, int]:
    """Largest value wins; ties go to the cell using fewest resources, then lowest ids."""
    best: Tuple[int, int] | None = None
    for m in matrix.rows:
        for n in matrix.cols:
            if best is None:
                best = (m, n)
                continue
            cand, cur = matrix.J[(m, n)], matrix.J[best]
            if cand > cur:
                best = (m, n)
            elif cand == cur:
                r_cand, r_cur = matrix.R[(m, n)], matrix.R[best]
                if r_cand < r_cur or (r_cand == r_cur and (m, n) < best):
                    best = (m, n)
    assert best is not None
    return best


def _commit_match(
    s: Scenario, state: AllocState, alloc: AllocationTensor, matrix: MatchingMatrix,
    m: int, n: int, g1_active: List[int], g2_active: List[int],
) -> AllocEvent:
    """Commit cell (m, n) and retire whichever side it left without surplus or deficit."""
    ev = state.commit(s, alloc, n, matrix.allocs[(m, n)], "share")
    if not state.has_surplus(n):
        g2_active.remove(n)
    if not state.has_deficit(s, m):
        g1_active.remove(m)
    return ev


def run_ppmpoa(s: Scenario) -> PpmpoaResult:
    state, alloc, payoffs, events = run_solo_phase(s)
    g1, g2 = partition_players(s, state)
    g1_active, g2_active = list(g1), list(g2)

    matches: List[MatchRecord] = []
    round_no = 0
    while g1_active and g2_active:
        matrix = build_matching_matrix(s, state, g1_active, g2_active)
        m, n = select_match(matrix)
        j_val, r_val = matrix.J[(m, n)], matrix.R[(m, n)]
        if j_val <= s.epsilon_gain or r_val <= TOL:
            break
        round_no += 1
        matches.append(MatchRecord(round=round_no, m=m, n=n, value=j_val, resources=r_val))
        payoffs[n].sharing += j_val
        ev = _commit_match(s, state, alloc, matrix, m, n, g1_active, g2_active)
        bonus = 0.0
        for j, k, x in ev.chunks:
            r = s.app(j).request[k]
            if r > 0:
                bonus += x / r
        payoffs[m].bonus += bonus
        events.append(ev)

    return PpmpoaResult(
        allocation=alloc,
        payoffs=payoffs,
        g1=g1,
        g2=g2,
        matches=matches,
        rounds=round_no,
        events=events,
    )


def check_matching_stability(result: PpmpoaResult, s: Scenario) -> List[BlockingPair]:
    """Replay the match history and report any pair that objects to it.

    At each round the committed surplus provider must have been offered no
    larger value by any other available deficit provider.
    """
    state, alloc, _, _ = run_solo_phase(s)
    g1, g2 = partition_players(s, state)
    g1_active, g2_active = list(g1), list(g2)
    blocking: List[BlockingPair] = []

    for rec in result.matches:
        if rec.m not in g1_active or rec.n not in g2_active:
            blocking.append(
                BlockingPair(round=rec.round, m=rec.m, n=rec.n, value=float("nan"),
                             committed_value=rec.value)
            )
            continue
        matrix = build_matching_matrix(s, state, g1_active, g2_active)
        committed = matrix.J[(rec.m, rec.n)]
        for m_other in g1_active:
            if m_other != rec.m and matrix.J[(m_other, rec.n)] > committed:
                blocking.append(
                    BlockingPair(
                        round=rec.round,
                        m=m_other,
                        n=rec.n,
                        value=matrix.J[(m_other, rec.n)],
                        committed_value=committed,
                    )
                )
        _commit_match(s, state, alloc, matrix, rec.m, rec.n, g1_active, g2_active)
    return blocking
