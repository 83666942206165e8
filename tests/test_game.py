import dataclasses
import math

import pytest

from mecshare import game, subsolver
from mecshare.model import Provider
from mecshare.gpoa import OrderingScheme, run_gpoa
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.game import (
    PROPERTY_TOL,
    SWEEP_LIMIT,
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    coalition_value,
    enumerate_coalitions,
    misreport_experiment,
    realized_payoffs,
    run_algorithm,
)
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs

from conftest import failing_rationality_report, left_sum, linear_app, make_scenario

CDO = OrderingScheme.cdo(0)


class TestRestrictScenario:
    def test_keeps_only_member_providers_and_their_apps(self, setting1_seed42):
        sub = setting1_seed42.restrict(frozenset({1, 3}))
        assert sub.provider_ids() == [1, 3]
        assert all(a.owner in {1, 3} for a in sub.applications)
        assert len(sub.applications) == 6

    def test_comm_costs_filtered_to_members(self):
        apps = [
            linear_app(1, owner=1, request=(1.0,)),
            linear_app(2, owner=2, request=(1.0,)),
        ]
        s = make_scenario(
            [
                Provider(id=1, capacity=(1.0,), native_apps=(1,)),
                Provider(id=2, capacity=(1.0,), native_apps=(2,)),
            ],
            apps,
            comm_costs={(1, 2): 0.1, (2, 1): 0.2},
        )
        sub = s.restrict(frozenset({1}))
        assert sub.comm_costs == {}


class TestCoalitionValue:
    def test_singleton_equals_solo_objective(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {2}, CDO)
        solo = run_gpoa(setting1_seed42.restrict(frozenset({2})), CDO)
        assert value == pytest.approx(solo.payoffs[2].v_solo, abs=1e-9)
        assert payoffs == {2: pytest.approx(value)}

    def test_value_is_sum_of_member_payoffs(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {1, 2, 3}, CDO)
        assert value == pytest.approx(sum(payoffs.values()), rel=1e-12)

    def test_empty_and_unknown_members_rejected(self, setting1_seed42):
        with pytest.raises(ValueError, match="coalition must be nonempty"):
            coalition_value(setting1_seed42, set(), CDO)
        with pytest.raises(ValueError):
            coalition_value(setting1_seed42, {9}, CDO)

    def test_ppmpoa_variant_runs(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {1, 2, 3}, CDO, "ppmpoa")
        assert value == pytest.approx(sum(payoffs.values()), rel=1e-12)

    @pytest.mark.parametrize("algorithm", ["gpoa", "ppmpoa"])
    @pytest.mark.parametrize(
        "scheme",
        [OrderingScheme.explicit([6, 5, 4]), CDO, OrderingScheme.random(7)],
        ids=["explicit:6,5,4", "cdo:k=0", "random:seed=7"],
    )
    def test_every_coalition_is_the_unswept_enumerations_entry(self, scheme, algorithm):
        # An explicit order is restricted to each coalition's members, as the enumeration does;
        # a random order shuffles each coalition's own surplus set, so it is no such filter.
        s = generate_scenario(GenSpec(setting=3, seed=1, utility_kind="linear"))
        report = enumerate_coalitions(s, scheme, algorithm)
        for members, entry in report.entries.items():
            expected = (entry.value, entry.payoffs, entry.order_used)
            assert coalition_value(s, members, scheme, algorithm) == expected, sorted(members)


class TestEnumerateCoalitions:
    def test_all_nonempty_subsets_present(self, setting1_seed42):
        report = enumerate_coalitions(setting1_seed42, CDO)
        assert len(report.entries) == 7
        assert frozenset({1, 2, 3}) in report.entries

    def test_provider_cap_enforced(self):
        providers = [Provider(id=i, capacity=(1.0,), native_apps=()) for i in range(13)]
        s = make_scenario(providers, [])
        with pytest.raises(ValueError, match="13 providers exceeds cap of 12"):
            enumerate_coalitions(s, CDO)

    def test_no_providers_rejected(self):
        with pytest.raises(ValueError, match="scenario has no providers"):
            enumerate_coalitions(make_scenario([], []), CDO)

    def test_sweep_runs_the_scheme_once_above_the_limit(self):
        # Provider 1 lacks 2 units; providers 2.. each have a distinct surplus.
        surplus = range(2, SWEEP_LIMIT + 3)
        s = make_scenario(
            [Provider(id=1, capacity=(1.0,), native_apps=(1,))]
            + [Provider(id=n, capacity=(1.0 + 0.5 * n,), native_apps=(n,)) for n in surplus],
            [linear_app(1, owner=1, request=(3.0,))]
            + [linear_app(n, owner=n, request=(1.0,)) for n in surplus],
        )
        report = enumerate_coalitions(s, CDO, sweep_orders=True)
        plain = run_gpoa(s, CDO)
        assert report.grand().candidates == [
            (tuple(plain.order_used), {n: p.total for n, p in plain.payoffs.items()})
        ]
        at_limit = [e for m, e in report.entries.items() if len(m - {1}) == SWEEP_LIMIT]
        assert len(at_limit) == 2 * (SWEEP_LIMIT + 1)
        assert all(len(e.candidates) == math.factorial(SWEEP_LIMIT) for e in at_limit)

    def test_a_one_ulp_change_to_a_candidate_value_leaves_the_pick(self, monkeypatch):
        # Every swept candidate is worth 1.0 to its coalition, except that the
        # last surplus order of each sweep is worth one ulp more. Values one ulp
        # apart tie, so every entry still takes its smallest order. Swept
        # candidates are read off the walk; no member here lacks both deficit
        # and surplus, so each walked order's payoffs are a whole candidate.
        s = generate_scenario(GenSpec(setting=3, seed=1, utility_kind="linear"))
        real_walk = game.gpoa_walk

        def nudged(*args):
            walked = real_walk(*args)
            for order, payoffs in walked.items():
                value = 1.0
                if len(order) > 1 and list(order) == sorted(order, reverse=True):
                    value = math.nextafter(1.0, 2.0)
                first = min(payoffs, default=None)  # the empty order of no deficit member has none
                walked[order] = {n: value if n == first else 0.0 for n in payoffs}
            return walked

        monkeypatch.setattr(game, "gpoa_walk", nudged)
        report = enumerate_coalitions(s, CDO, sweep_orders=True)
        swept = [e for e in report.entries.values() if len(e.candidates) > 1]
        assert swept and report.grand() in swept
        for entry in swept:
            assert entry.order_used == sorted(entry.order_used)
            assert entry.value == 1.0


@pytest.fixture(scope="module")
def coalition_report():
    s = generate_scenario(GenSpec(setting=1, seed=42))
    return enumerate_coalitions(s, CDO)


class TestPropertyChecks:
    @pytest.fixture
    def report(self, coalition_report):
        return coalition_report

    def test_superadditivity_holds(self, report):
        verdict = check_superadditivity(report)
        assert verdict.passed, verdict.witnesses

    def test_rationality_holds(self, report):
        verdict = check_rationality(report)
        assert verdict.passed, verdict.witnesses

    def test_rationality_failure_names_each_witness(self):
        verdict = check_rationality(failing_rationality_report())
        assert not verdict.passed
        assert verdict.witnesses == [("individual", 1, 4.0, 5.0), ("group", 9.0, 10.0)]

    def test_no_blocking_coalition(self, report):
        verdict = check_no_blocking_coalition(report)
        assert verdict.passed, verdict.witnesses

    def test_grand_coalition_has_largest_value(self, report):
        grand = report.grand().value
        assert all(entry.value <= grand + 1e-9 for entry in report.entries.values())

    def test_order_sweep_recovers_core_on_order_sensitive_scenario(self):
        # Under the capacity-descending order this scenario's realized grand
        # vector is blocked by {3,5}; sweeping the surplus orders finds a
        # grand allocation no coalition improves upon.
        s = generate_scenario(GenSpec(setting=3, seed=4))
        plain = enumerate_coalitions(s, CDO)
        assert not check_no_blocking_coalition(plain).passed
        swept = enumerate_coalitions(s, CDO, sweep_orders=True)
        assert check_no_blocking_coalition(swept).passed
        assert check_superadditivity(swept).passed
        assert check_rationality(swept).passed

    @pytest.mark.parametrize(
        "setting,seed,utility,cost_seed,grand_rank,core",
        [
            (3, 6, "sigmoid", None, 4, True),  # the best four candidates are blocked
            (3, 4, "linear", 304, 1, True),
            (3, 9, "linear", None, 0, False),  # every candidate is blocked
        ],
    )
    def test_each_entry_takes_the_reference_pick(
        self, setting, seed, utility, cost_seed, grand_rank, core
    ):
        s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
        if cost_seed is not None:
            s = with_comm_costs(s, cost_seed)
        report = enumerate_coalitions(s, CDO, sweep_orders=True)
        full = frozenset(s.provider_ids())

        def blocked(vec):
            return any(
                all(other[n] > vec.get(n, 0.0) + PROPERTY_TOL for n in members)
                for members, entry in report.entries.items() if members != full
                for _, other in entry.candidates
            )

        for members, entry in report.entries.items():
            # Value highest first, ties to the smaller surplus order; a value
            # within PROPERTY_TOL * (1 + |best|) of the best ties with it.
            best = max(left_sum(c[1].values()) for c in entry.candidates)
            near = lambda v: best if v >= best - PROPERTY_TOL * (1 + abs(best)) else v  # noqa: E731
            ranked = sorted(entry.candidates, key=lambda c: (-near(left_sum(c[1].values())), c[0]))
            rank = 0
            if members == full:
                rank = next((i for i, c in enumerate(ranked) if not blocked(c[1])), 0)
                assert (rank, len(ranked)) == (grand_rank, 6)
                unblocked = any(not blocked(vec) for _, vec in ranked)
                assert unblocked is core
                assert check_no_blocking_coalition(report).passed is unblocked
            order, payoffs = ranked[rank]
            assert (entry.order_used, entry.payoffs) == (list(order), payoffs)
            assert entry.value == left_sum(payoffs.values())

    def test_superadditivity_failure_is_witnessed(self, report):
        # Corrupt the grand value downward; the check must produce witnesses.
        import copy

        broken = copy.deepcopy(report)
        broken.entries[frozenset({1, 2, 3})].value = 0.0
        verdict = check_superadditivity(broken)
        assert not verdict.passed
        assert verdict.witnesses


class TestRealizedPayoffs:
    def test_truthful_replay_matches_algorithm_payoffs(self, setting1_seed42):
        res = run_gpoa(setting1_seed42, CDO)
        replay = realized_payoffs(setting1_seed42, res.events)
        for n, p in res.payoffs.items():
            assert replay[n] == pytest.approx(p.total, rel=1e-9, abs=1e-9)

    def test_truthful_ppmpoa_replay_matches(self, setting1_seed42):
        res = run_ppmpoa(setting1_seed42)
        replay = realized_payoffs(setting1_seed42, res.events)
        for n, p in res.payoffs.items():
            assert replay[n] == pytest.approx(p.total, rel=1e-9, abs=1e-9)

    def test_overclaimed_grants_are_clipped(self, setting1_seed42):
        s = setting1_seed42
        events = run_algorithm(s, "gpoa", CDO).events
        replay_true = realized_payoffs(s, events)
        # Doubling every granted amount must not double the realized payoff:
        # grants beyond true capacity/requests are clipped on replay.
        events = [
            dataclasses.replace(ev, chunks=tuple((j, k, 2 * x) for j, k, x in ev.chunks))
            for ev in events
        ]
        replay_doubled = realized_payoffs(s, events)
        for n in replay_true:
            assert replay_doubled[n] <= 2 * replay_true[n] + 1e-6


class TestCommCostsOnGeneratedScenarios:
    def test_costly_sharing_stays_consistent_and_rolls_back(self, monkeypatch):
        rolled_back = []
        rollback = subsolver._rollback_uncovered_cost

        def counting_rollback(s, n, state, result):
            allocation = rollback(s, n, state, result)
            rolled_back.extend(
                key for key, x in result.allocation.items() if x > 0 and allocation[key] == 0.0
            )
            return allocation

        monkeypatch.setattr(subsolver, "_rollback_uncovered_cost", counting_rollback)
        for setting in (1, 2):
            for utility in ("linear", "sigmoid"):
                s = generate_scenario(GenSpec(setting=setting, seed=3, utility_kind=utility))
                s = with_comm_costs(s, 100 * setting + len(utility))
                pres = run_ppmpoa(s)
                for res in (run_gpoa(s, CDO), pres):
                    assert res.allocation.check_feasibility(s) == []
                    total = sum(p.total for p in res.payoffs.values())
                    replay = sum(realized_payoffs(s, res.events).values())
                    assert abs(replay - total) <= 1e-9 * max(1.0, abs(total))
                assert check_matching_stability(pres, s) == []
        assert rolled_back


class TestMisreport:
    def test_identity_factors_reproduce_truthful_payoff(self, setting1_seed42):
        truthful, misreport = misreport_experiment(setting1_seed42, 2, 1.0, 1.0)
        assert misreport == pytest.approx(truthful, rel=1e-12)

    @pytest.mark.parametrize("fc,fr", [(0.5, 1.0), (1.0, 1.5), (1.5, 0.75)])
    def test_misreporting_never_profits(self, setting1_seed42, fc, fr):
        for n in setting1_seed42.provider_ids():
            truthful, misreport = misreport_experiment(setting1_seed42, n, fc, fr)
            assert misreport <= truthful + 1e-6

    def test_nonpositive_factors_rejected(self, setting1_seed42):
        with pytest.raises(ValueError):
            misreport_experiment(setting1_seed42, 1, 0.0, 1.0)

    @pytest.mark.parametrize(
        "fc,fr,problem",
        [(1e9, 1e9, "delta-steps"), (1e300, 1e300, "delta-steps"), (1.0, 1e-9, "exceeds smallest")],
    )
    def test_invalid_report_rejected(self, setting1_seed42, fc, fr, problem):
        # Unchecked, a report of 1e9 times the requests would need ~1e12 delta-steps.
        with pytest.raises(ValueError, match=problem):
            misreport_experiment(setting1_seed42, 1, fc, fr)

    def test_capacity_keyed_ordering_is_manipulable(self, setting1_seed42):
        # Documented limitation: under a capacity-descending order a surplus
        # provider can under-report its own requests, reserve capacity, and
        # jump the sharing queue ahead of a bigger rival. The experiment's
        # default fixed-shuffle ordering closes this loophole.
        truthful, misreport = misreport_experiment(
            setting1_seed42, 2, 1.5, 0.75, scheme=OrderingScheme.cdo(0)
        )
        assert misreport > truthful + 1.0
        truthful, misreport = misreport_experiment(setting1_seed42, 2, 1.5, 0.75)
        assert misreport <= truthful + 1e-6
