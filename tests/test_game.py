import dataclasses

import pytest

from mecshare import subsolver
from mecshare.model import Provider
from mecshare.gpoa import OrderingScheme, run_gpoa
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.game import (
    EmptyCoalition,
    TooManyProviders,
    check_no_blocking_coalition,
    check_rationality,
    check_superadditivity,
    coalition_value,
    enumerate_coalitions,
    misreport_experiment,
    realized_payoffs,
    restrict_scenario,
    run_events,
)
from mecshare.scengen import GenSpec, Stream, generate_scenario

from conftest import linear_app, make_scenario

CDO = OrderingScheme.cdo(0)


class TestRestrictScenario:
    def test_keeps_only_member_providers_and_their_apps(self, setting1_seed42):
        sub = restrict_scenario(setting1_seed42, frozenset({1, 3}))
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
        sub = restrict_scenario(s, frozenset({1}))
        assert sub.comm_costs == {}


class TestCoalitionValue:
    def test_singleton_equals_solo_objective(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {2}, CDO)
        solo = run_gpoa(restrict_scenario(setting1_seed42, frozenset({2})), CDO)
        assert value == pytest.approx(solo.payoffs[2].v_solo, abs=1e-9)
        assert payoffs == {2: pytest.approx(value)}

    def test_value_is_sum_of_member_payoffs(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {1, 2, 3}, CDO)
        assert value == pytest.approx(sum(payoffs.values()), rel=1e-12)

    def test_empty_and_unknown_members_rejected(self, setting1_seed42):
        with pytest.raises(EmptyCoalition):
            coalition_value(setting1_seed42, set(), CDO)
        with pytest.raises(ValueError):
            coalition_value(setting1_seed42, {9}, CDO)

    def test_ppmpoa_variant_runs(self, setting1_seed42):
        value, payoffs, _ = coalition_value(setting1_seed42, {1, 2, 3}, CDO, "ppmpoa")
        assert value == pytest.approx(sum(payoffs.values()), rel=1e-12)


class TestEnumerateCoalitions:
    def test_all_nonempty_subsets_present(self, setting1_seed42):
        report = enumerate_coalitions(setting1_seed42, CDO)
        assert len(report.entries) == 7
        assert frozenset({1, 2, 3}) in report.entries

    def test_provider_cap_enforced(self):
        providers = [Provider(id=i, capacity=(1.0,), native_apps=()) for i in range(13)]
        s = make_scenario(providers, [])
        with pytest.raises(TooManyProviders):
            enumerate_coalitions(s, CDO)


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
        events = run_events(s, "gpoa", CDO)
        replay_true = realized_payoffs(s, events)
        # Doubling every granted amount must not double the realized payoff:
        # grants beyond true capacity/requests are clipped on replay.
        for ev in events:
            ev.chunks = [(j, k, 2 * x) for j, k, x in ev.chunks]
        replay_doubled = realized_payoffs(s, events)
        for n in replay_true:
            assert replay_doubled[n] <= 2 * replay_true[n] + 1e-6


def with_comm_costs(s, seed):
    """Cost d ~ U[0, 0.5] for every provider serving every remote app."""
    rng = Stream(seed)
    costs = {
        (p.id, a.id): rng.uniform(0.0, 0.5)
        for p in s.providers
        for a in s.applications
        if a.owner != p.id
    }
    return dataclasses.replace(s, comm_costs=costs)


class TestCommCostsOnGeneratedScenarios:
    def test_costly_sharing_stays_consistent_and_rolls_back(self, monkeypatch):
        rolled_back = []
        rollback = subsolver._rollback_uncovered_cost

        def counting_rollback(s, n, state, result):
            granted = [key for key, x in result.allocation.items() if x > 0]
            result = rollback(s, n, state, result)
            rolled_back.extend(key for key in granted if result.allocation[key] == 0.0)
            return result

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
