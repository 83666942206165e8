import dataclasses

import pytest

from mecshare.model import Provider
from mecshare.gpoa import (
    OrderingScheme,
    order_surplus,
    parse_ordering,
    partition_players,
    run_gpoa,
    run_solo_phase,
)
from mecshare.ppmpoa import run_ppmpoa
from mecshare.scengen import DEFICIT_SETS, GenSpec, Stream, generate_scenario, with_comm_costs

from conftest import linear_app, make_scenario


def two_provider_scenario():
    """Deficit provider 1 (app 1: request 4, cap 2); surplus provider 2 (cap 6)."""
    apps = [
        linear_app(1, owner=1, request=(4.0,), a=1.0),
        linear_app(2, owner=2, request=(2.0,), a=1.0),
    ]
    return make_scenario(
        [
            Provider(id=1, capacity=(2.0,), native_apps=(1,)),
            Provider(id=2, capacity=(6.0,), native_apps=(2,)),
        ],
        apps,
    )


def fully_served_scenario():
    """One provider whose capacity exactly covers its one app."""
    apps = [linear_app(1, owner=1, request=(2.0,), a=1.0)]
    return make_scenario([Provider(id=1, capacity=(2.0,), native_apps=(1,))], apps)


def deficit_with_leftover_scenario():
    """Provider 1 misses resource 0 and keeps resource 1; provider 2 keeps both."""
    apps = [
        linear_app(1, owner=1, request=(4.0, 1.0), a=1.0),
        linear_app(2, owner=2, request=(1.0, 1.0), a=1.0),
    ]
    return make_scenario(
        [
            Provider(id=1, capacity=(2.0, 5.0), native_apps=(1,)),
            Provider(id=2, capacity=(3.0, 3.0), native_apps=(2,)),
        ],
        apps,
        K=2,
    )


def partition_of_solo_state(s):
    """The deficit/surplus rule applied to the state `run_solo_phase` hands out."""
    state = run_solo_phase(s)[0]
    g1 = [n for n in s.provider_ids() if state.deficit_apps(s, [n])]
    g2 = [n for n in s.provider_ids() if state.has_surplus(s, n) and n not in g1]
    return g1, g2


class TestParseOrdering:
    def test_round_trip_forms(self):
        assert parse_ordering("cao") == OrderingScheme.cao(0)
        assert parse_ordering("cao:k=2") == OrderingScheme.cao(2)
        assert parse_ordering("cdo:k=1") == OrderingScheme.cdo(1)
        assert parse_ordering("random:seed=7") == OrderingScheme.random(7)
        assert parse_ordering("explicit:4,5,6") == OrderingScheme.explicit((4, 5, 6))

    @pytest.mark.parametrize("text", ["cao:x=1", "random:7", "bogus", "random:seed=a"])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_ordering(text)


class TestOrderSurplus:
    def _scenario(self, caps):
        """Providers without apps: each keeps its whole capacity and has surplus."""
        providers = [Provider(id=n, capacity=(c,), native_apps=()) for n, c in caps.items()]
        return make_scenario(providers, [])

    def test_cao_sorts_ascending_by_remaining_capacity(self):
        s = self._scenario({4: 5.0, 5: 1.0, 6: 3.0})
        assert order_surplus(s, OrderingScheme.cao(0)) == [5, 6, 4]

    def test_cdo_sorts_descending(self):
        s = self._scenario({4: 5.0, 5: 1.0, 6: 3.0})
        assert order_surplus(s, OrderingScheme.cdo(0)) == [4, 6, 5]

    def test_capacity_ties_break_on_provider_id(self):
        s = self._scenario({5: 2.0, 4: 2.0})
        assert order_surplus(s, OrderingScheme.cao(0)) == [4, 5]
        assert order_surplus(s, OrderingScheme.cdo(0)) == [4, 5]

    def test_random_matches_stream_shuffle(self):
        s = self._scenario({6: 3.0, 5: 2.0, 4: 1.0})
        expected = Stream(99).shuffle([4, 5, 6])
        assert order_surplus(s, OrderingScheme.random(99)) == expected

    def test_explicit_must_be_a_permutation(self):
        s = self._scenario({4: 1.0, 5: 2.0})
        assert order_surplus(s, OrderingScheme.explicit((5, 4))) == [5, 4]
        with pytest.raises(ValueError, match="is not a permutation of"):
            order_surplus(s, OrderingScheme.explicit((4, 6)))

    def test_cao_and_cdo_sort_by_post_solo_capacity(self):
        # Provider 4 has the larger raw capacity (10 > 3) and, once its app
        # takes 9, the smaller remaining one (1 < 3).
        s = make_scenario(
            [
                Provider(id=4, capacity=(10.0,), native_apps=(1,)),
                Provider(id=5, capacity=(3.0,), native_apps=()),
            ],
            [linear_app(1, owner=4, request=(9.0,), a=1.0)],
        )
        assert s.post_solo[4].remaining_capacity[0] == pytest.approx(1.0, abs=1e-9)
        assert order_surplus(s, OrderingScheme.cao(0)) == [4, 5]
        assert order_surplus(s, OrderingScheme.cdo(0)) == [5, 4]
        assert run_gpoa(s, OrderingScheme.cao(0)).order_used == [4, 5]

    @pytest.mark.parametrize("scheme", [OrderingScheme.cao(1), OrderingScheme.cdo(-1)])
    def test_cao_and_cdo_resource_must_exist(self, scheme):
        with pytest.raises(ValueError, match="names no resource type of K=1"):
            order_surplus(self._scenario({4: 1.0}), scheme)


class TestSoloPhase:
    def test_solo_payoffs_and_state(self):
        s = two_provider_scenario()
        state, alloc, payoffs, events = run_solo_phase(s)
        assert payoffs[1].v_solo == pytest.approx(2.5, abs=1e-9)
        assert payoffs[2].v_solo == pytest.approx(3.0, abs=1e-9)
        assert state.remaining_capacity[1][0] == pytest.approx(0.0, abs=1e-9)
        assert state.remaining_capacity[2][0] == pytest.approx(4.0, abs=1e-9)
        assert s.app(1).request[0] - state.allocated[1][0] == pytest.approx(2.0, abs=1e-9)
        assert [e.phase for e in events] == ["solo", "solo"]

    def test_partition_after_solo(self):
        s = two_provider_scenario()
        g1, g2 = partition_players(s)
        assert g1 == [1]
        assert g2 == [2]

    def test_fully_served_provider_with_no_leftover_is_in_neither_group(self):
        s = fully_served_scenario()
        assert partition_players(s) == ([], [])

    @pytest.mark.parametrize(
        "build", [two_provider_scenario, fully_served_scenario, deficit_with_leftover_scenario]
    )
    def test_partition_reads_the_solo_records_of_hand_built_scenarios(self, build):
        s = build()
        assert partition_players(s) == partition_of_solo_state(s)

    def test_a_deficit_provider_with_leftover_capacity_is_not_surplus(self):
        s = deficit_with_leftover_scenario()
        assert s.post_solo[1].deficit and s.post_solo[1].surplus
        assert partition_players(s) == ([1], [2])

    @pytest.mark.parametrize("costs", [False, True], ids=["free", "costs"])
    @pytest.mark.parametrize("utility", ["linear", "sigmoid"])
    @pytest.mark.parametrize("setting", [1, 2, 3, 4])
    def test_partition_reads_the_solo_records(self, setting, utility, costs):
        for seed in range(1, 9):
            s = generate_scenario(GenSpec(setting=setting, seed=seed, utility_kind=utility))
            if costs:
                s = with_comm_costs(s, 100 * setting + seed)
            assert partition_players(s) == partition_of_solo_state(s)

    @pytest.mark.parametrize("costs", [False, True], ids=["free", "costs"])
    def test_runs_share_the_solo_records_events(self, costs):
        s = generate_scenario(GenSpec(setting=3, seed=2))
        if costs:
            s = with_comm_costs(s, 302)
        for res in (run_gpoa(s, OrderingScheme.cdo(0)), run_gpoa(s, OrderingScheme.cao(0)),
                    run_ppmpoa(s)):
            solo = [ev for ev in res.events if ev.phase == "solo"]
            assert [ev.allocator for ev in solo] == s.provider_ids()
            assert all(ev is s.post_solo[ev.allocator].event for ev in solo)
        with pytest.raises(dataclasses.FrozenInstanceError):
            solo[0].chunks = ()
        shared = next(ev for ev in res.events if ev.phase == "share")
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.chunks = ()


class TestRunGpoa:
    def test_hand_example_payoffs(self):
        s = two_provider_scenario()
        res = run_gpoa(s, OrderingScheme.cdo(0))
        # Sharing: provider 2 fills app 1's gap of 2:
        # A_2 = (u(4)-u(2)) + (2/2)^2 = 3; B_1 = 2/4 = 0.5
        assert res.payoffs[1].total == pytest.approx(3.0, abs=1e-8)
        assert res.payoffs[2].total == pytest.approx(6.0, abs=1e-8)
        assert res.payoffs[1].bonus == pytest.approx(0.5, abs=1e-9)
        assert res.payoffs[2].sharing == pytest.approx(3.0, abs=1e-8)
        assert partition_players(s) == ([1], [2])
        assert res.allocation.entries[(2, 1)] == pytest.approx((2.0,), abs=1e-9)
        assert res.allocation.check_feasibility(s) == []

    @pytest.mark.parametrize("scheme", [OrderingScheme.cao(1), OrderingScheme.cdo(-1)])
    def test_ordering_resource_must_exist(self, scheme):
        with pytest.raises(ValueError):
            run_gpoa(two_provider_scenario(), scheme)

    def test_bonus_uses_original_request_denominator(self):
        s = two_provider_scenario()
        res = run_gpoa(s, OrderingScheme.cao(0))
        assert res.payoffs[1].bonus == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("utility", ["linear", "sigmoid"])
    def test_generated_scenarios_stay_feasible(self, utility):
        s = generate_scenario(GenSpec(setting=1, seed=3, utility_kind=utility))
        for scheme in (OrderingScheme.cao(0), OrderingScheme.cdo(0), OrderingScheme.random(3)):
            res = run_gpoa(s, scheme)
            assert res.allocation.check_feasibility(s) == []

    def test_deficit_and_surplus_sets_match_generator_design(self, setting3_seed7):
        g1, g2 = partition_players(setting3_seed7)
        assert set(g1) == DEFICIT_SETS[3]
        assert set(g2) == {4, 5, 6}

    def test_total_value_never_below_solo_total(self, setting1_seed42):
        res = run_gpoa(setting1_seed42, OrderingScheme.cdo(0))
        for p in res.payoffs.values():
            assert p.total >= p.v_solo - 1e-9

    def test_ordering_changes_are_recorded(self, setting3_seed7):
        cao = run_gpoa(setting3_seed7, OrderingScheme.cao(0))
        cdo = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        assert cao.order_used == list(reversed(cdo.order_used))

    def test_events_replay_to_the_same_allocation(self):
        # Summing each run's event chunks in log order rebuilds its allocation bit for bit.
        for setting in (1, 2, 3, 4):
            for utility in ("linear", "sigmoid"):
                plain = generate_scenario(GenSpec(setting=setting, seed=42, utility_kind=utility))
                for s in (plain, with_comm_costs(plain, 42)):
                    runs = [run_gpoa(s, OrderingScheme.cao(0)), run_gpoa(s, OrderingScheme.cdo(0)),
                            run_gpoa(s, OrderingScheme.random(42)), run_ppmpoa(s)]
                    for res in runs:
                        totals = {}
                        for ev in res.events:
                            for j, k, x in ev.chunks:
                                key = (ev.allocator, j)
                                vec = list(totals.get(key, (0.0,) * s.K))
                                vec[k] += x
                                totals[key] = tuple(vec)
                        assert totals == res.allocation.entries

    def test_deterministic_across_runs(self, setting3_seed7):
        a = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        b = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        assert a.allocation.entries == b.allocation.entries
        assert {n: p.total for n, p in a.payoffs.items()} == {
            n: p.total for n, p in b.payoffs.items()
        }
