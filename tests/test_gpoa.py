import pytest

from mecshare.model import AllocState, Provider
from mecshare.gpoa import (
    InvalidExplicitOrder,
    OrderingScheme,
    order_surplus,
    parse_ordering,
    partition_players,
    run_gpoa,
    run_solo_phase,
)
from mecshare.scengen import DEFICIT_SETS, GenSpec, Stream, generate_scenario

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
    def _state(self, caps):
        return AllocState(
            remaining_capacity={n: [c] for n, c in caps.items()},
            remaining_request={},
            allocated={},
        )

    def test_cao_sorts_ascending_by_remaining_capacity(self):
        state = self._state({4: 5.0, 5: 1.0, 6: 3.0})
        assert order_surplus([4, 5, 6], OrderingScheme.cao(0), state) == [5, 6, 4]

    def test_cdo_sorts_descending(self):
        state = self._state({4: 5.0, 5: 1.0, 6: 3.0})
        assert order_surplus([4, 5, 6], OrderingScheme.cdo(0), state) == [4, 6, 5]

    def test_capacity_ties_break_on_provider_id(self):
        state = self._state({4: 2.0, 5: 2.0})
        assert order_surplus([5, 4], OrderingScheme.cao(0), state) == [4, 5]
        assert order_surplus([5, 4], OrderingScheme.cdo(0), state) == [4, 5]

    def test_random_matches_stream_shuffle(self):
        state = self._state({4: 1.0, 5: 2.0, 6: 3.0})
        expected = Stream(99).shuffle([4, 5, 6])
        assert order_surplus([6, 5, 4], OrderingScheme.random(99), state) == expected

    def test_explicit_must_be_a_permutation(self):
        state = self._state({4: 1.0, 5: 2.0})
        assert order_surplus([4, 5], OrderingScheme.explicit((5, 4)), state) == [5, 4]
        with pytest.raises(InvalidExplicitOrder):
            order_surplus([4, 5], OrderingScheme.explicit((4, 6)), state)


class TestSoloPhase:
    def test_solo_payoffs_and_state(self):
        s = two_provider_scenario()
        state, alloc, payoffs, events = run_solo_phase(s)
        assert payoffs[1].v_solo == pytest.approx(2.5, abs=1e-9)
        assert payoffs[2].v_solo == pytest.approx(3.0, abs=1e-9)
        assert state.remaining_capacity[1][0] == pytest.approx(0.0, abs=1e-9)
        assert state.remaining_capacity[2][0] == pytest.approx(4.0, abs=1e-9)
        assert state.remaining_request[1][0] == pytest.approx(2.0, abs=1e-9)
        assert [e.phase for e in events] == ["solo", "solo"]

    def test_partition_after_solo(self):
        s = two_provider_scenario()
        state, _, _, _ = run_solo_phase(s)
        g1, g2 = partition_players(s, state)
        assert g1 == [1]
        assert g2 == [2]

    def test_fully_served_provider_with_no_leftover_is_in_neither_group(self):
        apps = [linear_app(1, owner=1, request=(2.0,), a=1.0)]
        s = make_scenario([Provider(id=1, capacity=(2.0,), native_apps=(1,))], apps)
        state, _, _, _ = run_solo_phase(s)
        assert partition_players(s, state) == ([], [])


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
        assert res.g1 == [1] and res.g2 == [2]
        assert res.allocation.get(2, 1, 1) == pytest.approx((2.0,), abs=1e-9)
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
        res = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        assert set(res.g1) == DEFICIT_SETS[3]
        assert set(res.g2) == {4, 5, 6}

    def test_total_value_never_below_solo_total(self, setting1_seed42):
        res = run_gpoa(setting1_seed42, OrderingScheme.cdo(0))
        for p in res.payoffs.values():
            assert p.total >= p.v_solo - 1e-9

    def test_ordering_changes_are_recorded(self, setting3_seed7):
        cao = run_gpoa(setting3_seed7, OrderingScheme.cao(0))
        cdo = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        assert cao.order_used == list(reversed(cdo.order_used))

    def test_events_replay_to_the_same_allocation(self, setting1_seed42):
        res = run_gpoa(setting1_seed42, OrderingScheme.cdo(0))
        totals = {}
        for ev in res.events:
            for j, k, x in ev.chunks:
                key = (ev.allocator, j)
                vec = list(totals.get(key, (0.0,) * setting1_seed42.K))
                vec[k] += x
                totals[key] = tuple(vec)
        assert set(totals) == set(res.allocation.entries)
        for key, vec in totals.items():
            assert vec == pytest.approx(res.allocation.entries[key], abs=1e-12)

    def test_deterministic_across_runs(self, setting3_seed7):
        a = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        b = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
        assert a.allocation.entries == b.allocation.entries
        assert {n: p.total for n, p in a.payoffs.items()} == {
            n: p.total for n, p in b.payoffs.items()
        }
