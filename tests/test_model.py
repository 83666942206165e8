import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from mecshare import game
from mecshare.model import (
    MAX_DELTA_STEPS,
    AllocationTensor,
    Application,
    Provider,
    Scenario,
    UtilitySpec,
    eval_utility,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from mecshare.game import realized_payoffs
from mecshare.gpoa import OrderingScheme, partition_players, run_gpoa
from mecshare.ppmpoa import run_ppmpoa
from mecshare.scengen import GenSpec, Stream, generate_scenario, with_comm_costs

from conftest import initial_state, linear_app, make_scenario


def with_number(name: str, value) -> Scenario:
    """A valid two-provider scenario with its numeric field `name` set to `value`."""
    utility = UtilitySpec.sigmoid(mu=1.0) if name == "mu" else UtilitySpec.linear(a=1.0, c=0.0)
    app = Application(id=1, owner=1, request=(1.0,), utility=utility)
    provider = Provider(id=1, capacity=(1.0,), native_apps=(1,))
    s = make_scenario(
        [provider, Provider(id=2, capacity=(1.0,), native_apps=())],
        [app],
        comm_costs={(2, 1): 0.1},
    )
    assert validate_scenario(s) == []
    if name in ("delta", "epsilon_gain"):
        return dataclasses.replace(s, **{name: value})
    if name == "d":
        return dataclasses.replace(s, comm_costs={(2, 1): value})
    if name == "capacity":
        bad_provider = dataclasses.replace(provider, capacity=(value,))
        return dataclasses.replace(s, providers=(bad_provider,) + s.providers[1:])
    if name == "w1":
        bad = dataclasses.replace(app, weight_w1=value)
    elif name == "request":
        bad = dataclasses.replace(app, request=(value,))
    else:
        bad = dataclasses.replace(app, utility=dataclasses.replace(utility, **{name: value}))
    return dataclasses.replace(s, applications=(bad,))


def test_linear_utility_values():
    u = UtilitySpec.linear(a=2.0, c=0.5)
    assert eval_utility(u, 0.0, 10.0) == 0.5
    assert eval_utility(u, 3.0, 10.0) == 6.5


def test_sigmoid_utility_matches_logistic_formula():
    u = UtilitySpec.sigmoid(mu=0.01)
    # At x = 0 with r = 500 the exponent is mu * r = 5.
    assert eval_utility(u, 0.0, 500.0) == pytest.approx(1.0 / (1.0 + math.exp(5.0)), rel=1e-12)
    # At x = r the curve crosses 1/2 exactly.
    assert eval_utility(u, 500.0, 500.0) == pytest.approx(0.5, abs=1e-15)


def test_steep_sigmoid_far_below_the_request_is_zero():
    # mu * r = 10000: exp overflows, and 1 / (1 + inf) is 0.0.
    assert eval_utility(UtilitySpec.sigmoid(1000.0), 0.0, 10.0) == 0.0


def test_sigmoid_utility_is_increasing_in_x():
    u = UtilitySpec.sigmoid(mu=0.01)
    values = [eval_utility(u, x, 100.0) for x in (0.0, 25.0, 50.0, 100.0)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_unknown_utility_kind_raises():
    with pytest.raises(ValueError):
        eval_utility(UtilitySpec(kind="quadratic"), 1.0, 1.0)


def two_providers_in_steps(delta):
    """Capacities 300 and 900 and requests 700 and 200, all in units of delta."""
    return make_scenario(
        [
            Provider(id=1, capacity=(300 * delta,), native_apps=(1,)),
            Provider(id=2, capacity=(900 * delta,), native_apps=(2,)),
        ],
        [linear_app(1, owner=1, request=(700 * delta,)), linear_app(2, owner=2, request=(200 * delta,))],
        delta=delta,
    )


@pytest.mark.parametrize("delta", [0.01, 1e-12, 64 * 5e-324], ids=["0.01", "1e-12", "subnormal"])
def test_check_feasibility_flags_the_same_entries_at_every_delta(delta):
    s = two_providers_in_steps(delta)
    assert validate_scenario(s) == []
    fits = AllocationTensor({(1, 1): (300 * delta,), (2, 2): (200 * delta,), (2, 1): (400 * delta,)})
    assert fits.check_feasibility(s) == []
    assert AllocationTensor({(1, 1): (600 * delta,)}).check_feasibility(s) == [
        f"provider 1 resource 0: used {600 * delta} > capacity {300 * delta}"
    ]
    assert AllocationTensor({(2, 2): (400 * delta,)}).check_feasibility(s) == [
        f"app 2 resource 0: allocated {400 * delta} > request {200 * delta}"
    ]
    assert AllocationTensor({(1, 1): (-300 * delta,)}).check_feasibility(s) == [
        f"x[1,1,0] = {-300 * delta} is negative"
    ]


def large_providers(seed):
    """4 providers with 60 apps each, K=1, requests U[50, 150] and capacities of 0.5-1.5x
    their own apps' total: about 3400 to 7600 units at delta = 0.01."""
    rng = Stream(seed)
    providers, apps = [], []
    for n in range(1, 5):
        ids = range(60 * n - 59, 60 * n + 1)
        requests = [rng.uniform(50.0, 150.0) for _ in ids]
        apps += [linear_app(j, owner=n, request=(r,)) for j, r in zip(ids, requests)]
        capacity = sum(requests) * rng.uniform(0.5, 1.5)
        providers.append(Provider(id=n, capacity=(capacity,), native_apps=tuple(ids)))
    return make_scenario(providers, apps)


RUN_INPUTS = {
    **{
        f"setting{setting}-{utility}{'-costs' if costs else ''}": (setting, utility, costs)
        for setting in (1, 2, 3, 4)
        for utility in ("linear", "sigmoid")
        for costs in (False, True)
    },
    "large": ("large", None, False),
    "large-costs": ("large", None, True),
}


@pytest.mark.parametrize("case", sorted(RUN_INPUTS))
def test_every_run_is_feasible_and_replays_to_its_payoffs(case):
    # The capacities of "large" reach thousands of units. The allocator charges
    # each run of delta-steps against a capacity once, so its grants stay within
    # a few roundings of it, and `tol` bounds them.
    setting, utility, costs = RUN_INPUTS[case]
    if setting == "large":
        s = large_providers(1)
    else:
        s = generate_scenario(GenSpec(setting=setting, seed=1, utility_kind=utility))
    if costs:
        s = with_comm_costs(s, 1)
    assert validate_scenario(s) == []
    runs = [run_gpoa(s, OrderingScheme.cdo(0)), run_gpoa(s, OrderingScheme.random(1)), run_ppmpoa(s)]
    for result in runs:
        assert result.allocation.check_feasibility(s) == []
        # The replay sums in another order and clips at capacities a few roundings off.
        replay = realized_payoffs(s, result.events)
        for n, p in result.payoffs.items():
            assert abs(replay[n] - p.total) <= 1e-12 * max(1.0, abs(p.total)), n


def just_under_the_step_cap():
    """3 providers with 2 apps each, K = 1, delta = 0.01: requests need just under
    MAX_DELTA_STEPS delta-steps, so each provider holds tens of thousands of units."""
    rng = Stream(5)
    requests = [rng.uniform(1.0, 2.0) for _ in range(6)]
    scale = MAX_DELTA_STEPS * 0.01 * (1 - 1e-6) / sum(requests)
    apps = [linear_app(j, owner=(j + 1) // 2, request=(r * scale,)) for j, r in enumerate(requests, 1)]
    providers = [
        Provider(id=n, capacity=(factor * sum(a.request[0] for a in apps if a.owner == n),),
                 native_apps=(2 * n - 1, 2 * n))
        for n, factor in ((1, 0.55), (2, 1.45), (3, 1.1))
    ]
    return make_scenario(providers, apps)


@pytest.mark.parametrize("costs", [False, True], ids=["free", "costs"])
def test_runs_just_under_the_step_cap_are_feasible(costs):
    # The cap bounds every request at MAX_DELTA_STEPS * delta, so the rounding of
    # granted amounts stays far inside `tol` (delta * 1e-7).
    s = just_under_the_step_cap()
    if costs:
        s = with_comm_costs(s, 3)
    assert validate_scenario(s) == []
    assert sum(a.request[0] for a in s.applications) / s.delta > 0.99 * MAX_DELTA_STEPS
    runs = [(s, run_gpoa(s, OrderingScheme.cdo(0))), (s, run_ppmpoa(s))]
    # The swept enumeration's candidates, each rerun on its coalition.
    report = game.enumerate_coalitions(s, OrderingScheme.cdo(0), "gpoa", sweep_orders=True)
    for members, entry in report.entries.items():
        sub = s.restrict(members)
        for order, payoffs in entry.candidates:
            result = run_gpoa(sub, OrderingScheme.explicit(order))
            assert {n: p.total for n, p in result.payoffs.items()} == payoffs
            runs.append((sub, result))
    assert len(runs) > 2 + 7
    assert all(any(ev.phase == "share" for ev in result.events) for _, result in runs[:2])
    for sub, result in runs:
        assert result.allocation.check_feasibility(sub) == []


class TestValidateScenario:
    def test_valid_scenario_has_no_problems(self, setting1_seed42):
        assert validate_scenario(setting1_seed42) == []

    def test_duplicate_provider_ids(self):
        p = Provider(id=1, capacity=(1.0,), native_apps=())
        s = make_scenario([p, p], [])
        assert any("provider ids" in msg for msg in validate_scenario(s))

    def test_orphan_owner_and_length_mismatch(self):
        app = linear_app(1, owner=9, request=(1.0, 2.0))
        s = make_scenario([Provider(id=1, capacity=(1.0,), native_apps=(1,))], [app], K=1)
        problems = validate_scenario(s)
        assert any("owner 9" in msg for msg in problems)
        assert any("length" in msg for msg in problems)

    def test_negative_entries_rejected(self):
        app = linear_app(1, owner=1, request=(-1.0,))
        s = make_scenario([Provider(id=1, capacity=(1.0,), native_apps=(1,))], [app])
        assert any("finite and >= 0" in msg for msg in validate_scenario(s))

    def test_delta_larger_than_smallest_request(self):
        app = linear_app(1, owner=1, request=(0.005,))
        s = make_scenario([Provider(id=1, capacity=(1.0,), native_apps=(1,))], [app])
        assert any("delta" in msg for msg in validate_scenario(s))

    def test_nonpositive_sigmoid_mu(self):
        app = Application(
            id=1, owner=1, request=(1.0,), utility=UtilitySpec.sigmoid(mu=0.0)
        )
        s = make_scenario([Provider(id=1, capacity=(1.0,), native_apps=(1,))], [app])
        assert any("mu" in msg for msg in validate_scenario(s))

    @pytest.mark.parametrize("pair", [("2", 1), (2.0, 1), (2, True), (9, 1), (2, 7), (1, 1)])
    def test_comm_cost_keys_must_name_integer_ids_in_the_scenario(self, pair):
        app = linear_app(1, owner=1, request=(1.0,))
        providers = [
            Provider(id=1, capacity=(1.0,), native_apps=(1,)),
            Provider(id=2, capacity=(1.0,), native_apps=()),
        ]
        assert validate_scenario(make_scenario(providers, [app], comm_costs={(2, 1): 0.1})) == []
        s = make_scenario(providers, [app], comm_costs={pair: 0.1})
        assert any("comm cost" in msg for msg in validate_scenario(s))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["delta", "epsilon_gain", "w1", "a", "c", "mu", "d"])
    def test_non_finite_scalars_rejected(self, name, value):
        assert any("finite" in msg for msg in validate_scenario(with_number(name, value)))

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), True], ids=["huge-int", "huge-negative-int", "bool"]
    )
    @pytest.mark.parametrize(
        "name", ["delta", "epsilon_gain", "w1", "a", "c", "mu", "d", "capacity", "request"]
    )
    def test_ints_beyond_float_range_and_bools_rejected(self, name, value):
        assert any("finite" in msg for msg in validate_scenario(with_number(name, value)))

    @pytest.mark.parametrize("w1", [1, 1.0])
    def test_int_total_utility_beyond_float_range_rejected(self, w1):
        # a * r is 10**400, an int that no float holds.
        app = linear_app(1, owner=1, request=(10**200,), a=10**200, c=0, w1=w1)
        s = make_scenario([Provider(id=1, capacity=(1,), native_apps=(1,))], [app], delta=1)
        assert "total utility at full satisfaction is not finite" in validate_scenario(s)


class TestAllocationTensor:
    def test_add_and_totals(self):
        t = AllocationTensor()
        t.add(1, 3, 0, 2.0, 2)
        t.add(1, 3, 1, 1.0, 2)
        t.add(2, 3, 0, 0.5, 2)
        assert t.entries == {(1, 3): (2.0, 1.0), (2, 3): (0.5, 0.0)}
        by_app, by_provider = t.totals(2)
        assert by_app == {3: [2.5, 1.0]}
        assert by_provider[1] == [2.0, 1.0]

    def test_feasibility_flags_capacity_and_demand_violations(self):
        app = linear_app(1, owner=1, request=(2.0,))
        s = make_scenario([Provider(id=1, capacity=(1.0,), native_apps=(1,))], [app])
        t = AllocationTensor()
        t.add(1, 1, 0, 1.5, 1)
        problems = t.check_feasibility(s)
        assert any("capacity" in msg for msg in problems)
        t2 = AllocationTensor()
        t2.entries[(1, 1)] = (3.0,)
        assert any("request" in msg for msg in t2.check_feasibility(
            make_scenario([Provider(id=1, capacity=(5.0,), native_apps=(1,))], [app])
        ))

    def test_feasible_allocation_is_clean(self, setting1_seed42):
        t = AllocationTensor()
        a = setting1_seed42.applications[0]
        t.add(a.owner, a.id, 0, a.request[0] / 2, setting1_seed42.K)
        assert t.check_feasibility(setting1_seed42) == []


def test_scenario_round_trip_through_json(tmp_path, setting1_seed42):
    path = tmp_path / "scenario.json"
    save_scenario(setting1_seed42, str(path))
    loaded = load_scenario(str(path))
    assert loaded == setting1_seed42


def test_deficit_apps_follow_provider_then_native_app_order():
    apps = [linear_app(j, owner=1 if j != 2 else 2, request=(1.0,)) for j in (1, 2, 3)]
    s = make_scenario(
        [
            Provider(id=1, capacity=(1.0,), native_apps=(3, 1)),
            Provider(id=2, capacity=(1.0,), native_apps=(2,)),
        ],
        apps,
    )
    state = initial_state(s)
    assert state.deficit_apps(s, [2, 1]) == [2, 3, 1]
    state.commit(1, {(3, 0): 1.0}, "solo")
    assert state.deficit_apps(s, [2, 1]) == [2, 1]
    assert state.deficit_apps(s, [1]) == [1]
    state.commit(1, {(1, 0): 1.0}, "solo")
    assert state.deficit_apps(s, [1]) == []


def test_the_threshold_is_1e_9_at_the_default_delta():
    assert make_scenario([], [], delta=0.01).tol == 1e-9
    assert make_scenario([], [], delta=1e-12).tol == 1e-19


def test_a_scenario_below_1e_9_shares_in_gpoa_and_ppmpoa():
    # Every capacity and request is below 1e-9, the threshold at the default delta.
    s = make_scenario(
        [
            Provider(id=1, capacity=(3e-10,), native_apps=(1,)),
            Provider(id=2, capacity=(9e-10,), native_apps=(2,)),
        ],
        [linear_app(1, owner=1, request=(7e-10,)), linear_app(2, owner=2, request=(2e-10,))],
        delta=1e-12,
    )
    assert validate_scenario(s) == []
    assert partition_players(s) == ([1], [2])
    gpoa = run_gpoa(s, OrderingScheme.cdo(0))
    ppmpoa = run_ppmpoa(s)
    assert [(r.m, r.n) for r in ppmpoa.matches] == [(1, 2)]
    for result in (gpoa, ppmpoa):
        assert result.allocation.entries[(2, 1)][0] > 0
        assert sum(p.total for p in result.payoffs.values()) == pytest.approx(3.0, abs=1e-8)


def test_scenario_round_trip_preserves_comm_costs():
    app = linear_app(1, owner=1, request=(1.0,))
    s = make_scenario(
        [Provider(id=1, capacity=(1.0,), native_apps=(1,))],
        [app],
        comm_costs={(1, 1): 0.3},
    )
    assert scenario_from_dict(scenario_to_dict(s)) == s


@given(
    a=st.floats(min_value=0.0, max_value=10.0),
    c=st.floats(min_value=0.0, max_value=5.0),
    x1=st.floats(min_value=0.0, max_value=100.0),
    x2=st.floats(min_value=0.0, max_value=100.0),
)
def test_linear_utility_is_non_decreasing(a, c, x1, x2):
    u = UtilitySpec.linear(a=a, c=c)
    lo, hi = sorted((x1, x2))
    assert eval_utility(u, lo, 100.0) <= eval_utility(u, hi, 100.0) + 1e-12
