import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from mecshare.model import (
    AllocationTensor,
    Application,
    Provider,
    Scenario,
    UtilitySpec,
    eval_utility,
    feasibility_tol,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from conftest import linear_app, make_scenario


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


def test_sigmoid_utility_is_increasing_in_x():
    u = UtilitySpec.sigmoid(mu=0.01)
    values = [eval_utility(u, x, 100.0) for x in (0.0, 25.0, 50.0, 100.0)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_unknown_utility_kind_raises():
    with pytest.raises(ValueError):
        eval_utility(UtilitySpec(kind="quadratic"), 1.0, 1.0)


def test_feasibility_tol_scales_with_magnitude():
    assert feasibility_tol(0.5) == 1e-9
    assert feasibility_tol(1e6) == pytest.approx(1e-3)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["delta", "epsilon_gain", "w1", "a", "c", "mu", "d"])
    def test_non_finite_scalars_rejected(self, name, value):
        utility = UtilitySpec.sigmoid(mu=1.0) if name == "mu" else UtilitySpec.linear(a=1.0, c=0.0)
        app = Application(id=1, owner=1, request=(1.0,), utility=utility)
        s = make_scenario(
            [
                Provider(id=1, capacity=(1.0,), native_apps=(1,)),
                Provider(id=2, capacity=(1.0,), native_apps=()),
            ],
            [app],
            comm_costs={(2, 1): 0.1},
        )
        assert validate_scenario(s) == []
        if name in ("delta", "epsilon_gain"):
            s = dataclasses.replace(s, **{name: value})
        elif name == "d":
            s = dataclasses.replace(s, comm_costs={(2, 1): value})
        elif name == "w1":
            s = dataclasses.replace(s, applications=(dataclasses.replace(app, weight_w1=value),))
        else:
            bad = dataclasses.replace(app, utility=dataclasses.replace(utility, **{name: value}))
            s = dataclasses.replace(s, applications=(bad,))
        assert any("finite" in msg for msg in validate_scenario(s))


class TestAllocationTensor:
    def test_add_and_totals(self):
        t = AllocationTensor()
        t.add(1, 3, 0, 2.0, 2)
        t.add(1, 3, 1, 1.0, 2)
        t.add(2, 3, 0, 0.5, 2)
        assert t.get(1, 3, 2) == (2.0, 1.0)
        assert t.total_for_app(3, 2) == [2.5, 1.0]
        assert t.used_by_provider(1, 2) == [2.0, 1.0]

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


def test_scenario_round_trip_preserves_comm_costs():
    app = linear_app(1, owner=1, request=(1.0,))
    s = make_scenario(
        [Provider(id=1, capacity=(1.0,), native_apps=(1,))],
        [app],
        comm_costs={(1, 1): 0.3},
    )
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_save_scenario_embeds_manifest(tmp_path, setting1_seed42):
    path = tmp_path / "with_manifest.json"
    save_scenario(setting1_seed42, str(path), manifest={"command": "gen"})
    payload = json.loads(path.read_text())
    assert payload["manifest"] == {"command": "gen"}


@given(
    a=st.floats(min_value=0.0, max_value=10.0),
    c=st.floats(min_value=0.0, max_value=5.0),
    x1=st.floats(min_value=0.0, max_value=100.0),
    x2=st.floats(min_value=0.0, max_value=100.0),
)
def test_linear_utility_monotone_property(a, c, x1, x2):
    u = UtilitySpec.linear(a=a, c=c)
    lo, hi = sorted((x1, x2))
    assert eval_utility(u, lo, 100.0) <= eval_utility(u, hi, 100.0) + 1e-12
