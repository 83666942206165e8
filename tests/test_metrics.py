import pytest

from mecshare.model import AllocationTensor, Provider
from mecshare.gpoa import OrderingScheme, run_gpoa, run_solo_phase
from mecshare.metrics import (
    compute_metrics,
    fragmentation_index,
    request_satisfaction,
    resource_utilization,
)

from conftest import linear_app, make_scenario


@pytest.fixture
def shared_scenario():
    """Provider 1 deficit (app 1: request 4, cap 2); provider 2 surplus (cap 6)."""
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


@pytest.fixture
def shared_alloc():
    t = AllocationTensor()
    t.entries[(1, 1)] = (2.0,)
    t.entries[(2, 2)] = (2.0,)
    t.entries[(2, 1)] = (2.0,)  # remote grant closing app 1's gap
    return t


def test_request_satisfaction_hand_values(shared_scenario, shared_alloc):
    per_app, per_provider = request_satisfaction(shared_scenario, shared_alloc)
    assert per_app == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}
    assert per_provider == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}


def test_partial_satisfaction_averages_over_demanded_dims(shared_scenario):
    t = AllocationTensor()
    t.entries[(1, 1)] = (1.0,)  # quarter of app 1's request, app 2 unserved
    per_app, per_provider = request_satisfaction(shared_scenario, t)
    assert per_app[1] == pytest.approx(0.25)
    assert per_app[2] == pytest.approx(0.0)
    assert per_provider[1] == pytest.approx(0.25)


def test_resource_utilization_hand_values(shared_scenario, shared_alloc):
    util = resource_utilization(shared_scenario, shared_alloc)
    assert util[1] == pytest.approx(1.0)
    assert util[2] == pytest.approx(4.0 / 6.0)


def test_zero_capacity_provider_reports_zero_utilization():
    apps = [linear_app(1, owner=1, request=(1.0,))]
    s = make_scenario([Provider(id=1, capacity=(0.0,), native_apps=(1,))], apps)
    assert resource_utilization(s, AllocationTensor())[1] == 0.0


def test_fragmentation_counts_remote_providers_only(shared_scenario, shared_alloc):
    per_app, aggregate = fragmentation_index(shared_scenario, shared_alloc)
    assert per_app == {1: 1, 2: 0}
    assert aggregate == pytest.approx(1.0)  # mean over remotely served apps


def test_fragmentation_zero_without_remote_service(shared_scenario):
    t = AllocationTensor()
    t.entries[(1, 1)] = (2.0,)
    per_app, aggregate = fragmentation_index(shared_scenario, t)
    assert per_app == {1: 0, 2: 0}
    assert aggregate == 0.0


def test_compute_metrics_bundles_everything(shared_scenario, shared_alloc):
    report = compute_metrics(shared_scenario, shared_alloc)
    assert report.app_satisfaction[1] == pytest.approx(1.0)
    assert report.provider_utilization[2] == pytest.approx(4.0 / 6.0)
    assert report.app_fragmentation == {1: 1, 2: 0}
    assert report.mean_fragmentation == pytest.approx(1.0)


def test_compute_metrics_sums_the_tensor_once(monkeypatch, setting3_seed7):
    x = run_gpoa(setting3_seed7, OrderingScheme.cdo(0)).allocation
    want = request_satisfaction(setting3_seed7, x), resource_utilization(setting3_seed7, x)
    calls = []
    totals = AllocationTensor.totals

    def counting(self, k_count):
        calls.append(k_count)
        return totals(self, k_count)

    monkeypatch.setattr(AllocationTensor, "totals", counting)
    report = compute_metrics(setting3_seed7, x)
    assert len(calls) == 1
    got = (report.app_satisfaction, report.provider_satisfaction), report.provider_utilization
    assert got == want


def test_sharing_never_lowers_satisfaction(setting3_seed7):
    _, solo_alloc, _, _ = run_solo_phase(setting3_seed7)
    res = run_gpoa(setting3_seed7, OrderingScheme.cdo(0))
    _, solo_sat = request_satisfaction(setting3_seed7, solo_alloc)
    _, coop_sat = request_satisfaction(setting3_seed7, res.allocation)
    for n in setting3_seed7.provider_ids():
        assert coop_sat[n] >= solo_sat[n]
