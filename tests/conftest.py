import dataclasses

import pytest

from mecshare.model import Application, Scenario, UtilitySpec
from mecshare.scengen import GenSpec, Stream, generate_scenario


def make_scenario(providers, applications, K=1, delta=0.01, epsilon_gain=1e-9, comm_costs=None):
    return Scenario(
        K=K,
        providers=tuple(providers),
        applications=tuple(applications),
        comm_costs=comm_costs or {},
        delta=delta,
        epsilon_gain=epsilon_gain,
    )


def linear_app(app_id, owner, request, a=1.0, c=0.0, w1=1.0):
    return Application(
        id=app_id,
        owner=owner,
        request=tuple(request),
        utility=UtilitySpec.linear(a=a, c=c),
        weight_w1=w1,
    )


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


@pytest.fixture
def setting1_seed42():
    return generate_scenario(GenSpec(setting=1, seed=42))


@pytest.fixture
def setting3_seed7():
    return generate_scenario(GenSpec(setting=3, seed=7))
