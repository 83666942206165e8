import dataclasses
import functools
import operator

import pytest

from mecshare.game import CoalitionEntry, CoalitionReport
from mecshare.model import AllocState, Application, Provider, Scenario, UtilitySpec
from mecshare.scengen import GenSpec, generate_scenario


def left_sum(values):
    """The sum of `values`, added left to right from 0.0, on every Python.

    The bit-exact oracles sum with it, since the builtin `sum` of floats
    compensates from Python 3.12 on. It is kept apart from `mecshare.model.lsum`
    so that an oracle does not share the code it checks.
    """
    return functools.reduce(operator.add, values, 0.0)


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


def append_providers(base, extra, ids):
    """`base` plus the providers `ids` of the generated scenario `extra`, with their apps.

    The appended providers are renumbered in the order given, from one past
    base's largest provider id, and their apps from one past its largest app
    id. Inputs larger than the canonical settings are built this way.
    """
    providers, apps = list(base.providers), list(base.applications)
    next_app = max(a.id for a in apps) + 1
    for new_id, n in enumerate(ids, start=max(p.id for p in providers) + 1):
        native = []
        for a in extra.apps_of(n):
            apps.append(dataclasses.replace(a, id=next_app, owner=new_id))
            native.append(next_app)
            next_app += 1
        providers.append(
            Provider(id=new_id, capacity=extra.provider(n).capacity, native_apps=tuple(native))
        )
    return dataclasses.replace(base, providers=tuple(providers), applications=tuple(apps))


def initial_state(s):
    """A run's state before its solo phase: every capacity and request whole, nothing granted."""
    return AllocState(
        remaining_capacity={p.id: list(p.capacity) for p in s.providers},
        allocated={a.id: [0.0] * s.K for a in s.applications},
    )


def failing_rationality_report():
    """Two players whose grand payoffs fail both rationality checks.

    Player 1 gets 4.0 in the grand coalition against 5.0 alone, and the grand
    payoffs sum to 9.0 against a grand value of 10.0.
    """
    def entry(value, payoffs):
        return CoalitionEntry(value=value, payoffs=payoffs, order_used=[],
                              candidates=[((), payoffs)])

    return CoalitionReport(
        entries={
            frozenset({1}): entry(5.0, {1: 5.0}),
            frozenset({2}): entry(3.0, {2: 3.0}),
            frozenset({1, 2}): entry(10.0, {1: 4.0, 2: 5.0}),
        },
        provider_ids=[1, 2],
    )


@pytest.fixture
def setting1_seed42():
    return generate_scenario(GenSpec(setting=1, seed=42))


@pytest.fixture
def setting3_seed7():
    return generate_scenario(GenSpec(setting=3, seed=7))
