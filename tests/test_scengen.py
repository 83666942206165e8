import pytest
from hypothesis import given, strategies as st

from mecshare.model import validate_scenario
from mecshare.scengen import (
    DEFICIT_SCALE,
    DEFICIT_SETS,
    LINEAR_A_HI,
    LINEAR_A_LO,
    LINEAR_C_HI,
    LINEAR_C_LO,
    SETTINGS,
    SURPLUS_SCALE,
    GenSpec,
    Stream,
    generate_scenario,
    prng_next,
)


def test_prng_first_output_from_state_zero():
    value, _state = prng_next(0)
    assert value == 0xE220A8397B1DCDAF


def test_prng_state_advances_by_golden_gamma():
    _value, state = prng_next(0)
    assert state == 0x9E3779B97F4A7C15


def test_prng_outputs_stay_in_64_bits():
    state = 0xDEADBEEF
    for _ in range(100):
        value, state = prng_next(state)
        assert 0 <= value < 2**64
        assert 0 <= state < 2**64


def test_stream_uniform_respects_bounds():
    rng = Stream(7)
    draws = [rng.uniform(1.0, 10.0) for _ in range(1000)]
    assert all(1.0 <= d < 10.0 for d in draws)
    # Not degenerate: the draws actually spread over the interval.
    assert max(draws) - min(draws) > 5.0


def test_stream_shuffle_is_a_permutation_and_deterministic():
    items = list(range(10))
    out1 = Stream(42).shuffle(items)
    out2 = Stream(42).shuffle(items)
    assert out1 == out2
    assert sorted(out1) == items
    assert items == list(range(10))  # input untouched
    assert Stream(43).shuffle(items) != out1


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_generated_shape_matches_setting(setting):
    s = generate_scenario(GenSpec(setting=setting, seed=1))
    n_providers, apps_per = SETTINGS[setting]
    assert len(s.providers) == n_providers
    assert len(s.applications) == n_providers * apps_per
    assert s.K == 3
    for p in s.providers:
        assert len(p.native_apps) == apps_per
    assert validate_scenario(s) == []


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_capacity_scaling_splits_deficit_and_surplus(setting):
    s = generate_scenario(GenSpec(setting=setting, seed=3))
    for p in s.providers:
        demand = [0.0] * s.K
        for a in s.apps_of(p.id):
            for k in range(s.K):
                demand[k] += a.request[k]
        scale = DEFICIT_SCALE if p.id in DEFICIT_SETS[setting] else SURPLUS_SCALE
        for k in range(s.K):
            assert p.capacity[k] == pytest.approx(scale * demand[k], rel=1e-12)


def test_generation_is_deterministic_per_seed():
    a = generate_scenario(GenSpec(setting=1, seed=5))
    b = generate_scenario(GenSpec(setting=1, seed=5))
    c = generate_scenario(GenSpec(setting=1, seed=6))
    assert a == b
    assert a != c


def test_request_entries_respect_configured_range():
    s = generate_scenario(GenSpec(setting=2, seed=9))
    for a in s.applications:
        for r in a.request:
            assert 1.0 <= r < 10.0


def test_sigmoid_kind_uses_configured_mu():
    s = generate_scenario(GenSpec(setting=1, seed=1, utility_kind="sigmoid"))
    for a in s.applications:
        assert a.utility.kind == "sigmoid"
        assert a.utility.mu == 0.01


def test_linear_params_within_ranges():
    s = generate_scenario(GenSpec(setting=1, seed=11))
    for a in s.applications:
        assert LINEAR_A_LO <= a.utility.a < LINEAR_A_HI
        assert LINEAR_C_LO <= a.utility.c < LINEAR_C_HI


@pytest.mark.parametrize(
    "kwargs",
    [
        {"setting": 5, "seed": 1},
        {"setting": 0, "seed": 1},
        {"setting": 1, "seed": 1, "utility_kind": "Linear"},
        {"setting": 1, "seed": 1, "utility_kind": "cubic"},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError, match="must be one of|must be 'linear' or 'sigmoid'"):
        GenSpec(**kwargs).validate()


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_prng_round_trip_any_seed(seed):
    value, state = prng_next(seed)
    assert 0 <= value < 2**64
    assert state == (seed + 0x9E3779B97F4A7C15) % 2**64
