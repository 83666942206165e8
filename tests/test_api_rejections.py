"""Rejections of library calls that the CLI cannot make: each raises a ValueError
that names the bad argument."""
import pytest

from mecshare import game, gpoa, subsolver
from mecshare.gpoa import OrderingScheme
from mecshare.scengen import GenSpec, generate_scenario

S = generate_scenario(GenSpec(setting=1, seed=1))

CALLS = {
    "unknown-algorithm": (
        lambda: game.run_algorithm(S, "bogus", OrderingScheme.cdo(0)),
        "unknown algorithm 'bogus'",
    ),
    "enumeration-unknown-algorithm": (
        lambda: game.enumerate_coalitions(S, OrderingScheme.cdo(0), "bogus", sweep_orders=True),
        "unknown algorithm 'bogus'",
    ),
    "unknown-ordering-kind": (
        lambda: gpoa.order_surplus(S, OrderingScheme(kind="bogus")),
        "unknown ordering scheme kind 'bogus'",
    ),
    "oracle-zero-grid-step": (
        lambda: subsolver.allocate_oracle(subsolver.build_solo_spec(S, 1), 0.0),
        "grid_step must be > 0",
    ),
}


@pytest.mark.parametrize("case", sorted(CALLS))
def test_call_raises_a_value_error_naming_its_argument(case):
    call, message = CALLS[case]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
