"""Power-of-two rescaling: every amount times 2**e gives the same run, scaled.

Each case multiplies every capacity, request and delta of a generated scenario
by 2**e. Products with a power of two are exact, so the scaled run sees the
same floats times 2**e, and every comparison of two amounts, or of an amount
with `Scenario.tol` (delta / 1e7, itself scaled exactly), decides the same
way. GPOA and PPMPOA allocations are then 2**e times the unscaled ones, and
payoffs, realized payoffs, metrics, feasibility and the stability replay keep
their bits. An absolute constant compared with an amount breaks this.

Every utility is `linear(0, 0)`. A slope would make the utility term a*x
shrink with the scale while the satisfaction terms x/r and (x/gap)**2 do
not, so the greedy would rank its steps differently. A constant c would
absorb every a*x below its ulp: c + a*x == c. Both are properties of the
model, not of a tolerance. Communication costs stay as drawn: with a zero
utility no grant covers d*x, so the rollback zeroes every costed grant at
every scale.

The exponents -40 and -500 keep every amount normal. At a subnormal scale
products and ratios round to the fixed subnormal grid, so the bits move by
the model's own arithmetic. That range is left to the subnormal-delta files
of CI's console-script step and of
`tests/test_greedy_identity.py::test_subnormal_delta_commands_match_the_plain_loop`.
"""
import dataclasses

import pytest

from mecshare.game import realized_payoffs
from mecshare.gpoa import OrderingScheme, run_gpoa
from mecshare.metrics import compute_metrics
from mecshare.model import UtilitySpec, validate_scenario
from mecshare.ppmpoa import check_matching_stability, run_ppmpoa
from mecshare.scengen import GenSpec, generate_scenario, with_comm_costs


FLAT = UtilitySpec.linear(0.0, 0.0)


def flat_scaled(s, e):
    """`s` with every utility `FLAT` and every capacity, request and delta times 2**e."""
    f = 2.0**e
    providers = tuple(
        dataclasses.replace(p, capacity=tuple(c * f for c in p.capacity)) for p in s.providers
    )
    applications = tuple(
        dataclasses.replace(a, request=tuple(r * f for r in a.request), utility=FLAT)
        for a in s.applications
    )
    return dataclasses.replace(s, providers=providers, applications=applications, delta=s.delta * f)


def runs(s):
    return {
        "cdo": run_gpoa(s, OrderingScheme.cdo(0)),
        "random": run_gpoa(s, OrderingScheme.random(0)),
        "ppmpoa": run_ppmpoa(s),
    }


def scale_free(s, result):
    """Every output of a run that rescaling must leave bit for bit."""
    return (
        {n: (p.v_solo, p.sharing, p.bonus, p.total) for n, p in result.payoffs.items()},
        result.order_used,
        [(r.round, r.m, r.n, r.value) for r in result.matches],
        realized_payoffs(s, result.events),
        compute_metrics(s, result.allocation),
        result.allocation.check_feasibility(s),
    )


@pytest.mark.parametrize("e", [-40, -500])
@pytest.mark.parametrize("costs", [False, True], ids=["free", "costs"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("setting", [1, 2, 3, 4])
def test_scaled_amounts_give_the_scaled_run(setting, seed, costs, e):
    s = generate_scenario(GenSpec(setting=setting, seed=seed))
    if costs:
        s = with_comm_costs(s, seed)
    base, scaled = flat_scaled(s, 0), flat_scaled(s, e)
    assert validate_scenario(scaled) == []
    base_runs, scaled_runs = runs(base), runs(scaled)
    for name, result in base_runs.items():
        other = scaled_runs[name]
        assert other.allocation.entries == {
            key: tuple(x * 2.0**e for x in vec) for key, vec in result.allocation.entries.items()
        }, name
        assert [r.resources for r in other.matches] == [r.resources * 2.0**e for r in result.matches]
        assert scale_free(scaled, other) == scale_free(base, result), name
        assert result.allocation.check_feasibility(base) == []
    assert check_matching_stability(scaled_runs["ppmpoa"], scaled) == check_matching_stability(
        base_runs["ppmpoa"], base
    )
