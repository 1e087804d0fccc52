import math

import numpy as np
import pytest

from randomhorizon.mc import (
    McModel,
    McParameterError,
    _zero_in_step,
    simulate,
    survival_closed_form,
    validate_survival_formula,
)


def test_control_model_recovers_initial_price():
    r = simulate(McModel(model="CAT-0", dt=5e-3, paths=20_000, seed=7))
    for est, se in zip(r.estimates, r.standard_errors):
        assert abs(est - 1.0) <= 3.0 * se
        assert se > 0


def test_deflated_stopped_price_small_run():
    r = simulate(McModel(model="CAT-1", dt=2e-3, paths=40_000, seed=5))
    for est, se in zip(r.estimates, r.standard_errors):
        assert abs(est - 1.0) <= 3.0 * se
    assert all(se > 0 for se in r.standard_errors)
    assert all(se > 0 for se in r.control_standard_errors)


def test_step_halving_stability():
    a = simulate(McModel(model="CAT-1", dt=2e-3, paths=20_000, seed=9))
    b = simulate(McModel(model="CAT-1", dt=1e-3, paths=20_000, seed=10))
    for ea, sa, eb, sb in zip(
        a.estimates, a.standard_errors, b.estimates, b.standard_errors
    ):
        assert abs(ea - eb) <= 3.0 * math.hypot(sa, sb)


def test_simulation_is_deterministic():
    r1 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=21))
    r2 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=21))
    assert r1 == r2
    r3 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=22))
    assert r3.estimates != r1.estimates


def test_survival_closed_form_limits():
    assert survival_closed_form(0.3, 0.0) == 1.0
    assert survival_closed_form(0.999, 0.3) < 1e-9
    assert 0.0 < survival_closed_form(0.5, 0.5) < 1.0


def test_validate_survival_formula_midpoint():
    model = McModel(model="CAT-1", dt=1e-3, paths=1, seed=2)
    v = validate_survival_formula(model, 0.5, 0.5, 20_000, point_id=1)
    assert abs(v.estimate - v.closed_form) <= 4.0 * v.standard_error
    assert v.standard_error > 0


def test_validate_rejects_bad_time():
    model = McModel(model="CAT-1", dt=1e-3, paths=1, seed=2)
    with pytest.raises(ValueError):
        validate_survival_formula(model, 1.0, 0.5, 100)


def test_validate_rejects_no_subpaths():
    model = McModel(model="CAT-1", dt=1e-3, paths=1, seed=2)
    with pytest.raises(ValueError):
        validate_survival_formula(model, 0.5, 0.5, 0)


def test_zero_in_step_bridge():
    w0 = np.array([1.0, 1.0, -0.5])
    w1 = np.array([-1.0, 1.0, -0.5])
    u = np.array([0.5, 0.5, 0.5])
    hit = _zero_in_step(w0, w1, 1e-3, u)
    assert hit[0]  # sign change
    assert not hit[1] and not hit[2]  # same sign, far from zero
    # near the origin the bridge touches with high probability
    w0 = np.array([0.01])
    w1 = np.array([0.01])
    assert _zero_in_step(w0, w1, 1e-3, np.array([0.5]))[0]


def test_dt_must_divide_checkpoints():
    with pytest.raises(ValueError):
        simulate(McModel(model="CAT-0", dt=4e-3, paths=10, seed=0))


@pytest.mark.parametrize("dt", [0.3, float("inf"), float("nan"), 1e-320])
def test_model_rejects_dt_off_the_checkpoint_grid(dt):
    with pytest.raises(McParameterError) as err:
        McModel(model="CAT-0", dt=dt, paths=10)
    assert err.value.field == "dt"


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        McModel(model="CAT-9")
