"""Oracle tests for the polytropic state relations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import bisect

from conicshock.gas import (
    GasParams,
    VacuumError,
    density_from_state,
    enthalpy,
    enthalpy_inverse,
    sound_speed,
)

GAS = GasParams(A=1.0, gamma=1.4, rho0=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GasParams(gamma=3.5)
    with pytest.raises(ValueError):
        GasParams(gamma=1.0)
    with pytest.raises(ValueError):
        GasParams(A=-1.0)
    with pytest.raises(ValueError):
        GasParams(rho0=0.0)
    for field in ("A", "rho0"):
        with pytest.raises(ValueError, match=field):
            GasParams(**{field: float("nan")})


def test_bernoulli_constant_is_ambient_enthalpy():
    for gas in (GAS, GasParams(A=0.7, gamma=2.2, rho0=3.1)):
        assert gas.B0 == enthalpy(gas.rho0, gas)


def test_ambient_sound_speed_is_a_float():
    # read by every jump solve, so it must not cost a numpy call per shot
    for gas in (GAS, GasParams(A=0.7, gamma=2.2, rho0=3.1)):
        assert type(gas.c0) is float
        assert gas.c0 == float(sound_speed(gas.rho0, gas))


def test_sound_speed_value():
    # direct arithmetic: c = sqrt(A*gamma*rho^(gamma-1))
    assert sound_speed(1.0, GAS) == pytest.approx(np.sqrt(1.4), rel=1e-14)
    assert sound_speed(1.0, GAS) == pytest.approx(1.18322, abs=1e-5)


def test_enthalpy_value():
    # A=1, gamma=1.4, rho=2 -> 1.4*2^0.4/0.4
    assert enthalpy(2.0, GAS) == pytest.approx(1.4 * 2.0 ** 0.4 / 0.4, rel=1e-14)


def test_enthalpy_derivative_matches_csq_over_rho():
    # finite-difference oracle: h'(rho) = c^2/rho
    rho, step = 1.3, 1e-5
    fd = (enthalpy(rho + step, GAS) - enthalpy(rho - step, GAS)) / (2 * step)
    assert fd == pytest.approx(sound_speed(rho, GAS) ** 2 / rho, rel=1e-6)


def test_domain_errors():
    for fn in (sound_speed, enthalpy):
        with pytest.raises(ValueError):
            fn(0.0, GAS)
        with pytest.raises(ValueError):
            fn(-1.0, GAS)
    with pytest.raises(ValueError):
        enthalpy_inverse(-2.0, GAS)


def test_enthalpy_inverse_at_ambient():
    assert enthalpy_inverse(GAS.B0, GAS) == pytest.approx(GAS.rho0, rel=1e-12)


def test_enthalpy_inverse_round_trip():
    assert enthalpy_inverse(enthalpy(3.7, GAS), GAS) == pytest.approx(3.7, rel=1e-10)


def test_enthalpy_inverse_against_bisection_oracle():
    hval = float(enthalpy(0.5, GAS))
    rho_oracle = bisect(lambda r: enthalpy(r, GAS) - hval, 1e-6, 10.0, xtol=1e-13)
    assert enthalpy_inverse(hval, GAS) == pytest.approx(rho_oracle, rel=1e-9)


def test_density_from_state_static():
    assert density_from_state(0.0, 0.0, GAS) == pytest.approx(GAS.rho0, rel=1e-13)


def test_density_from_state_inverse_composition():
    # choose phi_t so the Bernoulli argument is exactly h(2*rho0)
    phi_t = GAS.B0 - float(enthalpy(2 * GAS.rho0, GAS))
    assert density_from_state(phi_t, 0.0, GAS) == pytest.approx(2 * GAS.rho0, rel=1e-12)


def test_density_from_state_vacuum():
    with pytest.raises(VacuumError):
        density_from_state(GAS.B0, 0.0, GAS)
    with pytest.raises(VacuumError):
        density_from_state(0.0, 3.0 * GAS.B0, GAS)


def test_density_from_state_nan():
    with pytest.raises(VacuumError):
        density_from_state(np.nan, 0.0, GAS)
    with pytest.raises(VacuumError):
        density_from_state(np.array([0.0, np.nan]), np.zeros(2), GAS)


def test_nan_density_and_enthalpy_rejected():
    with pytest.raises(ValueError, match="density must be positive"):
        sound_speed(np.nan, GAS)
    with pytest.raises(ValueError, match="enthalpy must be positive"):
        enthalpy_inverse(np.nan, GAS)


@given(
    phi_t=st.floats(-2.0, 0.5),
    grad=st.floats(0.0, 2.0),
)
def test_density_from_state_residual(phi_t, grad):
    # whatever density comes out must put the state back on the Bernoulli law
    rho = density_from_state(phi_t, grad, GAS)
    assert enthalpy(rho, GAS) + phi_t + 0.5 * grad == pytest.approx(GAS.B0, rel=1e-10)


@given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
def test_monotone_in_density(r1, r2):
    """c and h grow with density, and never shrink in floating point.

    Both are a constant times rho**(gamma-1).  For adjacent doubles, say
    100 and 99.99999999999999, hi/lo = 1 + 1.4e-16, so the exact powers
    differ by the factor 1 + (gamma-1) * 1.4e-16, below half an ulp: the
    rounded values may tie.  pow, sqrt and the product are monotone, so
    <= always holds.  Strict order is asserted once hi >= lo (1 + 1e-12),
    where the powers differ by 4e-13 relative, far above a few ulps.
    """
    if r1 == r2:
        return
    lo, hi = min(r1, r2), max(r1, r2)
    strict = hi >= lo * (1.0 + 1e-12)
    for f in (sound_speed, enthalpy):
        assert f(lo, GAS) <= f(hi, GAS)
        if strict:
            assert f(lo, GAS) < f(hi, GAS)


def test_grid_monotonicity_and_round_trip():
    grid = np.linspace(GAS.rho0 / 10, 100 * GAS.rho0, 4001)
    h = enthalpy(grid, GAS)
    c = sound_speed(grid, GAS)
    assert np.all(np.diff(h) > 0)
    assert np.all(np.diff(c) > 0)
    back = enthalpy_inverse(h, GAS)
    assert np.max(np.abs(back / grid - 1.0)) < 1e-10
