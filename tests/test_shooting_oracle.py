"""Bitwise oracle for the background shooting and its final pass.

``_march`` writes the four RK4 stages of the profile ODE out on local
floats and the shot loop and final pass of ``solve_background`` run on it.
Every operation and its association are those of the plain formulas, so
each shot, stand-off and profile must be bitwise that of the plain
versions.  Those are kept here verbatim as the reference: ``_rhs``
(returning w'), ``_rk4_step``, the shot loop of ``_piston_offset`` and
``solve_background`` with its final pass.  The jump solve, the event
root-find and the profile container are shared.
"""

import math
import sys

import numpy as np
import pytest

from conicshock import background
from conicshock._numerics import ConvergenceError, brentq
from conicshock.background import (SHOOT_MAXITER, SHOOT_STEPS, SHOOT_XTOL, BracketError,
                                   DenominatorSignError, SelfSimilarSolution, ShootingError,
                                   _cubic_event, _piston_offset, check_grid_size, check_n,
                                   shock_jump_from_speed, solve_background)
from conicshock.gas import GasParams, sound_speed

# ---------------------------------------------------------------------------
# reference: the plain formulas
# ---------------------------------------------------------------------------


def _rhs(s, rho, w, gas, n):
    csq = gas.A * gas.gamma * rho ** (gas.gamma - 1.0)
    den = w * w - csq
    u = s + w
    drho = -(n - 1) * w * rho * u / (s * den)
    dw = (n - 1) * csq * u / (s * den) - 1.0
    return drho, dw, den


def _rk4_step(s, rho, w, h, gas, n):
    k1r, k1w, den = _rhs(s, rho, w, gas, n)
    if den >= 0.0:
        raise DenominatorSignError(f"(s-u)^2 - c^2 >= 0 at s = {s}")
    k2r, k2w, _ = _rhs(s + 0.5 * h, rho + 0.5 * h * k1r, w + 0.5 * h * k1w, gas, n)
    k3r, k3w, _ = _rhs(s + 0.5 * h, rho + 0.5 * h * k2r, w + 0.5 * h * k2w, gas, n)
    k4r, k4w, _ = _rhs(s + h, rho + h * k3r, w + h * k3w, gas, n)
    rho1 = rho + h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    w1 = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return rho1, w1


def _shot(delta, b0, gas, n):
    s0 = b0 + delta
    jump = shock_jump_from_speed(s0, gas)
    w = -s0 * gas.rho0 / jump.rho_plus
    rho = jump.rho_plus
    h = -2.0 * delta / SHOOT_STEPS
    xi = 0.0
    for _ in range(SHOOT_STEPS):
        rho1, w1 = _rk4_step(s0 + xi, rho, w, h, gas, n)
        xi1 = xi + h
        if w1 >= 0.0:
            _, dw_a, _ = _rhs(s0 + xi, rho, w, gas, n)
            _, dw_b, _ = _rhs(s0 + xi1, rho1, w1, gas, n)
            return delta + _cubic_event(xi, w, dw_a, xi1, w1, dw_b)
        xi, rho, w = xi1, rho1, w1
    return -delta


def _solve(b0, gas, n=3, grid_size=2048):
    check_n(n)
    check_grid_size(grid_size)
    b0 = float(b0)
    c0 = float(sound_speed(gas.rho0, gas))
    if b0 <= c0:
        raise BracketError(f"piston speed {b0} not supersonic (c0 = {c0}); no shock bracket")
    lo, hi = 16.0 * sys.float_info.epsilon * b0, 2.0 * b0
    x_lo, x_hi = math.log(lo), math.log(hi)
    shots = {}

    def progress():
        if not shots:
            return "0 shots"
        x = next(reversed(shots))
        return (f"{len(shots)} shots, last delta = {math.exp(x):.6e} "
                f"with mismatch {shots[x]:.3e}")

    def offset(x):
        g = shots.get(x)
        if g is None:
            g = _shot(math.exp(x), b0, gas, n)
            if not math.isfinite(g):
                raise ShootingError(f"shot at delta = {math.exp(x)!r} for b0={b0} "
                                    f"returned {g} after {progress()}")
            shots[x] = g
        return g

    seed = gas.rho0 * b0 / (n * shock_jump_from_speed(b0, gas).rho_plus)
    x = math.log(min(max(seed, lo), hi))
    g = offset(x)
    for _ in range(SHOOT_MAXITER):
        if g == 0.0:
            break
        if x == (x_hi if g < 0.0 else x_lo):
            raise BracketError(f"no shooting bracket for b0={b0}: mismatch keeps "
                               f"its sign up to the end of [{lo:.3e}, {hi:.3e}] "
                               f"({progress()})")
        x_next = math.log(min(max(math.exp(x) - g, lo), hi))
        if abs(x_next - x) <= SHOOT_XTOL:
            x = x_next
            break
        g_next = offset(x_next)
        if (g_next < 0.0) != (g < 0.0):
            try:
                x = brentq(offset, min(x, x_next), max(x, x_next), xtol=SHOOT_XTOL,
                           maxiter=SHOOT_MAXITER)
            except ConvergenceError as exc:
                raise ShootingError(f"shooting for b0={b0} did not converge: {exc} "
                                    f"({progress()})") from exc
            break
        x, g = x_next, g_next
    else:
        raise ShootingError(f"shooting for b0={b0} did not converge: no sign change "
                            f"in {SHOOT_MAXITER} steps ({progress()})")
    delta = math.exp(x)

    s0 = b0 + delta
    jump = shock_jump_from_speed(s0, gas)
    N = grid_size
    h = delta / (N - 1)
    s_off = np.linspace(0.0, delta, N)
    rho = [0.0] * N
    w = [0.0] * N
    rho[N - 1] = jump.rho_plus
    w[N - 1] = -s0 * gas.rho0 / jump.rho_plus
    s = (b0 + s_off).tolist()
    for i in range(N - 1, 0, -1):
        rho[i - 1], w[i - 1] = _rk4_step(s[i], rho[i], w[i], -h, gas, n)

    sol = SelfSimilarSolution(
        gas=gas, n=n, b0=b0, delta=delta,
        s_off=s_off, rho=np.array(rho), w=np.array(w),
    )
    if abs(sol.w[0]) > 1e-9 * b0:
        raise BracketError(
            f"piston condition missed: |u(b0) - b0| = {abs(sol.w[0]):.3e} > 1e-9*b0"
        )
    return sol


def _du(sol):
    den = sol.w ** 2 - sol.csq
    return (sol.n - 1) * sol.csq * sol.u / (sol.s * den)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (BracketError, ShootingError, ValueError) as exc:
        return exc


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

#: gamma across (1, 3), both dimensions, piston speeds from subsonic (1.5 at
#: gamma 2.9) and thick layers to stand-offs a few hundred ulp of b0 (gamma
#: 1.2, b0 80)
SOLVE_CASES = [(g, n, b0) for g in (1.2, 1.4, 2.0, 2.9) for n in (2, 3)
               for b0 in (1.5, 4.0, 10.0, 33.3, 80.0)]

SHOT_CASES = [(1.4, 3, 40.0), (1.2, 3, 80.0), (2.0, 2, 4.0), (2.9, 3, 10.0)]


def _same(a, b):
    if isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@pytest.mark.parametrize("gamma, n, b0", SHOT_CASES)
def test_shots_bitwise(gamma, n, b0):
    gas = GasParams(gamma=gamma)
    root = solve_background(b0, gas, n=n, grid_size=65).delta
    # around the root, on both sides of the event, and far above it
    deltas = [root * (1.0 + k * 1e-9) for k in range(-3, 4)]
    deltas += [root * f for f in (0.3, 0.55, 0.999, 1.001, 1.8, 3.0, 40.0)]
    # a shot whose event lies on its first step: 2 delta / SHOOT_STEPS > root
    first = 400.0 * root
    s0 = b0 + first
    rho_plus = shock_jump_from_speed(s0, gas).rho_plus
    _, w1 = _rk4_step(s0, rho_plus, -s0 * gas.rho0 / rho_plus, -2.0 * first / SHOOT_STEPS, gas, n)
    assert w1 >= 0.0
    # no event within 2 delta: the surrogate -delta
    lo = 16.0 * sys.float_info.epsilon * b0
    assert _shot(lo, b0, gas, n) == -lo
    for delta in deltas + [first, lo]:
        assert _same(_outcome(_piston_offset, delta, b0, gas, n),
                     _outcome(_shot, delta, b0, gas, n)), delta


@pytest.mark.parametrize("grid_size", [2048, 1024])
def test_solves_bitwise(grid_size):
    errors = 0
    for gamma, n, b0 in SOLVE_CASES:
        gas = GasParams(gamma=gamma)
        got = _outcome(solve_background, b0, gas, n=n, grid_size=grid_size)
        ref = _outcome(_solve, b0, gas, n=n, grid_size=grid_size)
        if isinstance(ref, Exception):
            errors += 1
            assert _same(got, ref), (gamma, n, b0, got, ref)
            continue
        case = (gamma, n, b0)
        assert got.delta == ref.delta, case
        for name in ("s_off", "rho", "w", "q"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (case, name)
        # u' now read from _rhs, and what is built on it
        assert got.du.tobytes() == _du(ref).tobytes(), case
        assert got.drho.tobytes() == _rhs(ref.s, ref.rho, ref.w, gas, n)[0].tobytes(), case
    # the subsonic piston at gamma 2.9, n 2 and 3
    assert errors == 2


@pytest.mark.parametrize("grid_size, match", [
    (4, "grid_size must be at least 5"),
    (5, "piston condition missed"),
])
def test_errors_match(grid_size, match):
    gas = GasParams(gamma=2.5)
    got = _outcome(solve_background, 4.0, gas, n=3, grid_size=grid_size)
    ref = _outcome(_solve, 4.0, gas, n=3, grid_size=grid_size)
    assert isinstance(ref, (BracketError, ValueError)) and match in str(ref)
    assert _same(got, ref)


def test_steps_bitwise_on_random_states():
    # single steps from states off any solved layer, with steps long enough
    # that the rho increment reaches the last bits of rho (inside a thin
    # layer it does not, so the shots and solves above alone would miss a
    # reassociated rho update)
    rng = np.random.default_rng(20261019)
    checked = 0
    for _ in range(2000):
        gas = GasParams(gamma=float(rng.uniform(1.1, 2.9)))
        n = int(rng.integers(2, 4))
        rho = float(10.0 ** rng.uniform(-1.0, 3.0))
        w = -float(rng.uniform(0.05, 0.95)) * float(sound_speed(rho, gas))
        s = float(rng.uniform(0.5, 20.0))
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -0.5))
        ref = _rk4_step(s, rho, w, h, gas, n)
        if not all(isinstance(x, float) and math.isfinite(x) for x in ref):
            continue
        rhos, ws = background._march([s], rho, w, h, gas, n)
        assert (rhos[0], ws[0]) == ref, (gas.gamma, n, s, rho, w, h)
        checked += 1
    assert checked > 1000
