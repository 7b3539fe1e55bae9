"""Bitwise oracle for the background shooting, and an RK4 final pass.

``_march`` writes the four RK4 stages of the profile ODE in (d, w) out on
local floats (d = c^2 - c+^2, w = u - s), and the shots and the
step-count loop of ``solve_background`` run on it.  Every operation and
its association are those of the plain formulas, so each shot and
stand-off must be bitwise that of the plain versions.  Those are kept here
verbatim as the reference: ``_rhs`` (returning d' and w'), ``_rk4_step``,
the shot loop of ``_piston_offset`` and ``solve_background``, whose final
pass is a plain RK4 march on the output grid.  The solve samples the
profile by Taylor-series pieces instead, so its profile must agree with
that march to 1e-12 of each field's largest magnitude (the two differ by
at most 6e-14 on the cases below), and its derivatives ``du`` and
``dcsq`` must be bitwise the reference ``_rhs`` on its own d samples.  The
jump solve, the event root-find and the profile container are shared.
How close the shooting is to the exact stand-off is checked apart from
this, in tests/test_background.py against a fixed 8192-step reference
shot.
"""

import math
import sys

import numpy as np
import pytest

from conicshock import background
from conicshock._numerics import ConvergenceError, brentq
from conicshock.background import (SHOOT_MAXITER, SHOOT_STEPS, SHOOT_STEPS_FIRST, SHOOT_XTOL,
                                   BracketError, DenominatorSignError, SelfSimilarSolution,
                                   ShootingError, _cubic_event, _piston_offset, check_grid_size,
                                   check_n, shock_jump_from_speed, solve_background)
from conicshock.gas import GasParams, sound_speed

# ---------------------------------------------------------------------------
# reference: the plain formulas
# ---------------------------------------------------------------------------


def _rhs(s, d, w, csq, gas, n):
    c = csq + d
    den = w * w - c
    a = c * (s + w) / (s * den)
    return -(gas.gamma - 1.0) * (n - 1) * w * a, (n - 1) * a - 1.0, den


def _rk4_step(s, d, w, h, csq, gas, n):
    k1d, k1w, den = _rhs(s, d, w, csq, gas, n)
    if den >= 0.0:
        raise DenominatorSignError(f"(s-u)^2 - c^2 >= 0 at s = {s}")
    k2d, k2w, _ = _rhs(s + 0.5 * h, d + 0.5 * h * k1d, w + 0.5 * h * k1w, csq, gas, n)
    k3d, k3w, _ = _rhs(s + 0.5 * h, d + 0.5 * h * k2d, w + 0.5 * h * k2w, csq, gas, n)
    k4d, k4w, _ = _rhs(s + h, d + h * k3d, w + h * k3w, csq, gas, n)
    d1 = d + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    w1 = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return d1, w1


def _csq(rho, gas):
    return gas.A * gas.gamma * rho ** (gas.gamma - 1.0)


def _shot(delta, b0, gas, n, steps):
    s0 = b0 + delta
    jump = shock_jump_from_speed(s0, gas)
    w = -s0 * gas.rho0 / jump.rho_plus
    csq = _csq(jump.rho_plus, gas)
    d = 0.0
    h = -2.0 * delta / steps
    xi = 0.0
    for _ in range(steps):
        d1, w1 = _rk4_step(s0 + xi, d, w, h, csq, gas, n)
        xi1 = xi + h
        if w1 >= 0.0:
            if w1 == 0.0:
                return delta + xi1
            _, dw_a, _ = _rhs(s0 + xi, d, w, csq, gas, n)
            _, dw_b, _ = _rhs(s0 + xi1, d1, w1, csq, gas, n)
            return delta + _cubic_event(xi, w, dw_a, xi1, w1, dw_b)
        xi, d, w = xi1, d1, w1
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
        x, steps = next(reversed(shots))
        return (f"{len(shots)} shots, last delta = {math.exp(x):.6e} "
                f"with mismatch {shots[x, steps]:.3e}")

    def shot(steps):
        def offset(x):
            g = shots.get((x, steps))
            if g is None:
                g = _shot(math.exp(x), b0, gas, n, steps)
                if not math.isfinite(g):
                    raise ShootingError(f"shot at delta = {math.exp(x)!r} for b0={b0} "
                                        f"returned {g} after {progress()}")
                shots[x, steps] = g
            return g
        return offset

    def root(offset, x):
        g = offset(x)
        for _ in range(SHOOT_MAXITER):
            if g == 0.0:
                return x
            if x == x_lo and g > 0.0:
                raise BracketError(f"no shooting bracket for b0={b0}: the stand-off falls "
                                   f"below the representability floor 16*eps*b0 = {lo:.3e}, "
                                   f"where s0 = b0 + delta is no longer told apart from b0 "
                                   f"({progress()})")
            if x == x_hi and g < 0.0:
                raise BracketError(f"no shooting bracket for b0={b0}: mismatch keeps "
                                   f"its sign up to the end of [{lo:.3e}, {hi:.3e}] "
                                   f"({progress()})")
            x_next = math.log(min(max(math.exp(x) - g, lo), hi))
            if abs(x_next - x) <= SHOOT_XTOL:
                return x_next
            g_next = offset(x_next)
            if g_next != 0.0 and (g_next < 0.0) != (g < 0.0):
                try:
                    return brentq(offset, min(x, x_next), max(x, x_next), xtol=SHOOT_XTOL,
                                  maxiter=SHOOT_MAXITER)
                except ConvergenceError as exc:
                    raise ShootingError(f"shooting for b0={b0} did not converge: {exc} "
                                        f"({progress()})") from exc
            x, g = x_next, g_next
        raise ShootingError(f"shooting for b0={b0} did not converge: no sign change "
                            f"in {SHOOT_MAXITER} steps ({progress()})")

    seed = gas.rho0 * b0 / (n * shock_jump_from_speed(b0, gas).rho_plus)
    steps = SHOOT_STEPS_FIRST
    x = root(shot(steps), math.log(min(max(seed, lo), hi)))
    while steps < SHOOT_STEPS:
        delta = math.exp(x)
        g = shot(2 * steps)(x)
        if abs(g) <= SHOOT_XTOL * delta:
            break
        err = abs(g)
        while steps < SHOOT_STEPS and err > SHOOT_XTOL * delta:
            steps, err = 2 * steps, err / 16.0
        x = root(shot(steps), math.log(min(max(delta - g, lo), hi)))
    delta = math.exp(x)

    s0 = b0 + delta
    jump = shock_jump_from_speed(s0, gas)
    csq = _csq(jump.rho_plus, gas)
    N = grid_size
    h = delta / (N - 1)
    s_off = np.linspace(0.0, delta, N)
    d = [0.0] * N
    w = [0.0] * N
    w[N - 1] = -s0 * gas.rho0 / jump.rho_plus
    s = (b0 + s_off).tolist()
    for i in range(N - 1, 0, -1):
        d[i - 1], w[i - 1] = _rk4_step(s[i], d[i], w[i], -h, csq, gas, n)
    rho = jump.rho_plus + jump.rho_plus * np.expm1(np.log1p(np.array(d) / csq) / (gas.gamma - 1.0))

    sol = SelfSimilarSolution(
        gas=gas, n=n, b0=b0, delta=delta,
        s_off=s_off, rho=rho, w=np.array(w), csq_off=np.array(d),
    )
    if abs(sol.w[0]) > 1e-9 * b0:
        raise BracketError(
            f"piston condition missed: |u(b0) - b0| = {abs(sol.w[0]):.3e} > 1e-9*b0"
        )
    return sol


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

#: the solved profile against the reference RK4 final pass, relative to each
#: field's largest magnitude
PROFILE_RTOL = 1e-12


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
    _, w1 = _rk4_step(s0, 0.0, -s0 * gas.rho0 / rho_plus, -2.0 * first / SHOOT_STEPS,
                      _csq(rho_plus, gas), gas, n)
    assert w1 >= 0.0
    # no event within 2 delta: the surrogate -delta
    lo = 16.0 * sys.float_info.epsilon * b0
    assert _shot(lo, b0, gas, n, SHOOT_STEPS) == -lo
    # the first count of a solve, one it doubles to, and the most
    for steps in (SHOOT_STEPS_FIRST, 4 * SHOOT_STEPS_FIRST, SHOOT_STEPS):
        for delta in deltas + [first, lo]:
            assert _same(_outcome(_piston_offset, delta, b0, gas, n, steps),
                         _outcome(_shot, delta, b0, gas, n, steps)), (delta, steps)


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
        assert got.s_off.tobytes() == ref.s_off.tobytes(), case
        for name in ("rho", "w", "csq_off", "q", "dcsq", "du"):
            a, b = getattr(got, name), getattr(ref, name)
            err = np.max(np.abs(a - b)) / np.max(np.abs(b))
            assert err <= PROFILE_RTOL, (case, name, err)
        # (c^2)' and u' on the sampled profile: the reference right-hand
        # side on its d samples, whose w' is u' - 1
        dd, dw, _ = _rhs(got.s, got.csq_off, got.w,
                         _csq(shock_jump_from_speed(got.s0, gas).rho_plus, gas), gas, n)
        assert got.dcsq.tobytes() == dd.tobytes(), case
        assert (got.du - 1.0).tobytes() == dw.tobytes(), case
    # the subsonic piston at gamma 2.9, n 2 and 3
    assert errors == 2


@pytest.mark.parametrize("grid_size, match", [
    (4, "grid_size must be at least 5"),
])
def test_errors_match(grid_size, match):
    gas = GasParams(gamma=2.5)
    got = _outcome(solve_background, 4.0, gas, n=3, grid_size=grid_size)
    ref = _outcome(_solve, 4.0, gas, n=3, grid_size=grid_size)
    assert isinstance(ref, (BracketError, ValueError)) and match in str(ref)
    assert _same(got, ref)


def test_steps_bitwise_on_random_states():
    # two steps from states off any solved layer, with steps long enough
    # that the d increment reaches the last bits of c^2 (inside a thin
    # layer it does not, so the shots and solves above alone would miss a
    # reassociated update); the second step starts from d != 0, and is
    # not taken where the first ends at the event w >= 0
    rng = np.random.default_rng(20261019)
    checked = 0
    for _ in range(2000):
        gas = GasParams(gamma=float(rng.uniform(1.1, 2.9)))
        n = int(rng.integers(2, 4))
        rho = float(10.0 ** rng.uniform(-1.0, 3.0))
        csq = _csq(rho, gas)
        w = -float(rng.uniform(0.05, 0.95)) * math.sqrt(csq)
        s = float(rng.uniform(0.5, 20.0))
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -0.5))
        try:
            one = _rk4_step(s, 0.0, w, h, csq, gas, n)
            two = _rk4_step(s + h, *one, h, csq, gas, n)
        except DenominatorSignError:
            continue
        if not all(isinstance(x, float) and math.isfinite(x) for x in one + two):
            continue
        ds, ws = background._march([s, s + h], csq, w, h, gas, n)
        assert list(zip(ds, ws)) == ([one] if one[1] >= 0.0 else [one, two]), \
            (gas.gamma, n, s, rho, w, h)
        checked += 1
    assert checked > 1000
