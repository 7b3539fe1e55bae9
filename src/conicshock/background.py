"""Self-similar background shock flow behind a constant-speed conical piston.

A piston expanding at speed ``b0`` into static polytropic gas drives a conic
shock at speed ``s0 > b0``.  Between piston and shock the flow depends on
``(t, r)`` only through ``s = r/t`` and solves a two-equation ODE system in
``s`` with Rankine-Hugoniot data at the shock and ``u(b0) = b0`` at the
piston.  The shock speed is the shooting unknown.

Numerical notes
---------------
For fast pistons the stand-off distance ``s0 - b0`` is tiny relative to
``b0`` (it scales like ``b0**(1 - 2/(gamma-1))``), so the solver integrates
the *shifted* quantities ``w = u - s`` and offsets ``s - b0`` rather than the
raw profiles; this keeps full relative precision in every small combination
used downstream (potential offsets, straightened-coordinate profiles).  The
march and the profile carry the squared sound speed as an offset ``c^2 - c+^2``
from its value behind the shock; the density is formed from it once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat

import numpy as np

from ._numerics import ConvergenceError, brentq, cumulative_simpson
from .gas import GasParams, _csq_at

__all__ = [
    "ShockJump",
    "SelfSimilarSolution",
    "AsymptoticsReport",
    "BracketError",
    "ShootingError",
    "DenominatorSignError",
    "ConvergenceError",
    "check_n",
    "check_grid_size",
    "shock_jump_from_speed",
    "solve_background",
    "ode_residual",
    "asymptotic_report",
]


class BracketError(RuntimeError):
    """Shooting bracket on the shock speed could not be established."""


class ShootingError(RuntimeError):
    """The shooting root-find on the stand-off did not converge."""


class DenominatorSignError(RuntimeError):
    """The ODE denominator (s-u)^2 - c^2 lost its negative sign."""


def check_n(n: int) -> None:
    """Raise ValueError unless the space dimension n is 2 or 3."""
    if n not in (2, 3):
        raise ValueError(f"dimension n must be 2 or 3, got {n}")


#: fewest profile samples: the fourth-order stencil of ode_residual spans five
MIN_GRID_SIZE = 5


def check_grid_size(grid_size: int, name: str = "grid_size") -> None:
    """Raise ValueError, naming the parameter, unless a profile of
    grid_size samples has at least MIN_GRID_SIZE."""
    if not grid_size >= MIN_GRID_SIZE:
        raise ValueError(f"{name} must be at least {MIN_GRID_SIZE}, got {grid_size}")


# ---------------------------------------------------------------------------
# Rankine-Hugoniot jump
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockJump:
    """Post-shock state for a shock moving at speed s0 into static gas."""

    s0: float
    rho_plus: float
    u_plus: float


def _jump_function(x, s0: float, gas: GasParams):
    """Scalar function whose root in (rho0, inf) is the post-shock density.

    Vanishes at rho0 by construction; the second conservation relation across
    the shock holds iff it vanishes at the post-shock density.
    """
    g, A, r0 = gas.gamma, gas.A, gas.rho0
    return (
        A * g / (g - 1.0) * (x ** (g + 1.0) - r0 ** (g - 1.0) * x * x)
        + 0.5 * s0 * s0 * (x - r0) ** 2
        - s0 * s0 * x * (x - r0)
    )


def _strong_shock_density(s: float, gas: GasParams) -> float:
    """Leading order ((gamma-1)/(2 A gamma))^(1/(gamma-1)) s^(2/(gamma-1)) of
    the post-shock density behind a strong shock of speed s."""
    g = gas.gamma
    return ((g - 1.0) / (2.0 * gas.A * g)) ** (1.0 / (g - 1.0)) * s ** (2.0 / (g - 1.0))


def shock_jump_from_speed(s0: float, gas: GasParams) -> ShockJump:
    """Solve the jump conditions for a shock of speed ``s0`` into static gas.

    Raises ``ValueError`` if ``s0`` is not supersonic relative to the ambient
    sound speed (no admissible shock), and ``ConvergenceError`` if the
    root-find on the post-shock density does not converge.
    """
    if s0 <= gas.c0:
        raise ValueError(
            f"shock speed {s0} is not supersonic (ambient sound speed {gas.c0}); no admissible shock"
        )

    # Bracket the root above rho0.  The strong-shock scaling gives a good
    # upper guess; expand geometrically if needed.
    guess = _strong_shock_density(s0, gas)
    lo = gas.rho0 * (1.0 + 1e-14)
    hi = max(4.0 * guess, 4.0 * gas.rho0)
    f = lambda x: _jump_function(x, s0, gas)
    for _ in range(200):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(f"failed to bracket the post-shock density for s0 = {s0}")
    rho_plus = brentq(f, lo, hi, rtol=8.9e-16, maxiter=200)

    u_plus = s0 * (1.0 - gas.rho0 / rho_plus)
    return ShockJump(s0=s0, rho_plus=rho_plus, u_plus=u_plus)


# ---------------------------------------------------------------------------
# ODE right-hand side in shifted variables
# ---------------------------------------------------------------------------

def _rhs(s, csq, w, gas: GasParams, n: int):
    """((c^2)', u') of the profile ODE at s from (c^2, w), w = u - s, on
    floats or arrays: with a = c^2 u/(s (w^2 - c^2)), (c^2)' = -(gamma-1)
    (n-1) w a (from rho' and c^2 ~ rho^(gamma-1)) and u' = (n-1) a, the
    operations of a stage of _march.  The denominator must be negative.
    """
    a = csq * (s + w) / (s * (w * w - csq))
    return -(gas.gamma - 1.0) * (n - 1) * w * a, (n - 1) * a


def _march(abscissas, csq, w, h, gas: GasParams, n: int, stop_on_event: bool = False):
    """RK4 steps of the profile ODE from (c^2, w) = (csq, w): one step of
    size h from each abscissa in turn.  Returns the lists of d and w after
    each step, with d = c^2 - csq the squared sound speed as an offset from
    its start.  With stop_on_event, stops after the first step that ends
    at w >= 0.

    The state is (d, w), with w = u - s, d' = (c^2)' and w' = u' - 1 of
    _rhs.  So a stage forms one quotient, takes no power and divides once.
    The loop writes the four stages out on local floats, with
    -(gamma-1)(n-1) and n - 1 bound once; every operation and its
    association are those of a plain RK4 step on (d, w) (stage states d +
    h/2 k, so c^2 = csq + (d + h/2 k)), whose results are bitwise the
    loop's: tests/test_shooting_oracle.py keeps that step as the reference.
    Raises DenominatorSignError, naming the abscissa, where a step starts
    at w^2 >= c^2.
    """
    # n - 1 as a float: float-by-float products run faster than mixed ones
    m, n1 = -(gas.gamma - 1.0) * (n - 1), float(n - 1)
    h2, h6 = 0.5 * h, h / 6.0
    d = 0.0
    ds, ws = [], []
    for s in abscissas:
        c = csq + d
        den = w * w - c
        if den >= 0.0:
            raise DenominatorSignError(f"(s-u)^2 - c^2 >= 0 at s = {s}")
        a = c * (s + w) / (s * den)
        k1d, k1w = m * w * a, n1 * a - 1.0
        sm, se = s + h2, s + h
        c2, v = csq + (d + h2 * k1d), w + h2 * k1w
        a = c2 * (sm + v) / (sm * (v * v - c2))
        k2d, k2w = m * v * a, n1 * a - 1.0
        c2, v = csq + (d + h2 * k2d), w + h2 * k2w
        a = c2 * (sm + v) / (sm * (v * v - c2))
        k3d, k3w = m * v * a, n1 * a - 1.0
        c2, v = csq + (d + h * k3d), w + h * k3w
        a = c2 * (se + v) / (se * (v * v - c2))
        k4d, k4w = m * v * a, n1 * a - 1.0
        d = d + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        ds.append(d)
        ws.append(w)
        if stop_on_event and w >= 0.0:
            break
    return ds, ws


def _cubic_event(xi_a, w_a, dw_a, xi_b, w_b, dw_b):
    """Abscissa (offset coordinate) where w crosses zero in [xi_b, xi_a].

    Cubic Hermite interpolant of w on the bracketing step, root by brentq to
    1e-15 of the step h (plus 8.9e-16 relative).  The tolerance must scale
    with the step: brentq's absolute default, 2e-12, is coarser than the
    whole stand-off of the thinnest layers (6.1e-13 at gamma 1.2, b0 80) and
    makes the shot a noisy function of delta.  Offsets rather than absolute
    abscissas keep full relative precision for thin shock layers.
    """
    h = xi_b - xi_a

    def hermite(xi):
        x = (xi - xi_a) / h
        h00 = (1 + 2 * x) * (1 - x) ** 2
        h10 = x * (1 - x) ** 2
        h01 = x * x * (3 - 2 * x)
        h11 = x * x * (x - 1)
        return h00 * w_a + h10 * h * dw_a + h01 * w_b + h11 * h * dw_b

    return brentq(hermite, min(xi_a, xi_b), max(xi_a, xi_b),
                  xtol=1e-15 * abs(h), rtol=8.9e-16)


#: RK4 steps of the first shots across [s0 - 2 delta, s0]; each solve
#: doubles them until the shot's own error is below SHOOT_XTOL
SHOOT_STEPS_FIRST = 16

#: the most RK4 steps one shooting shot takes across [s0 - 2 delta, s0];
#: SHOOT_STEPS_FIRST times a power of two, which the doubling reaches
SHOOT_STEPS = 512


def _post_shock(s0: float, gas: GasParams):
    """(rho+, c+^2, w+) just behind a shock of speed s0, with w+ = u+ - s0
    = -s0 rho0 / rho+ from the mass jump."""
    rho_plus = shock_jump_from_speed(s0, gas).rho_plus
    return rho_plus, _csq_at(rho_plus, gas), -s0 * gas.rho0 / rho_plus


def _piston_offset(delta: float, b0: float, gas: GasParams, n: int, steps: int) -> float:
    """Integrate down from the shock s0 = b0 + delta in ``steps`` RK4 steps
    across [s0 - 2 delta, s0]; return (event - b0).

    The event is the abscissa where u = s.  Works in the offset coordinate
    xi = s - s0 so the event location is resolved to full relative precision
    even when the shock layer is many orders thinner than b0.  Returns
    -delta if the event does not occur before xi reaches -2*delta (candidate
    shock speed too small): the true offset lies below -delta there, so the
    finite surrogate has the right sign for the root-find.  Expects plain
    floats: on numpy scalars every stage operation of the march is a ufunc
    call.
    """
    s0 = b0 + delta
    _, csq, w = _post_shock(s0, gas)
    h = -2.0 * delta / steps
    # xi before each step, accumulated by repeated + h
    xis = list(accumulate(repeat(h, steps - 1), initial=0.0))
    ds, ws = _march((s0 + xi for xi in xis), csq, w, h, gas, n, stop_on_event=True)
    if not ws[-1] >= 0.0:  # negated, so that a NaN w counts as no event
        return -delta
    # the event lies on the last step, from xi to xi + h
    xi = xis[len(ws) - 1]
    if ws[-1] == 0.0:  # at its end: no root-find
        return delta + (xi + h)
    c_a, w_a = (csq + ds[-2], ws[-2]) if len(ws) > 1 else (csq, w)
    dw_a = _rhs(s0 + xi, c_a, w_a, gas, n)[1] - 1.0
    dw_b = _rhs(s0 + (xi + h), csq + ds[-1], ws[-1], gas, n)[1] - 1.0
    return delta + _cubic_event(xi, w_a, dw_a, xi + h, ws[-1], dw_b)


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass
class SelfSimilarSolution:
    """Sampled background profile on [b0, s0], piston first.

    ``s_off`` holds s - b0 exactly (built from grid indices), ``w`` holds
    u - s; both avoid cancellation for fast pistons.  ``csq_off`` holds
    c^2 - c+^2, the offset the march carries: (c+^2 + csq_off, w) is the
    ODE's state, on which ``dcsq`` and ``du`` evaluate ``_rhs``.  ``q`` is the
    cumulative integral of (u - b0) from s0 down, so that the potential is
    phi = -b0*(s0 - s) - q and the straightened profile needs only q.
    """

    gas: GasParams
    n: int
    b0: float
    delta: float            # s0 - b0, full precision
    s_off: np.ndarray       # s - b0
    rho: np.ndarray
    w: np.ndarray           # u - s
    csq_off: np.ndarray     # c^2 - c+^2
    q: np.ndarray = field(init=False)  # int_s^{s0} (u - b0) ds

    def __post_init__(self):
        # u - b0 = s_off + w, integrated from the shock end, so q(s0) = 0
        rev = cumulative_simpson(self.u_off[::-1], -self.s_off[::-1])
        self.q = rev[::-1].copy()

    @property
    def s0(self) -> float:
        return self.b0 + self.delta

    @property
    def s(self) -> np.ndarray:
        return self.b0 + self.s_off

    @property
    def u(self) -> np.ndarray:
        return self.s + self.w

    @property
    def u_off(self) -> np.ndarray:
        """u - b0 at full precision."""
        return self.s_off + self.w

    @property
    def phi(self) -> np.ndarray:
        """Potential profile with phi' = u and phi(s0) = 0."""
        return -self.b0 * (self.delta - self.s_off) - self.q

    @property
    def csq(self) -> np.ndarray:
        """c^2, from c+^2 at the shock density and csq_off."""
        return _csq_at(float(self.rho[-1]), self.gas) + self.csq_off

    @property
    def dcsq(self) -> np.ndarray:
        """(c^2)'(s) from the ODE right-hand side (no finite differencing)."""
        return _rhs(self.s, self.csq, self.w, self.gas, self.n)[0]

    @property
    def du(self) -> np.ndarray:
        """u'(s) from the ODE right-hand side."""
        return _rhs(self.s, self.csq, self.w, self.gas, self.n)[1]

    @property
    def drho(self) -> np.ndarray:
        """rho'(s) = rho (c^2)'/((gamma-1) c^2), from dcsq."""
        return self.rho * self.dcsq / ((self.gas.gamma - 1.0) * self.csq)

    @property
    def jump(self) -> ShockJump:
        return shock_jump_from_speed(self.s0, self.gas)

    def summary(self) -> dict:
        j = self.jump
        return {
            "b0": self.b0,
            "n": self.n,
            "gamma": self.gas.gamma,
            "A": self.gas.A,
            "rho0": self.gas.rho0,
            "s0": self.s0,
            "rho_plus": j.rho_plus,
            "u_plus": j.u_plus,
        }


# ---------------------------------------------------------------------------
# Shooting solve
# ---------------------------------------------------------------------------

#: Brent tolerance on x = log(delta), i.e. relative on the stand-off
SHOOT_XTOL = 1e-13

#: seeded steps, and then Brent iterations, allowed before the shooting
#: counts as not converged
SHOOT_MAXITER = 100


def solve_background(
    b0: float,
    gas: GasParams,
    n: int = 3,
    grid_size: int = 2048,
) -> SelfSimilarSolution:
    """Solve the piston boundary-value problem by shooting on the shock speed.

    Integrates from the shock downward with Rankine-Hugoniot data and finds
    the stand-off ``delta = s0 - b0`` at which the abscissa where ``u = s``
    coincides with ``b0``.  The shot g(delta) = event - b0 is monotone in
    delta, and delta - g is the stand-off the shot measured, which depends
    only weakly on delta.  So the solve seeds at the thin-layer mass
    balance delta = rho0 b0 / (n rho+(b0)), steps delta <- delta - g (which
    doubles delta on the no-event surrogate g = -delta) until g changes
    sign, then runs Brent's method on x = log(delta) over the last two
    shots, to SHOOT_XTOL in x.  Iterates are clamped to [16 eps b0, 2 b0].
    Each step count has its own shot function, of x alone.

    The shots size themselves by their own RK4 error.  The solve converges
    first on shots of SHOOT_STEPS_FIRST = 16 steps across [s0 - 2 delta,
    s0], then takes one check shot at twice the steps at that root
    delta_N: g_2N(delta_N) misses by about the error of N steps.  Within
    SHOOT_XTOL delta_N, delta_N stands.  Otherwise the count doubles until
    RK4's fourth order (16 times less error per doubling) predicts the
    tolerance, at most SHOOT_STEPS, and the solve reseeds at delta_N -
    g_2N and converges again.  Thin layers converge on 16-step shots and
    pass one 32-step check; thick ones climb to SHOOT_STEPS (README,
    "Numerical notes", gives shots and steps per solve and step timings).
    Against the root of a fixed 8192-step shot the stand-off is within
    max(1.1 times the 512-step solve's error, 2 SHOOT_XTOL); it agrees
    with a bisection on the SHOOT_STEPS shot to 1e-11 relative, also
    where delta is a few dozen ulp of b0.  Both the shots and the final
    pass run on _march; a solve takes about 2.0-2.2 ms at grid_size 2048
    and 1.1-1.3 ms at 1024 (median of 15, gamma 1.4, n 3, b0 10-80;
    CPython 3.11 on a shared 2-vCPU host).

    Raises BracketError when an iterate reaches an end of the clamp
    interval with the sign unchanged (the piston condition has no root
    there; at the lower end, 16 eps b0, the message names that
    representability floor) or the final pass misses the piston condition, and
    ShootingError when a shot is not finite or no converged root is found
    within SHOOT_MAXITER steps.  Both say how many shots were taken and
    the last delta and mismatch.
    """
    check_n(n)
    check_grid_size(grid_size)
    b0 = float(b0)
    if b0 <= gas.c0:
        raise BracketError(f"piston speed {b0} not supersonic (c0 = {gas.c0}); no shock bracket")

    # The lower end sits just above floating-point resolution of b0: thin
    # shock layers (stand-off many orders below b0) are still resolvable
    # because the shooting works in offset coordinates.
    lo, hi = 16.0 * sys.float_info.epsilon * b0, 2.0 * b0
    x_lo, x_hi = math.log(lo), math.log(hi)
    shots = {}  # (x, steps) -> g, every shot taken

    def progress():
        if not shots:
            return "0 shots"
        key = next(reversed(shots))
        return (f"{len(shots)} shots, last delta = {math.exp(key[0]):.6e} "
                f"with mismatch {shots[key]:.3e}")

    def shot(steps):
        # the shot at a fixed step count, a function of x alone, so that
        # each root-find is on one function
        def offset(x):
            g = shots.get((x, steps))
            if g is None:
                g = _piston_offset(math.exp(x), b0, gas, n, steps)
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
                # the step is below the resolution the root-find asks for
                return x_next
            g_next = offset(x_next)
            # a shot that lands on 0 is the root, returned at the next pass
            if g_next != 0.0 and (g_next < 0.0) != (g < 0.0):
                # brentq opens on the last two shots, already taken
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
        # the check shot at twice the steps misses the root by about the
        # error of this count
        delta = math.exp(x)
        g = shot(2 * steps)(x)
        if abs(g) <= SHOOT_XTOL * delta:
            break
        # RK4: each doubling of the steps cuts the error 16-fold
        err = abs(g)
        while steps < SHOOT_STEPS and err > SHOOT_XTOL * delta:
            steps, err = 2 * steps, err / 16.0
        x = root(shot(steps), math.log(min(max(delta - g, lo), hi)))
    delta = math.exp(x)

    # Final pass: fixed-step integration on the output grid, shock to piston,
    # on floats like the shots; the density from d = c^2 - c+^2 once
    rho_plus, csq_plus, w_plus = _post_shock(b0 + delta, gas)
    h = delta / (grid_size - 1)
    s_off = np.linspace(0.0, delta, grid_size)
    # one step from each abscissa b0 + s_off but the piston's, shock first
    ds, ws = _march((b0 + s_off[:0:-1]).tolist(), csq_plus, w_plus, -h, gas, n)
    d = np.array(ds[::-1] + [0.0])
    sol = SelfSimilarSolution(
        gas=gas, n=n, b0=b0, delta=delta, s_off=s_off,
        rho=rho_plus + rho_plus * np.expm1(np.log1p(d / csq_plus) / (gas.gamma - 1.0)),
        w=np.array(ws[::-1] + [w_plus]), csq_off=d,
    )
    if not abs(sol.w[0]) <= 1e-9 * b0:      # a NaN final pass fails too
        raise BracketError(
            f"piston condition missed: |u(b0) - b0| = {abs(sol.w[0]):.3e} > 1e-9*b0"
        )
    return sol


def ode_residual(sol: SelfSimilarSolution) -> float:
    """Max pointwise residual of the profile ODE, scaled by b0.

    Fourth-order central differences of the sampled (csq_off, w) against
    the right-hand side, so the residual tracks the integrator's order
    under refinement; the c^2 half over (gamma-1) max c^2 reads on the
    scale of rho'/rho.  The offset stays resolved on thin layers, where the
    density samples are a staircase of a few ulp.  The spacing is taken
    from the exact offsets s - b0, the absolute s only inside the
    right-hand side.  Raises ValueError below MIN_GRID_SIZE samples or
    where the first two samples coincide.
    """
    d, w = sol.csq_off, sol.w
    check_grid_size(len(w), "profile samples")
    h = sol.s_off[1] - sol.s_off[0]
    if h == 0.0:
        raise ValueError("profile samples coincide in s: no finite-difference residual")
    i = slice(2, -2)
    dd_fd = (-d[4:] + 8 * d[3:-1] - 8 * d[1:-3] + d[:-4]) / (12 * h)
    dw_fd = (-w[4:] + 8 * w[3:-1] - 8 * w[1:-3] + w[:-4]) / (12 * h)
    csq = sol.csq
    dcsq_rhs, du_rhs = _rhs(sol.s[i], csq[i], w[i], sol.gas, sol.n)
    r1 = np.max(np.abs(dd_fd - dcsq_rhs)) / ((sol.gas.gamma - 1.0) * np.max(csq))
    r2 = np.max(np.abs(dw_fd - (du_rhs - 1.0)))
    return float(max(r1, r2)) / sol.b0


# ---------------------------------------------------------------------------
# Asymptotic verification report
# ---------------------------------------------------------------------------

@dataclass
class AsymptoticsReport:
    """Per-item deviations at each b0 and fitted log-log slopes."""

    deviations: dict        # item -> array over the piston speeds
    slopes: dict            # item -> fitted slope of log(dev) vs log(b0)
    denominator_negative: bool
    expected_slope: float   # bulk rate -min(2/(gamma-1), 2) of the ratio items


def _deviations(sol: SelfSimilarSolution) -> dict:
    """The report items of one profile: item -> deviation from its large-b0
    leading order (drho_magnitude: sup |rho'| * b0, magnitude only).
    shock_speed, velocity and du_ratio (|s0/b0 - 1|, max|u/b0 - 1|,
    max|u'/(1 - n) - 1|) are taken in offsets, with no subtraction."""
    gas = sol.gas
    g = gas.gamma
    b0 = sol.b0
    rho, u, w, s, csq = sol.rho, sol.u, sol.w, sol.s, sol.csq
    c = np.sqrt(csq)
    lead_rho = _strong_shock_density(b0, gas)
    sq = np.sqrt((g - 1.0) / 2.0) * b0
    return {
        "shock_speed": sol.delta / b0,
        "velocity": float(np.max(np.abs(sol.u_off)) / b0),
        "density": float(np.max(np.abs(rho / lead_rho - 1.0))),
        "usq_minus_csq": float(np.max(np.abs((u * u - csq) / ((3.0 - g) / 2.0 * b0 * b0) - 1.0))),
        "denominator": float(np.max(np.abs((w * w - csq) / (-(g - 1.0) / 2.0 * b0 * b0) - 1.0))),
        "char_plus": float(np.max(np.abs((w + c) / sq - 1.0))),
        "char_minus": float(np.max(np.abs((w - c) / (-sq) - 1.0))),
        "drho_magnitude": float(np.max(np.abs(sol.drho)) * b0),
        "du_ratio": float(np.max(np.abs(w * (csq + s * w) / (s * (w * w - csq))))),
    }


def asymptotic_report(sols) -> AsymptoticsReport:
    """Measure how fast solved profiles approach their large-b0 leading
    orders; fit the decay slope on a log-log scale.

    ``sols`` are profiles of one gas and dimension at two or more distinct
    piston speeds (a slope needs two), in the order they are reported;
    ValueError otherwise.

    ``expected_slope`` is the bulk rate -min(2/(gamma-1), 2), followed by
    the ratio items set by the ambient sound speed (``density``,
    ``usq_minus_csq``, ``denominator``, ``char_plus``, ``char_minus``).
    ``shock_speed``, ``velocity`` and ``du_ratio`` follow the stand-off
    instead: the mass jump gives delta = rho0 s0/(n rho+) at leading order,
    and rho+ ~ b0^(2/(gamma-1)), so they decay at -2/(gamma-1) (-5 at
    gamma = 1.4, where the bulk rate is -2).  The density-derivative item
    records magnitude only (expected slope -1 for sup|rho'| itself).
    """
    sols = list(sols)
    if len({sol.b0 for sol in sols}) < 2:
        raise ValueError("asymptotic slopes need profiles at two or more distinct piston speeds")
    gas, n = sols[0].gas, sols[0].n
    if any(sol.gas != gas or sol.n != n for sol in sols):
        raise ValueError("profiles of different gases or dimensions")
    b0 = np.array([sol.b0 for sol in sols])
    rows = [_deviations(sol) for sol in sols]
    devs = {k: np.array([d[k] for d in rows]) for k in rows[0]}
    # drho_magnitude is fitted as the raw sup|rho'|
    logy = {k: np.log(y / b0 if k == "drho_magnitude" else y) for k, y in devs.items()}
    slopes = {k: float(np.polyfit(np.log(b0), v, 1)[0]) for k, v in logy.items()}

    return AsymptoticsReport(
        deviations=devs,
        slopes=slopes,
        denominator_negative=not any(np.any(sol.w ** 2 - sol.csq >= 0.0) for sol in sols),
        expected_slope=-min(2.0 / (gas.gamma - 1.0), 2.0),
    )
