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
shots and the profile carry the squared sound speed as an offset ``c^2 -
c+^2`` from its value behind the shock; the density is formed from it once.
The shots walk Taylor-series pieces about the shock, which across a thin
layer are one short power series, and the profile on the output grid is
sampled from the pieces of the converged shot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import mul

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
    return _shock_jump(s0, brentq(f, lo, hi, rtol=8.9e-16, maxiter=200), gas)


def _shock_jump(s0: float, rho_plus: float, gas: GasParams) -> ShockJump:
    """The jump at shock speed s0 and post-shock density rho_plus, with u+ =
    s0 (1 - rho0/rho+) from the mass jump."""
    return ShockJump(s0=s0, rho_plus=rho_plus, u_plus=s0 * (1.0 - gas.rho0 / rho_plus))


# ---------------------------------------------------------------------------
# ODE right-hand side in shifted variables
# ---------------------------------------------------------------------------

def _rhs(s, csq, w, gas: GasParams, n: int):
    """((c^2)', u') of the profile ODE at s from (c^2, w), w = u - s, on
    floats or arrays: with a = c^2 u/(s (w^2 - c^2)), (c^2)' = -(gamma-1)
    (n-1) w a (from rho' and c^2 ~ rho^(gamma-1)) and u' = (n-1) a, the
    order-1 coefficients of _taylor.  The denominator must be negative.
    """
    a = csq * (s + w) / (s * (w * w - csq))
    return -(gas.gamma - 1.0) * (n - 1) * w * a, (n - 1) * a


def _post_shock(s0: float, gas: GasParams):
    """(rho+, c+^2, w+) just behind a shock of speed s0, with w+ = u+ - s0
    = -s0 rho0 / rho+ from the mass jump."""
    rho_plus = shock_jump_from_speed(s0, gas).rho_plus
    return rho_plus, _csq_at(rho_plus, gas), -s0 * gas.rho0 / rho_plus


# ---------------------------------------------------------------------------
# Shots: Taylor-series pieces from the shock down
# ---------------------------------------------------------------------------

#: highest order of a Taylor piece
K_MAX = 24

#: a piece shorter than this share of the stand-off has collapsed
MIN_PIECE = 1e-6


def _taylor(s, csq, d, w, rest, gas: GasParams, n: int):
    """Taylor coefficients of (d, w) about the abscissa s, where (c^2, w) =
    (csq + d, w), and the length of the piece [s - length, s] they resolve,
    at most rest.

    The recurrences are _rhs's on series: with c = c^2, u = s + w, the
    Cauchy products c u, w w and w a and one series division a = c u/(s (w w
    - c)) give d_{k+1} = -(gamma-1)(n-1) (w a)_k/(k+1) and w_{k+1} = ((n-1)
    a_k - [k = 0])/(k+1).  The order-1 coefficients are _rhs's operations,
    bitwise.  The order grows until the last two terms over rest fall below
    2^-53 of the state's scale |x_0| + |x_1| rest, both for d and w; at
    K_MAX the piece instead ends where they meet it.  A NaN state resolves
    the whole rest.  Raises DenominatorSignError, naming s, where w^2 >=
    c^2.
    """
    m, n1 = -(gas.gamma - 1.0) * (n - 1), float(n - 1)
    c = csq + d
    p = w * w - c
    if p >= 0.0:
        raise DenominatorSignError(f"(s-u)^2 - c^2 >= 0 at s = {s}")
    P, Q = [p], [s * p]
    A = [c * (s + w) / Q[0]]
    D, W = [d, m * w * A[0]], [w, n1 * A[0] - 1.0]
    C, U = [c, D[1]], [s + w, 1.0 + W[1]]
    tols = [(abs(x[0]) + abs(x[1]) * rest) * 2.0 ** -53 for x in (D, W)]
    for k in range(1, K_MAX):
        # a_k, then the order-(k+1) coefficients
        P.append(sum(map(mul, W, reversed(W))) - C[k])
        Q.append(s * P[k] + P[k - 1])
        A.append((sum(map(mul, C, reversed(U))) - sum(map(mul, Q[1:], reversed(A)))) / Q[0])
        wa = sum(map(mul, W, reversed(A)))
        D.append(m * wa / (k + 1))
        W.append(n1 * A[k] / (k + 1))
        C.append(D[-1])
        U.append(W[-1])
        if not any(abs(x[k]) * rest ** k > e or abs(x[k + 1]) * rest ** (k + 1) > e
                   for x, e in zip((D, W), tols)):
            return D, W, rest
    # K_MAX: where the last two terms meet the tolerance
    length = min([(e / abs(x[j])) ** (1.0 / j) for x, e in zip((D, W), tols)
                  for j in (K_MAX - 1, K_MAX) if x[j] != 0.0] + [rest])
    return D, W, length


def _horner(coeffs, xi):
    """sum_k coeffs[k] xi^k by Horner's rule, on a float or an array."""
    y = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        y = y * xi + c
    return y


def _piston_offset(delta: float, b0: float, gas: GasParams, n: int):
    """The shot at stand-off delta: Taylor pieces (_taylor) from the shock
    s0 = b0 + delta down across [s0 - 2 delta, s0], up to the first piece
    in which w = u - s reaches 0 (the event u = s).  Returns (g, pieces,
    (rho+, c+^2)): the mismatch g = event - b0, the pieces as (xi, D, W),
    each with its start xi = s - s0 and its d and w coefficients about it,
    and the post-shock state they start from.

    Works in the offset coordinate xi so the event is resolved to full
    relative precision even when the shock layer is many orders thinner
    than b0: it is the root of the event piece's w polynomial, by brentq to
    1e-15 of the piece's length (plus 8.9e-16 relative).  The tolerance
    must scale with the piece: brentq's absolute default, 2e-12, is coarser
    than the whole stand-off of the thinnest layers (6.1e-13 at gamma 1.2,
    b0 80) and makes the shot a noisy function of delta.  Each other piece
    starts the next from its end state, by Horner on floats.  With no event
    before xi reaches -2 delta (candidate shock speed too small) g is -delta:
    the true offset lies below -delta there, so the finite surrogate has
    the right sign for the root-find; a NaN state gives g = NaN instead.
    Raises ConvergenceError, naming the piece count and delta, where a
    piece is shorter than MIN_PIECE of the stand-off.  Expects plain
    floats: on numpy scalars every series operation is a ufunc call.
    """
    s0 = b0 + delta
    rho_plus, csq, w = _post_shock(s0, gas)
    xi, d, pieces = 0.0, 0.0, []
    while True:
        rest = 2.0 * delta + xi
        D, W, length = _taylor(s0 + xi, csq, d, w, rest, gas, n)
        pieces.append((xi, D, W))
        if length < min(rest, MIN_PIECE * delta):
            raise ConvergenceError(
                f"shot at delta = {delta!r}: Taylor piece {len(pieces)} resolves "
                f"{length:.3e} of the {rest:.3e} left, below {MIN_PIECE:g} of the stand-off")
        w = _horner(W, -length)
        if w >= 0.0:
            def w_piece(t):
                return _horner(W, t)

            event = brentq(w_piece, -length, 0.0, xtol=1e-15 * length, rtol=8.9e-16)
            return delta + (xi + event), pieces, (rho_plus, csq)
        if length == rest:
            return (-delta if w < 0.0 else math.nan), pieces, (rho_plus, csq)
        d = _horner(D, -length)
        xi -= length


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass
class SelfSimilarSolution:
    """Sampled background profile on [b0, s0], piston first.

    ``s_off`` holds s - b0 exactly (built from grid indices), ``w`` holds
    u - s; both avoid cancellation for fast pistons.  ``csq_off`` holds
    c^2 - c+^2, the offset the Taylor pieces carry: (c+^2 + csq_off, w) is the
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
        """The jump at the shock, from its density sample: rho+ bitwise, as
        d is exactly 0 there."""
        return _shock_jump(self.s0, float(self.rho[-1]), self.gas)

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
    coincides with ``b0``.  The shot g(delta) = event - b0 (_piston_offset)
    is monotone in delta, and delta - g is the stand-off the shot measured,
    which depends only weakly on delta.  So the solve seeds at the
    thin-layer mass balance delta = rho0 b0 / (n rho+(b0)), steps delta <-
    delta - g (which doubles delta on the no-event surrogate g = -delta)
    until g changes sign, then runs Brent's method on x = log(delta) over
    the last two shots, to SHOOT_XTOL in x.  Iterates are clamped to [16
    eps b0, 2 b0].  Every shot is kept, keyed on x, with its Taylor pieces
    and post-shock state.

    The shots and the profile are one integrator: the Taylor pieces of
    _taylor, resolved to rounding, so no shot is checked against a finer
    one.  A thin layer (gamma 1.4 from b0 10, gamma 1.2 from b0 4) is one
    piece.  Against the root of a fixed 8192-step RK4 shot the stand-off is
    within 2 SHOOT_XTOL, also where delta is a few dozen ulp of b0 (README,
    "Numerical notes", gives shots, pieces and timings per solve).

    The final pass takes no integration step and no jump solve of its own:
    it evaluates the pieces of the shot at the converged x on grid_size
    points by vectorized Horner, each piece on the samples it covers (the
    root step may end on an x no shot has taken: that one shot is taken
    first).  The sample at the shock is then the post-shock state bitwise.

    Raises BracketError when an iterate reaches an end of the clamp
    interval with the sign unchanged (the piston condition has no root
    there; at the lower end, 16 eps b0, the message names that
    representability floor) or the final pass misses the piston condition, and
    ShootingError when a shot is not finite or no converged root is found
    within SHOOT_MAXITER steps.  Both say how many shots were taken and
    the last delta and mismatch.  A shot raises ConvergenceError where a
    Taylor piece collapses.
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
    shots = {}  # x -> (g, pieces, (rho+, c+^2)), every shot taken

    def progress():
        if not shots:
            return "0 shots"
        x = next(reversed(shots))
        return (f"{len(shots)} shots, last delta = {math.exp(x):.6e} "
                f"with mismatch {shots[x][0]:.3e}")

    def offset(x):
        if x not in shots:
            shot = _piston_offset(math.exp(x), b0, gas, n)
            if not math.isfinite(shot[0]):
                raise ShootingError(f"shot at delta = {math.exp(x)!r} for b0={b0} "
                                    f"returned {shot[0]} after {progress()}")
            shots[x] = shot
        return shots[x][0]

    seed = gas.rho0 * b0 / (n * shock_jump_from_speed(b0, gas).rho_plus)
    x = math.log(min(max(seed, lo), hi))
    g = offset(x)
    for _ in range(SHOOT_MAXITER):
        if g == 0.0:
            break
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
            x = x_next
            break
        g_next = offset(x_next)
        # a shot that lands on 0 is the root, returned at the next pass
        if g_next != 0.0 and (g_next < 0.0) != (g < 0.0):
            # brentq opens on the last two shots, already taken
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

    # Final pass: the converged shot's pieces on the output grid, shock to
    # piston, each on the samples at or below its start; the density from
    # d = c^2 - c+^2 once.  The root step may end on an x no shot has
    # taken: take that one shot first
    offset(x)
    _, pieces, (rho_plus, csq_plus) = shots[x]
    delta = math.exp(x)
    s_off = np.linspace(0.0, delta, grid_size)
    xi = s_off - delta
    d, w = np.empty(grid_size), np.empty(grid_size)
    cuts = np.searchsorted(xi, [start for start, _, _ in pieces[1:]]).tolist() + [0]
    top = grid_size
    for (start, D, W), cut in zip(pieces, cuts):
        t = xi[cut:top] - start
        d[cut:top], w[cut:top] = _horner(D, t), _horner(W, t)
        top = cut
    sol = SelfSimilarSolution(
        gas=gas, n=n, b0=b0, delta=delta, s_off=s_off,
        rho=rho_plus + rho_plus * np.expm1(np.log1p(d / csq_plus) / (gas.gamma - 1.0)),
        w=w, csq_off=d,
    )
    if not abs(sol.w[0]) <= 1e-9 * b0:      # a NaN final pass fails too
        raise BracketError(
            f"piston condition missed: |u(b0) - b0| = {abs(sol.w[0]):.3e} > 1e-9*b0"
        )
    return sol


def ode_residual(sol: SelfSimilarSolution) -> float:
    """Max pointwise residual of the profile ODE, scaled by b0.

    Fourth-order central differences of the sampled (csq_off, w) against
    the right-hand side.  The Taylor pass samples the profile to rounding,
    so the residual tracks the stencil's order under refinement, down to
    the samples' rounding over the spacing; the c^2 half over (gamma-1)
    max c^2 reads on the scale of rho'/rho.  The offset stays resolved on
    thin layers, where the density samples are a staircase of a few ulp.
    The spacing is taken
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
