"""Radially symmetric free-boundary simulator for the piston-driven shock.

The unsteady potential flow between the expanding piston r = sigma(t) and
the fitted shock r = zeta(t) is evolved as a first-order system for
(v, w) = (dt Phi, dr Phi) in the mapped coordinate y = (r - sigma)/(zeta -
sigma) in [0, 1].  The shock is a tracked boundary moved by the
Rankine-Hugoniot relation, so the interior stays smooth and a
non-dissipative centered scheme applies; no shock capturing is involved.

Boundary closure:
  y = 0 (piston): w = dsigma/dt (solid-wall condition); v advanced from
      the interior with one-sided differences.
  y = 1 (shock): dzeta/dt = H w / (H - rho0) with H the density recovered
      from the Bernoulli relation, and v = -(dzeta/dt) w from
      differentiating the continuity of the potential along the front; w
      advanced from the interior.  Each output logs |H w - (H - rho0) zeta'|
      with zeta' taken from the same H, a residual that shows only rounding.

The module also builds the modified background potential
Phi_a = (1 + f_a) * Phi_hat whose radial correction factor makes the
piston condition exact for the perturbed piston, and fits decay exponents
from recorded deviation series.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from ._numerics import CubicSpline
from .background import SelfSimilarSolution, check_n, solve_background
from .gas import GasParams, _density_at, _flow_bernoulli, _nonvacuum, density_from_state
from .hodograph import _fd_bound, _fd_derivative


class SimulationError(RuntimeError):
    """Fatal integration failure; the message carries the failing time."""


def forcing(t):
    """Piston perturbation profile h = 1/(1+t); it satisfies the
    decaying-derivative bounds the stability theory assumes."""
    return 1.0 / (1.0 + t)


def dforcing(t):
    """dh/dt of the piston perturbation profile.  The square is a product,
    which rounds alike on a float and on an array (a float's ** 2 is libm
    pow)."""
    return -1.0 / ((1.0 + t) * (1.0 + t))


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the free-boundary integration.

    The piston speed is b(t) = b0 + eps * h(t) with the fixed forcing
    h = 1/(1+t).
    """

    n: int
    gas: GasParams
    b0: float
    eps: float = 0.0
    grid_points: int = 128
    cfl: float = 0.4
    t_end: float = 50.0
    t0: float = 1.0

    def __post_init__(self):
        check_n(self.n)
        # negated comparisons, so that NaN fails them too
        if not self.eps >= 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0, 1)")
        if self.grid_points < 32:
            raise ValueError("grid_points must be at least 32")
        if not self.t0 > 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end must exceed t0, got t0 = {self.t0}, t_end = {self.t_end}")

    def b(self, t):
        return self.b0 + self.eps * forcing(t)

    def sigma(self, t):
        return t * self.b(t)

    def dsigma(self, t):
        return self.b(t) + t * self.eps * dforcing(t)


@dataclass
class SimState:
    """Flow state on the mapped grid y in [0, 1] at a single time."""

    t: float
    sigma: float
    zeta: float
    y: np.ndarray
    v: np.ndarray       # dt Phi at fixed x
    w: np.ndarray       # dr Phi
    phi: np.ndarray     # potential, recovered by time quadrature along y-lines

    @property
    def r(self) -> np.ndarray:
        return self.sigma + self.y * (self.zeta - self.sigma)

    def density(self, gas: GasParams) -> np.ndarray:
        return density_from_state(self.v, self.w ** 2, gas)


# ---------------------------------------------------------------------------
# background samplers
# ---------------------------------------------------------------------------

class BackgroundSampler:
    """Cubic-spline sampler of the self-similar profile (u, phi) as functions
    of s = r/t, with linear extrapolation using the endpoint slopes outside
    [b0, s0] (needed when the perturbed piston leaves the background span)."""

    def __init__(self, sol: SelfSimilarSolution):
        # interpolate in the offset variable to keep precision on thin layers
        x = sol.s_off
        if x[-1] - x[0] <= 0:
            raise ValueError("background span insufficient for interpolation")
        self.b0 = sol.b0
        cols = np.column_stack([sol.u_off, sol.phi])
        self._spline = CubicSpline(x, cols, "natural")
        # piston (0) and shock (-1) ends: x, (u - b0, phi) and u'
        self._x_end, self._cols_end, self._du_end = x[[0, -1]], cols[[0, -1]], sol.du[[0, -1]]

    def extrapolates(self, s: float) -> bool:
        """Whether s lies outside the solved span, where u and phi are the
        linear extrapolations."""
        return not self._x_end[0] <= s - self.b0 <= self._x_end[1]

    def __call__(self, s):
        """(u(s), phi(s)) with phi(s0) = 0; outside the solved span both are
        linear in s with the end slopes (u', u)."""
        x = np.asarray(s, dtype=float) - self.b0
        inside = self._spline(np.clip(x, *self._x_end))
        u, phi = self.b0 + inside[..., 0], inside[..., 1]
        for end, outside in ((0, x < self._x_end[0]), (-1, x > self._x_end[1])):
            dx = x - self._x_end[end]
            u_end = self.b0 + self._cols_end[end, 0]
            u = np.where(outside, u_end + self._du_end[end] * dx, u)
            phi = np.where(outside, self._cols_end[end, 1] + u_end * dx, phi)
        return u, phi


# ---------------------------------------------------------------------------
# modified background
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModifiedBackground:
    """Radial modified background Phi_a = (1 + f_a) * Phi_hat.

    For a radial piston the correction transport equation integrates along
    rays, so f_a(t, r) = E(t) * (r - sigma(t)) with
    E(t) = (dsigma/dt - u(sigma/t)) / Phi_hat(t, sigma); by construction
    dr Phi_a = dsigma/dt on the piston.  E vanishes identically when the
    perturbation amplitude is zero.
    """

    sampler: BackgroundSampler
    config: SimConfig

    def E(self, t):
        t = np.asarray(t, dtype=float)
        return self._E(t, self.config.dsigma(t), *self.sampler(self.config.sigma(t) / t))

    def _E(self, t, sdot, u, phi):
        """E at the times t from the piston speed sdot there and the
        samples (u, phi) at sigma(t)/t."""
        phi_hat = t * phi
        if np.any(np.abs(phi_hat) < 1e-300):
            raise ZeroDivisionError("background potential vanishes at the piston")
        if self.config.eps == 0.0:
            return np.zeros_like(t)
        return (sdot - u) / phi_hat

    def grad_phi_a(self, t, r):
        """(dt Phi_a, dr Phi_a) at fixed x; dE/dt by a centered difference
        (diagnostic accuracy only).  t is a time, or an array of times of
        r's shape; one sampler call serves the points r/t and the piston
        at t and t +- dt."""
        r = np.asarray(r, dtype=float)
        s = r / t
        dt = 1e-6 * t
        ts = np.array((t, t + dt, t - dt))
        sdot = self.config.dsigma(ts)
        u, phi = self.sampler(np.concatenate([s.ravel(), (self.config.sigma(ts) / ts).ravel()]))
        k = s.size
        E, E_plus, E_minus = self._E(ts, sdot, u[k:].reshape(ts.shape), phi[k:].reshape(ts.shape))
        u, phi = u[:k].reshape(s.shape), phi[:k].reshape(s.shape)   # phi: per-unit-time potential
        sigma = self.config.sigma(t)
        fa = E * (r - sigma)
        dE = (E_plus - E_minus) / (2.0 * dt)
        dfa_dt = dE * (r - sigma) - E * sdot[0]
        # Phi_hat = t * phi(r/t): dt Phi_hat = phi - s u, dr Phi_hat = u
        d_t = (1.0 + fa) * (phi - s * u) + dfa_dt * t * phi
        d_r = (1.0 + fa) * u + E * t * phi
        return d_t, d_r

    def piston_residual(self, t):
        """Residual of the solid-wall condition dr Phi_a - dsigma/dt at r = sigma."""
        _, d_r = self.grad_phi_a(t, np.asarray(self.config.sigma(t), dtype=float))
        return float(np.max(np.abs(d_r - self.config.dsigma(t))))


def _check_profile(sol: SelfSimilarSolution, config: SimConfig) -> None:
    """Raise ValueError unless ``sol`` was solved for the config's
    dimension, gas and piston speed."""
    solved_for = (sol.n, sol.gas, sol.b0)
    if solved_for != (config.n, config.gas, config.b0):
        raise ValueError(f"profile solved for (n, gas, b0) = {solved_for}, "
                         f"config asks for {(config.n, config.gas, config.b0)}")


def modified_background(sol: SelfSimilarSolution, config: SimConfig) -> ModifiedBackground:
    _check_profile(sol, config)
    return ModifiedBackground(sampler=BackgroundSampler(sol), config=config)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_from_background(sol: SelfSimilarSolution, config: SimConfig) -> SimState:
    """Initial state at t = t0 sampled from the self-similar profile.

    The piston starts at sigma = t0 * b(t0).  When the perturbed piston
    still lies inside the base profile's span the shock starts at
    zeta = s0 * t0 of the supplied solution; when eps * h(t0) exceeds the
    stand-off (thin layers) the profile for the instantaneous piston speed
    b(t0) is solved instead, which keeps the initial domain nonempty and
    reduces to the same state as eps -> 0.  ValueError if ``sol`` was
    solved for another dimension, gas or piston speed.
    """
    _check_profile(sol, config)
    t0 = config.t0
    sigma = config.sigma(t0)
    if sigma / t0 < sol.s0 - 0.25 * sol.delta:
        base = sol
    else:
        base = solve_background(config.b(t0), sol.gas, n=sol.n,
                                grid_size=max(256, config.grid_points))
    sampler = BackgroundSampler(base)
    zeta = base.s0 * t0
    if not sigma < zeta:
        raise SimulationError(f"empty initial domain at t={t0}: sigma={sigma} >= zeta={zeta}")
    y = np.linspace(0.0, 1.0, config.grid_points)
    r = sigma + y * (zeta - sigma)
    s = r / t0
    w, phi = sampler(s)                 # dr Phi = u(s)
    # self-similar time derivative of t*phi(r/t) at fixed x
    v = phi - s * w
    # make the sampled data compatible with the wall and shock conditions at
    # t0 (the perturbed piston speed differs from the profile wall speed by
    # O(eps)); the correction acts along the incoming characteristics only
    _apply_bcs(t0, v, w, config, config.dsigma(t0))
    return SimState(t=t0, sigma=sigma, zeta=zeta, y=y, v=v, w=w, phi=t0 * phi)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _entropy_margin(H: float, gas: GasParams) -> float:
    """H - rho0 of the post-shock density H; raises on entropy violation."""
    margin = H - gas.rho0
    if margin <= 0.0:
        raise SimulationError(f"entropy condition violated at shock: H - rho0 = {margin}")
    return margin


def _rh_speed(arg: float, w: float, gas: GasParams):
    """Rankine-Hugoniot shock velocity H w / (H - rho0) and the margin
    H - rho0 of the post-shock density H at the Bernoulli argument arg and
    radial velocity w (floats); raises on entropy violation H <= rho0."""
    H = _density_at(arg, gas)
    margin = _entropy_margin(H, gas)
    return H * w / margin, margin


def shock_speed(v, w, gas: GasParams):
    """Radial Rankine-Hugoniot shock velocity H w / (H - rho0) from the
    boundary state, and H - rho0; raises on entropy violation H <= rho0."""
    v, w = float(v), float(w)
    return _rh_speed(_flow_bernoulli(v, w * w, gas), w, gas)


class _ExplicitRun:
    """Per-run state of the explicit stepper on the grid y: every buffer a
    step writes, with its views, built once.  run builds one for the
    projection and all its steps; step and projected_explicit_steps build
    one when called without.

    X0 holds a step's start state, packed as (v, w, zeta, phi), and X the
    stage state, of which a stage forms (v, w, zeta) only, since no stage
    reads phi; k holds the four stage tendencies, and a (10, m) scratch
    block the stage kernel's intermediates: w^2, the Bernoulli argument,
    c^2, the grid node velocity V, r, a spare row, and the stacked pairs
    (dv, dw) and (V - 2w, w^2 - c^2).  A ufunc takes a Python float
    operand slower than a 0-d array, so a stage's scalars (L, sigma,
    zeta' - sigma', sigma'), the step's dt/2, dt and dt/6 and the
    formulas' constants are 0-d float64 arrays.  The (v, w) stencil is
    bound to X's (v, w) rows and the (dv, dw) pair.
    """

    def __init__(self, y, config: SimConfig):
        m, gas = len(y), config.gas
        self.gas, self.cfl, self.dy, self.iz = gas, config.cfl, y.item(1) - y.item(0), 2 * m
        vwz, vw, phi = slice(0, 2 * m + 1), slice(0, 2 * m), slice(2 * m + 1, None)
        X0, X, k = np.empty(3 * m + 1), np.empty(3 * m + 1), np.empty((4, 3 * m + 1))
        self.X0, self.v0, self.w0, self.phi0, self.X0s = X0, X0[:m], X0[m:2 * m], X0[phi], X0[vwz]
        self.X, self.v, self.w, self.Xs = X, X[:m], X[m:2 * m], X[vwz]
        block = np.empty((10, m))
        self.csq, self.V, self.tmp, self.fv = block[2], block[3], block[5], block[8]
        self.dt_half, self.dt_full, self.dt_sixth = np.zeros(()), np.zeros(()), np.zeros(())
        consts = [np.array(x) for x in (gas.B0, 0.5, gas.gamma - 1.0, config.n - 1.0, 2.0)]
        self.two = consts[-1]
        self._rows = (y, self.v, self.w, *block, block[6:8], block[8:10],
                      *(np.zeros(()) for _ in range(4)), *consts)
        self._stencil = _fd_bound(X[vw].reshape(2, m), self.dy, block[6:8])
        # each tendency row with its v, w, (v, w) and phi parts
        self.k_rows = [(r, r[:m], r[m:2 * m], r[vw], r[phi]) for r in k]
        # RK4 stages 2-4: the previous tendency's (v, w, zeta), its factor
        # and the stage's own tendency row; then the final combination's rows
        self.stages = tuple(zip(k[:3, vwz], (self.dt_half, self.dt_half, self.dt_full),
                                self.k_rows[1:]))
        self.k0, self.k12, self.k123 = k[0], k[1:3], k[1:]

    def load(self, state: SimState) -> None:
        """Pack state into X0 and its (v, w, zeta) into the stage state X."""
        self.v0[...] = state.v
        self.w0[...] = state.w
        self.X0[self.iz] = state.zeta
        self.phi0[...] = state.phi
        self.Xs[...] = self.X0s

    def stage(self, t, sigma, sdot, out):
        """The stage kernel: tendencies of the stage state X in the mapped
        frame, written into the tendency row out (one of k_rows) as
        (v, w, zeta, phi); sigma and sdot are the piston position and speed
        at t.  Returns the layer width L; c^2 and the node velocity V, from
        which the CFL step follows (cfl_dt), stay in the scratch rows.

        Every intermediate goes into a scratch row and every operand is an
        array; each ufunc takes its output as third argument.  The Bernoulli
        argument takes _flow_bernoulli's operations and vacuum rule, and
        zeta' comes from it at the shock node (_rh_speed).  The operations
        and their order are those of the plain formulas, so the tendencies
        are bitwise theirs."""
        L = self.X.item(self.iz) - sigma
        if L <= 0.0:
            raise SimulationError(f"piston overtook the shock at t={t}")
        mul, sub, add, div = np.multiply, np.subtract, np.add, np.divide
        (y, v, w, w_sq, arg, csq, V, r, tmp, dv, dw, fv, fw, dvw, flux,
         L_, sigma_, q, sdot_, B0, half, g1, nm1, two) = self._rows
        mul(w, w, w_sq)
        sub(B0, v, arg)
        mul(half, w_sq, tmp)
        sub(arg, tmp, arg)
        _nonvacuum(arg, self.gas)
        mul(g1, arg, csq)
        zdot, _ = _rh_speed(arg.item(-1), w.item(-1), self.gas)
        L_[()], sigma_[()], q[()], sdot_[()] = L, sigma, zdot - sdot, sdot
        mul(y, q, V)
        add(V, sdot_, V)
        mul(y, L_, r)
        add(r, sigma_, r)
        self._stencil()
        # (V - 2w) dv and (w^2 - c^2) dw in one call on the stacked rows
        mul(two, w, fv)
        sub(V, fv, fv)
        sub(w_sq, csq, fw)
        mul(flux, dvw, flux)
        row, vt, wt, vwt, phit = out
        sub(fv, fw, vt)
        mul(V, dw, wt)
        add(dv, wt, wt)
        div(vwt, L_, vwt)
        # + c^2 (n - 1) w / r
        mul(csq, nm1, tmp)
        mul(tmp, w, tmp)
        div(tmp, r, tmp)
        add(vt, tmp, vt)
        row[self.iz] = zdot
        mul(w, V, tmp)
        add(v, tmp, phit)
        return L

    def cfl_dt(self, L) -> float:
        """Acoustic CFL step of the explicit scheme on the mapped grid, from
        c^2 and the node velocity V of the last stage, the stage state's w
        and the layer width L; a float, so that the step's times and piston
        path are float arithmetic rather than numpy scalar arithmetic (the
        largest speed is read at its argmax, the first NaN if any)."""
        speed, c = self.tmp, self.fv
        np.subtract(self.w, self.V, out=speed)
        np.abs(speed, out=speed)
        np.sqrt(self.csq, out=c)
        np.add(speed, c, out=speed)
        return float(self.cfl * self.dy / (speed.item(speed.argmax()) / L))


def _rates(t, sigma, sdot, ex: _ExplicitRun, out):
    """Tendencies of one RK4 stage of the explicit step: the stage kernel
    ex.stage on ex's stage state, written into the tendency row out.  step
    makes each of its four stage evaluations through this module-level
    name, looked up at call time, so that a rebinding of it (the benchmark
    tracer's) sees every one; projected_explicit_steps calls ex.stage
    itself."""
    return ex.stage(t, sigma, sdot, out)


def _closure_residual(v, w, slope, gas: GasParams):
    """Shock compatibility residual g = v + zeta' w at the boundary state
    (v, w), zeta' = H w/(H - rho0), and its derivative along the
    correction direction (dv, dw) = (-slope, 1).

    With arg = B0 - v - w^2/2: d arg = slope - w, dH = H/c^2 d arg with
    c^2 = (gamma-1) arg, d zeta' = H/(H - rho0) - rho0 w dH/(H - rho0)^2,
    and dg = -slope + w d zeta' + zeta'.
    """
    arg = _flow_bernoulli(v, w * w, gas)
    H = _density_at(arg, gas)
    margin = _entropy_margin(H, gas)
    zdot = H * w / margin
    dH = H / ((gas.gamma - 1.0) * arg) * (slope - w)
    dzdot = H / margin - gas.rho0 * w * dH / (margin * margin)
    return v + zdot * w, -slope + w * dzdot + zdot


def _apply_bcs(t, v, w, config: SimConfig, sdot):
    """Impose the wall and shock conditions at time t by correcting the
    boundary state along the incoming characteristic direction
    (dv, dw) = (-(w -+ c), 1), which leaves the outgoing Riemann
    combination untouched; sdot is the piston speed dsigma/dt(t).  Works
    on floats; the shock Newton step uses the closed-form derivative of
    _closure_residual.  Raises SimulationError if the Newton solve at the
    shock does not converge.
    """
    gas = config.gas
    g1 = gas.gamma - 1.0
    # piston: prescribe w = dsigma/dt along the (w + c)-characteristic
    v0, w0 = v.item(0), w.item(0)
    c0 = math.sqrt(g1 * _flow_bernoulli(v0, w0 * w0, gas))
    alpha = sdot - w0
    v[0] = v0 - (w0 + c0) * alpha
    w[0] = w0 + alpha
    # shock: enforce potential-continuity compatibility v = -zeta' w with
    # zeta' from the Rankine-Hugoniot relation; Newton in the correction
    # amplitude along the (w - c)-characteristic direction
    v1, w1 = v.item(-1), w.item(-1)
    slope = w1 - math.sqrt(g1 * _flow_bernoulli(v1, w1 * w1, gas))
    alpha, tol = 0.0, 1e-12 * max(1.0, abs(v1))
    ga, dg = _closure_residual(v1, w1, slope, gas)
    for _ in range(12):
        if dg == 0.0:
            raise SimulationError(
                f"shock closure at t={t}: flat Newton derivative, residual {float(ga)!r}")
        alpha -= ga / dg
        ga, dg = _closure_residual(v1 - slope * alpha, w1 + alpha, slope, gas)
        if abs(ga) < tol:
            break
    else:
        raise SimulationError(
            f"shock closure at t={t} did not converge: residual {float(ga)!r} "
            "after 12 Newton iterations")
    v[-1] = v1 - slope * alpha
    w[-1] = w1 + alpha


def projected_explicit_steps(state: SimState, config: SimConfig,
                             ex: _ExplicitRun | None = None) -> float:
    """Explicit steps from state.t to t_end at the state's CFL step, taken
    with ex (a per-run state on the state's grid, built when not given).

    On the self-similar flow the CFL step grows like t, so the count is
    ln(t_end/t) * t/dt_CFL.
    """
    if ex is None:
        ex = _ExplicitRun(state.y, config)
    t = state.t
    ex.load(state)
    dt = ex.cfl_dt(ex.stage(t, state.sigma, config.dsigma(t), ex.k_rows[0]))
    return math.log(config.t_end / t) * t / dt


def step(state: SimState, config: SimConfig, dt: float | None = None,
         ex: _ExplicitRun | None = None) -> SimState:
    """Advance one step with classical 4-stage explicit Runge-Kutta.

    The 4-stage scheme is used (rather than a 2-stage one) because its
    stability region covers the imaginary axis, which neutral centered
    differences require; accuracy order exceeds the 2nd-order target.

    Without dt the step is the CFL step of the start state, formed from
    the c^2 and node velocity that stage 1 evaluates there.  The piston
    path is evaluated once at each of the three stage times.  Every
    buffer the step writes belongs to ex, the per-run state that run
    builds once for all its steps (one is built when not given): the
    packed start state X0 = (v, w, zeta, phi), the stage state, the (4, N)
    tendency buffer and the stage kernel's scratch.  The returned state
    owns a fresh X.  Every ufunc operand is an array: dt/2, dt and dt/6
    are 0-d.  No stage reads phi, so a stage state is formed for (v, w,
    zeta) only.  The updates keep the plain formulas' operations and their
    order: X0 + (frac dt) k for each stage and
    X0 + dt/6 ((k0 + 2 k1 + 2 k2) + k3) at the end, so the new state is
    bitwise the plain formulas'.
    """
    if ex is None:
        ex = _ExplicitRun(state.y, config)
    t = state.t
    ex.load(state)
    L = _rates(t, config.sigma(t), config.dsigma(t), ex, ex.k_rows[0])
    if dt is None:
        dt = ex.cfl_dt(L)
    if not math.isfinite(dt) or dt <= 0:
        raise SimulationError(f"CFL step size invalid at t={t}: dt={dt}")
    th, tn = t + 0.5 * dt, t + dt
    half = (th, config.sigma(th), config.dsigma(th))
    end = (tn, config.sigma(tn), config.dsigma(tn))
    ex.dt_half[()], ex.dt_full[()], ex.dt_sixth[()] = 0.5 * dt, dt, dt / 6.0
    mul, add = np.multiply, np.add
    Xs, X0s, v, w = ex.Xs, ex.X0s, ex.v, ex.w
    for (k_prev, fdt, out), (tt, sigma, sdot) in zip(ex.stages, (half, half, end)):
        mul(k_prev, fdt, Xs)
        add(Xs, X0s, Xs)
        _apply_bcs(tt, v, w, config, sdot)
        _rates(tt, sigma, sdot, ex, out)
    k0 = ex.k0
    mul(ex.k12, ex.two, ex.k12)
    for ki in ex.k123:
        add(k0, ki, k0)
    mul(k0, ex.dt_sixth, k0)
    X = np.empty(len(k0))
    add(ex.X0, k0, X)
    m = len(v)
    v, w = X[:m], X[m:2 * m]
    _apply_bcs(tn, v, w, config, end[2])
    sn, zn = end[1], X[2 * m]
    if not sn < zn:
        raise SimulationError(f"piston overtook the shock at t={tn}")
    return SimState(t=tn, sigma=sn, zeta=zn, y=state.y, v=v, w=w, phi=X[2 * m + 1:])


# ---------------------------------------------------------------------------
# implicit self-similar stepping
# ---------------------------------------------------------------------------

#: run() takes the implicit step when explicit RK4 would need more steps
#: than this (the resolved reference runs need about 1e4, the 1.7e-5
#: stand-off of gamma = 1.4, b0 = 40 on 512 points about 5e9)
IMPLICIT_STEP_THRESHOLD = 1.0e6
#: largest implicit step in tau = log t
IMPLICIT_MAX_DTAU = 0.02
_NEWTON_MAXITER = 12
_NEWTON_RTOL = 1e-9
#: (lower, upper) bandwidth of the node block in (v0, w0, v1, w1, ...)
#: order: the one-sided end stencils reach two nodes
_BANDS = (5, 5)


def _bordered_solve(Ab, C, B, D, r):
    """Solve [[A, C], [B, D]] dx = r, A in band storage Ab (bands _BANDS), by
    one solve_banded call on r and the C columns and a 2x2 Schur complement."""
    from scipy.linalg import solve_banded   # only the implicit path loads scipy
    X = solve_banded(_BANDS, Ab, np.column_stack([r[:-2], C]))
    BX = B @ X
    dz = np.linalg.solve(D - BX[:, 1:], r[-2:] - BX[:, 0])
    return np.concatenate([X[:, 0] - X[:, 1:] @ dz, dz])


class TauOperator:
    """The system M dx/dtau = F(x) in tau = log t on the grid y.

    Every term of _rates scales like 1/t, so t d/dt of (v, w) depends on t
    only through the piston path.  The unknowns
    x = (v0, w0, ..., v_{m-1}, w_{m-1}, ell, q) are v and w at the nodes,
    the layer width ell = Z - b = (zeta - sigma)/t with Z = zeta/t and the
    relative shock speed q = zeta' - sigma'.  For a steady piston the
    equations are autonomous in tau, and their fixed point F(x) = 0 is the
    discrete self-similar background.
    """

    def __init__(self, y, config: SimConfig):
        self.config, self.y = config, y
        m = len(y)
        # diagonal of M: zero on the algebraic wall, shock and RH rows
        self.mdiag = np.ones(2 * m + 2)
        self.mdiag[[1, -3, -1]] = 0.0
        # (row, col) node pairs of the _fd_derivative stencil, the weight
        # of each, and the pairs in each boundary row
        D = _fd_derivative(np.eye(m), y[1] - y[0]).T
        self._rows, cols = np.nonzero(D)
        self._wts = D[self._rows, cols]
        self._ends = [np.flatnonzero(self._rows == node) for node in (0, m - 1)]
        # flat index into the (v, w)-interleaved band storage of each
        # pair's vv, vw, wv, ww entry
        lo, up = _BANDS
        r2 = np.concatenate([2 * self._rows] * 2 + [2 * self._rows + 1] * 2)
        c2 = np.concatenate([2 * cols, 2 * cols + 1] * 2)
        self._band_index = (up + r2 - c2) * (2 * m) + c2
        self._band_shape = (lo + up + 1, 2 * m)

    def weights(self, x):
        """The outgoing characteristic speeds a = (w + c at the wall, w - c
        at the shock) of the unknowns x: the boundary v rows' weights."""
        gas, v, w = self.config.gas, x[[0, -4]], x[[1, -3]]
        return w + [1.0, -1.0] * np.sqrt((gas.gamma - 1.0) * _flow_bernoulli(v, w * w, gas))

    def mass(self, a):
        """M in J's layout: 1 on the differential rows, 0 on the algebraic
        ones, and a = (a_wall, a_shock) times w in the boundary v rows."""
        up = _BANDS[1]
        Mb = np.zeros(self._band_shape)
        Mb[up] = self.mdiag[:-2]
        Mb[up - 1, [1, -1]] = a
        return Mb, np.diag(self.mdiag[-2:])

    def __call__(self, t, x, a):
        """Right-hand side F(x) of M dx/dtau = F(x) and its Jacobian J.

        The node rows are the centred differences of _rates times t.  At
        each boundary node the outgoing characteristic combination is kept,
        v row + a w row with the weights a = (a_wall, a_shock), and the w
        row is the algebraic boundary condition, as in _apply_bcs:
        w - sigma' = 0 at the wall, v + zeta' w = 0 at the shock.  Then come
        the ell row q - ell and the algebraic Rankine-Hugoniot row
        zeta' (H - rho0) - H w.  J is (Jb, C, B, D): the band storage
        (bands _BANDS) of its node block, its ell and q columns on the node
        rows, its ell and RH rows on the node columns, and the 2x2 corner.
        """
        config, gas = self.config, self.config.gas
        g1 = gas.gamma - 1.0
        y, m = self.y, len(self.y)
        vw = x[:-2].reshape(m, 2).T.copy()
        v, w = vw
        ell, q = x[-2], x[-1]
        arg = _flow_bernoulli(v, w * w, gas)
        csq = g1 * arg
        sdot = config.dsigma(t)
        zdot = sdot + q
        V = sdot + y * q
        rr = config.b(t) + y * ell          # r/t
        dy = y[1] - y[0]
        dv, dw = _fd_derivative(vw, dy)
        flux = (V - 2.0 * w) * dv - (w * w - csq) * dw
        src = (config.n - 1) * csq * w / rr
        F = np.empty(2 * m + 2)
        Fv, Fw = F[0:-2:2], F[1:-2:2]
        Fv[:] = flux / ell + src
        Fw[:] = (dv + V * dw) / ell

        # node block: the stencil terms on the pairs
        si, sd = self._rows, self._wts / ell
        Jvv = (V - 2.0 * w)[si] * sd
        Jvw = -(w * w - csq)[si] * sd
        Jwv = sd.copy()
        Jww = V[si] * sd
        C = np.empty((2 * m, 2))
        C[0::2, 0] = -flux / ell ** 2 - src * y / rr
        C[1::2, 0] = -Fw / ell
        C[0::2, 1] = y * dv / ell
        C[1::2, 1] = y * dw / ell
        for node, a_node, sel in zip((0, m - 1), a, self._ends):
            Jvv[sel] += a_node * Jwv[sel]
            Jvw[sel] += a_node * Jww[sel]
            Jwv[sel] = Jww[sel] = 0.0
            Fv[node] += a_node * Fw[node]
            C[2 * node] += a_node * C[2 * node + 1]
            C[2 * node + 1] = 0.0
        Fw[0] = w[0] - sdot
        Fw[-1] = v[-1] + zdot * w[-1]
        C[-1, 1] = w[-1]
        # in band storage, where entry (i, j) sits at [up + i - j, j]: the
        # node-local terms of the v rows, then the wall and shock rows
        up = _BANDS[1]
        Jb = np.bincount(self._band_index, weights=np.concatenate([Jvv, Jvw, Jwv, Jww]),
                         minlength=math.prod(self._band_shape)).reshape(self._band_shape)
        Jb[up, 0::2] -= g1 * (dw / ell + (config.n - 1) * w / rr)
        Jb[up - 1, 1::2] += ((config.n - 1) * (csq - g1 * w * w) / rr
                             - (2.0 * dv + (gas.gamma + 1.0) * w * dw) / ell)
        Jb[up, 1] = 1.0
        Jb[up + 1, -2], Jb[up, -1] = 1.0, zdot

        H = _density_at(arg[-1], gas)
        dH = -H / csq[-1] * np.array([1.0, w[-1]])      # dH/dv, dH/dw
        B = np.zeros((2, 2 * m))
        B[1, -2:] = (zdot - w[-1]) * dH - [0.0, H]
        D = np.array([[-1.0, 1.0], [0.0, H - gas.rho0]])
        F[-2:] = q - ell, zdot * (H - gas.rho0) - H * w[-1]
        return F, (Jb, C, B, D)


class SelfSimilarStepper:
    """L-stable BDF2 stepping (BDF1 first) of TauOperator: it damps the
    stand-off layer's acoustic modes rather than resolving them, so the slow
    dynamics, not the CFL limit, set the step; phi follows by quadrature."""

    def __init__(self, state: SimState, config: SimConfig):
        self.op = TauOperator(state.y, config)
        self.t = state.t
        zdot, _ = shock_speed(state.v[-1], state.w[-1], config.gas)
        self.x = np.concatenate([np.column_stack([state.v, state.w]).ravel(),
                                 [(state.zeta - state.sigma) / state.t,
                                  zdot - config.dsigma(state.t)]])
        self.phi = state.phi.copy()
        self._prev = None       # (dtau, x, phi) one step back

    def step(self, t_new: float) -> SimState:
        """Advance to t_new by Newton on M (x - hist) = k F(x), each update
        a _bordered_solve on M - k J; raises SimulationError if it stalls."""
        config, op = self.op.config, self.op
        dtau = math.log(t_new / self.t)
        x = self.x
        if self._prev is None:
            k, hist, phi_hist = dtau, x, self.phi
        else:
            om = dtau / self._prev[0]
            c1, c2 = (1.0 + om) ** 2 / (1.0 + 2.0 * om), om ** 2 / (1.0 + 2.0 * om)
            k = (1.0 + om) / (1.0 + 2.0 * om) * dtau
            hist, phi_hist = c1 * x - c2 * self._prev[1], c1 * self.phi - c2 * self._prev[2]
            # linear extrapolation in tau of all but q as the Newton start
            x = (1.0 + om) * x - om * self._prev[1]
            x[-1] = self.x[-1]
        a = op.weights(self.x)      # frozen at the start of the step
        Mb, Mc = op.mass(a)

        for _ in range(_NEWTON_MAXITER):
            F, (Jb, C, B, D) = op(t_new, x, a)
            d = x - hist
            R = op.mdiag * d - k * F
            R[[0, -4]] += a * d[[1, -3]]
            dx = _bordered_solve(Mb - k * Jb, -k * C, -k * B, Mc - k * D, R)
            x = x - dx
            # q = zeta' - sigma' is a difference of speeds and carries
            # their rounding, so it is measured against zeta', not ell
            err = max(np.max(np.abs(dx[:-2])) / np.max(np.abs(x[:-2])),
                      abs(dx[-2]) / x[-2],
                      abs(dx[-1]) / abs(config.dsigma(t_new) + x[-1]))
            if err <= _NEWTON_RTOL:
                break
        else:
            raise SimulationError(
                f"implicit step to t={t_new} did not converge: relative "
                f"Newton update {err:.3e} after {_NEWTON_MAXITER} iterations")
        v, w, ell, q = x[0:-2:2], x[1:-2:2], x[-2], x[-1]
        if not ell > 0.0:
            raise SimulationError(f"piston overtook the shock at t={t_new}")

        phi = phi_hist + k * t_new * (v + w * (config.dsigma(t_new) + op.y * q))
        self._prev = (dtau, self.x, self.phi)
        self.t, self.x, self.phi = t_new, x, phi
        return SimState(t=t_new, sigma=config.sigma(t_new),
                        zeta=t_new * (config.b(t_new) + ell), y=op.y, v=v, w=w, phi=phi)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

#: logarithmically spaced output times per decade of t
OUTPUTS_PER_DECADE = 200


@dataclass
class SimResult:
    """Output series of a run; one row per output time."""

    config: SimConfig
    s0: float
    t: np.ndarray
    zeta: np.ndarray
    sigma: np.ndarray
    sup_dev: np.ndarray
    #: |H w - (H - rho0) zeta'| at the shock node, with zeta' taken from the
    #: same H by shock_speed: it can show only rounding, not the residual
    #: the stepper leaves
    rh_residual: np.ndarray
    entropy_margin: np.ndarray
    phi_shock: np.ndarray
    mass_residual: np.ndarray
    completed: bool
    steps: int
    stepper: str = "explicit"   # or "implicit", chosen by run()
    #: steps the whole run was projected to take when run() chose the
    #: stepper: projected_explicit_steps, or the implicit step targets
    projected_steps: float = 0.0
    #: output rows whose piston sigma/t lies outside the background span,
    #: so sup_dev was measured against an extrapolated comparator
    extrapolated_records: int = 0

    @property
    def zeta_dev(self) -> np.ndarray:
        return np.abs(self.zeta / self.t - self.s0)

    def summary(self) -> dict:
        return {
            "n": self.config.n,
            "gamma": self.config.gas.gamma,
            "b0": self.config.b0,
            "eps": self.config.eps,
            "grid_points": self.config.grid_points,
            "t_end": self.config.t_end,
            "completed": self.completed,
            "steps": self.steps,
            "max_zeta_dev": float(np.max(self.zeta_dev)),
            "max_rh_residual": float(np.max(self.rh_residual)),
            "min_entropy_margin": float(np.min(self.entropy_margin)),
            "max_mass_residual": float(np.max(self.mass_residual[1:]))
            if len(self.mass_residual) > 1 else 0.0,
            "extrapolated_records": self.extrapolated_records,
        }


def _mass_integral(state: SimState, gas: GasParams, n: int) -> float:
    rho = state.density(gas)
    r = state.r
    return float(np.trapezoid(rho * r ** (n - 1), r))


def run(config: SimConfig, sol: SelfSimilarSolution | None = None,
        wall_clock_budget: float | None = None) -> SimResult:
    """Integrate from t0 to t_end, recording deviation diagnostics.

    Records at logarithmically spaced output times: shock/piston radii, the
    sup-norm gradient deviation from the modified background, the
    Rankine-Hugoniot residual of the current shock state, the entropy
    margin H - rho0, the potential trace at the shock (continuity check),
    and a weak-form mass-balance residual between consecutive outputs.
    If wall_clock_budget (seconds) is exceeded the partial series is
    returned with completed=False.
    A supplied ``sol`` must be solved for the config's n, gas and b0
    (ValueError otherwise).

    The stepper is chosen from the initial state: explicit RK4 at the CFL
    step, unless that would take more than IMPLICIT_STEP_THRESHOLD steps
    (projected_explicit_steps), in which case SelfSimilarStepper steps
    onto the output times.
    """
    if sol is None:
        sol = solve_background(config.b0, config.gas, n=config.n,
                               grid_size=max(512, 2 * config.grid_points))
    mb = modified_background(sol, config)
    state = init_from_background(sol, config)
    gas = config.gas

    n_out = max(2, int(np.log10(config.t_end / config.t0) * OUTPUTS_PER_DECADE))
    out_times = np.geomspace(config.t0, config.t_end, n_out)

    # keyed by the SimResult fields they fill
    rows = {k: [] for k in ("t", "zeta", "sigma", "sup_dev", "rh_residual",
                            "entropy_margin", "phi_shock", "mass_residual")}
    prev_mass = prev_zeta = None
    extrapolated = 0

    def record(st: SimState):
        nonlocal prev_mass, prev_zeta, extrapolated
        extrapolated += mb.sampler.extrapolates(st.sigma / st.t)
        zdot, margin = shock_speed(st.v[-1], st.w[-1], gas)
        H = margin + gas.rho0
        rh = abs(H * st.w[-1] - (H - gas.rho0) * zdot)
        d_t, d_r = mb.grad_phi_a(st.t, st.r)
        sup_dev = float(max(np.max(np.abs(st.v - d_t)), np.max(np.abs(st.w - d_r))))
        mass = _mass_integral(st, gas, config.n)
        if prev_mass is None:
            mres = 0.0
        else:
            # weak mass balance: d/dt int rho r^{n-1} dr = rho0 zeta^{n-1} zeta'
            swept = gas.rho0 * (st.zeta ** config.n - prev_zeta ** config.n) / config.n
            mres = abs((mass - prev_mass) - swept) / max(abs(mass), 1.0)
        prev_mass, prev_zeta = mass, st.zeta
        for col, value in zip(rows.values(), (st.t, st.zeta, st.sigma, sup_dev, rh,
                                              margin, abs(st.phi[-1]), mres)):
            col.append(value)

    record(state)
    start = _time.monotonic()
    ex = _ExplicitRun(state.y, config)
    projected = projected_explicit_steps(state, config, ex)
    if projected > IMPLICIT_STEP_THRESHOLD:
        stepper = "implicit"
        implicit = SelfSimilarStepper(state, config)
        # sub equal steps in tau per output interval, landing on each output
        sub = math.ceil(math.log(out_times[1] / out_times[0]) / IMPLICIT_MAX_DTAU)
        times = [t_a * (t_b / t_a) ** (j / sub) if j < sub else t_b
                 for t_a, t_b in zip(out_times[:-1], out_times[1:])
                 for j in range(1, sub + 1)]
        projected, targets = len(times), iter(times)

        def advance(st: SimState) -> SimState:
            return implicit.step(next(targets))
    else:
        stepper = "explicit"

        def advance(st: SimState) -> SimState:
            return step(st, config, ex=ex)

    steps, next_out, completed = 0, 1, True
    while state.t < config.t_end:
        state = advance(state)
        steps += 1
        while next_out < n_out and state.t >= out_times[next_out]:
            record(state)
            next_out += 1
        if wall_clock_budget is not None and _time.monotonic() - start > wall_clock_budget:
            completed = bool(state.t >= config.t_end)
            break
    if completed and (not rows["t"] or rows["t"][-1] < state.t):
        record(state)

    return SimResult(
        config=config,
        s0=sol.s0,
        **{k: np.array(col) for k, col in rows.items()},
        completed=completed,
        steps=steps,
        stepper=stepper,
        projected_steps=projected,
        extrapolated_records=extrapolated,
    )


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponent of a deviation series: dev ~ (1+t)^(-m0)."""

    m0_est: float
    residual: float
    window: tuple


def fit_decay(t, dev, window: tuple = (2.0, None), floor: float | None = None) -> DecayFit:
    """Fit log(dev) vs log(1+t) on the window (excludes the initial
    transient; default start t = 2).  Values at or below the floor
    (discretization noise) are excluded; an empty or degenerate window
    raises with a hint to shrink it.
    """
    t = np.asarray(t, dtype=float)
    dev = np.asarray(dev, dtype=float)
    lo = window[0] if window[0] is not None else t[0]
    hi = window[1] if window[1] is not None else t[-1]
    mask = (t >= lo) & (t <= hi)
    if floor is not None:
        mask &= dev > floor
    if np.any(dev[mask] <= 0.0):
        raise ValueError(
            "non-positive deviations in the fit window: the series has hit "
            "the discretization floor; shrink the window or pass floor=")
    tm, dm = t[mask], dev[mask]
    if len(tm) < 4 or tm[-1] / tm[0] < 10.0 ** 0.5:
        raise ValueError("fit window too short: need a decent span in t")
    coeffs, res, *_ = np.polyfit(np.log1p(tm), np.log(dm), 1, full=True)
    residual = float(np.sqrt(res[0] / len(tm))) if len(res) else 0.0
    return DecayFit(m0_est=float(-coeffs[0]), residual=residual,
                    window=(float(lo), float(hi)))
