"""Bitwise oracle for the explicit RK4 step and the diagnostic background.

The stage kernel of ``step`` (CFL step from stage 1, one tendency buffer,
in-place updates) and the single-sampler ``grad_phi_a`` keep the
operations of the plain formulas and their order, so every output must be
bitwise that of the plain versions.  Those are kept here verbatim as the
reference: ``step``, ``_rates``, ``_cfl_dt``, ``E`` and ``grad_phi_a``,
with the helpers the stage kernel rewrote (``_bernoulli``, ``_sound``,
``_apply_bcs`` and the one-column ``_fd_derivative``) and the shock rule's
own copy: ``shock_speed`` and ``_closure_residual``, each forming the
density H, the entropy margin H - rho0 and zeta' = H w / (H - rho0) inline.
The package takes all three from one ``_rh_speed``, with the shock node's
Bernoulli argument formed once per Newton pass, so the comparison also
pins the closure's operations.  Nothing of the stepper is shared.
"""

import math

import numpy as np
import pytest

from conicshock import simulator
from conicshock.background import solve_background
from conicshock.gas import VACUUM_REL_THRESHOLD, GasParams, VacuumError
from conicshock.simulator import (SimConfig, SimState, SimulationError, init_from_background,
                                  modified_background)

# ---------------------------------------------------------------------------
# reference: the plain formulas
# ---------------------------------------------------------------------------


def _fd_derivative(y, h):
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def _bernoulli(v, w, gas):
    arg = gas.B0 - v - 0.5 * w * w
    low = arg.min() if isinstance(arg, np.ndarray) else arg
    if not low > VACUUM_REL_THRESHOLD * gas.B0:
        raise VacuumError("Bernoulli argument reached vacuum; flow state is not admissible")
    return arg


def _sound(v, w, gas):
    return np.sqrt((gas.gamma - 1.0) * _bernoulli(v, w, gas))


def _density(arg, gas):
    return ((gas.gamma - 1.0) * arg / (gas.A * gas.gamma)) ** (1.0 / (gas.gamma - 1.0))


def shock_speed(v, w, gas):
    v, w = float(v), float(w)
    H = _density(_bernoulli(v, w, gas), gas)
    margin = H - gas.rho0
    if margin <= 0.0:
        raise SimulationError(f"entropy condition violated at shock: H - rho0 = {margin}")
    return H * w / margin, margin


def _closure_residual(v, w, slope, gas):
    arg = _bernoulli(v, w, gas)
    H = _density(arg, gas)
    margin = H - gas.rho0
    if margin <= 0.0:
        raise SimulationError(f"entropy condition violated at shock: H - rho0 = {margin}")
    zdot = H * w / margin
    dH = H / ((gas.gamma - 1.0) * arg) * (slope - w)
    dzdot = H / margin - gas.rho0 * w * dH / (margin * margin)
    return v + zdot * w, -slope + w * dzdot + zdot


def _rates(t, sigma, zeta, y, v, w, config):
    gas = config.gas
    L = zeta - sigma
    if L <= 0.0:
        raise SimulationError(f"piston overtook the shock at t={t}")
    dy = y[1] - y[0]
    csq = (gas.gamma - 1.0) * _bernoulli(v, w, gas)
    r = sigma + y * L

    zdot, _ = shock_speed(v[-1], w[-1], gas)
    sdot = config.dsigma(t)
    V = sdot + y * (zdot - sdot)      # grid node velocity

    dv = _fd_derivative(v, dy)
    dw = _fd_derivative(w, dy)
    v_t = ((V - 2.0 * w) * dv - (w ** 2 - csq) * dw) / L + csq * (config.n - 1) * w / r
    return np.concatenate([v_t, (dv + V * dw) / L, v + w * V, [zdot]])


def _apply_bcs(t, v, w, config):
    gas = config.gas
    g1 = gas.gamma - 1.0
    v0, w0 = float(v[0]), float(w[0])
    c0 = math.sqrt(g1 * _bernoulli(v0, w0, gas))
    alpha = config.dsigma(t) - w0
    v[0] = v0 - (w0 + c0) * alpha
    w[0] = w0 + alpha
    v1, w1 = float(v[-1]), float(w[-1])
    slope = w1 - math.sqrt(g1 * _bernoulli(v1, w1, gas))
    alpha = 0.0
    ga, dg = _closure_residual(v1, w1, slope, gas)
    for _ in range(12):
        if dg == 0.0:
            raise SimulationError(
                f"shock closure at t={t}: flat Newton derivative, residual {float(ga)!r}")
        alpha -= ga / dg
        ga, dg = _closure_residual(v1 - slope * alpha, w1 + alpha, slope, gas)
        if abs(ga) < 1e-12 * max(1.0, abs(v1)):
            break
    else:
        raise SimulationError(
            f"shock closure at t={t} did not converge: residual {float(ga)!r} "
            "after 12 Newton iterations")
    v[-1] = v1 - slope * alpha
    w[-1] = w1 + alpha


def _cfl_dt(state, config):
    gas = config.gas
    t, y = state.t, state.y
    dy = y[1] - y[0]
    c = _sound(state.v, state.w, gas)
    zdot, _ = shock_speed(state.v[-1], state.w[-1], gas)
    sdot = config.dsigma(t)
    V = sdot + y * (zdot - sdot)
    L = state.zeta - state.sigma
    speed = np.max(np.abs(state.w - V) + c) / L
    return config.cfl * dy / speed


def _step(state, config, dt=None):
    t, y, m = state.t, state.y, len(state.y)
    if dt is None:
        dt = _cfl_dt(state, config)
    if not np.isfinite(dt) or dt <= 0:
        raise SimulationError(f"CFL step size invalid at t={t}: dt={dt}")

    def rates(tt, X):
        # X = (v, w, phi, zeta), as _rates returns it
        return _rates(tt, config.sigma(tt), X[-1], y, X[:m], X[m:2 * m], config)

    X0 = np.concatenate([state.v, state.w, state.phi, [state.zeta]])
    k = [rates(t, X0)]
    for frac in (0.5, 0.5, 1.0):
        X = X0 + frac * dt * k[-1]
        _apply_bcs(t + frac * dt, X[:m], X[m:2 * m], config)
        k.append(rates(t + frac * dt, X))
    tn = t + dt
    X = X0 + dt / 6.0 * (k[0] + 2 * k[1] + 2 * k[2] + k[3])
    _apply_bcs(tn, X[:m], X[m:2 * m], config)
    sn, zn = config.sigma(tn), X[-1]
    if not sn < zn:
        raise SimulationError(f"piston overtook the shock at t={tn}")
    return SimState(t=tn, sigma=sn, zeta=zn, y=y, v=X[:m], w=X[m:2 * m], phi=X[2 * m:-1])


def _E(mb, t):
    t = np.asarray(t, dtype=float)
    u, phi = mb.sampler(mb.config.sigma(t) / t)
    phi_hat = t * phi
    if np.any(np.abs(phi_hat) < 1e-300):
        raise ZeroDivisionError("background potential vanishes at the piston")
    if mb.config.eps == 0.0:
        return np.zeros_like(t)
    return (mb.config.dsigma(t) - u) / phi_hat


def _grad_phi_a(mb, t, r):
    r = np.asarray(r, dtype=float)
    s = r / t
    u, phi = mb.sampler(s)           # phi: per-unit-time potential
    E = _E(mb, t)
    fa = E * (r - mb.config.sigma(t))
    dt = 1e-6 * t
    dE = (_E(mb, t + dt) - _E(mb, t - dt)) / (2.0 * dt)
    dfa_dt = dE * (r - mb.config.sigma(t)) - E * mb.config.dsigma(t)
    # Phi_hat = t * phi(r/t): dt Phi_hat = phi - s u, dr Phi_hat = u
    d_t = (1.0 + fa) * (phi - s * u) + dfa_dt * t * phi
    d_r = (1.0 + fa) * u + E * t * phi
    return d_t, d_r


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    """Bitwise equality: same dtype, shape and bytes (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: (n, gamma, b0, grid points, cfl, t0, eps): the decay reference case, the
#: thin layer of the pinned certified case, an unperturbed n = 2 case
#: at another CFL number and start time, and an odd grid near the top of
#: the gamma range, where the stacked (v, w) difference straddles rows of
#: odd length and the one-sided end stencils sit at odd offsets
CASES = {
    "decay": (3, 2.0, 4.0, 64, 0.4, 1.0, 0.0123),
    "thin_layer": (3, 1.4, 40.0, 512, 0.4, 1.0, 0.0123),
    "n2": (2, 1.4, 10.0, 32, 0.3, 1.5, 0.0),
    "odd_grid": (3, 2.9, 10.0, 33, 0.35, 2.0, 0.02),
}
STEPS = 300


@pytest.mark.parametrize("case", CASES)
def test_step_and_diagnostics_bitwise(case):
    n, gamma, b0, m, cfl, t0, eps = CASES[case]
    gas = GasParams(gamma=gamma)
    cfg = SimConfig(n=n, gas=gas, b0=b0, eps=eps, grid_points=m, cfl=cfl, t0=t0,
                    t_end=t0 + 50.0)
    sol = solve_background(b0, gas, n=n, grid_size=max(512, 2 * m))
    mb = modified_background(sol, cfg)
    new = ref = init_from_background(sol, cfg)
    projected = math.log(cfg.t_end / ref.t) * ref.t / _cfl_dt(ref, cfg)
    assert _same(simulator.projected_explicit_steps(new, cfg), projected)
    for i in range(STEPS):
        t_prev = ref.t
        new, ref = simulator.step(new, cfg), _step(ref, cfg)
        for name in ("t", "sigma", "zeta", "v", "w", "phi"):
            assert _same(getattr(new, name), getattr(ref, name)), (i, name)
        for got, want in zip(mb.grad_phi_a(new.t, new.r), _grad_phi_a(mb, ref.t, ref.r)):
            assert _same(got, want), i
    # an explicit dt skips the CFL step and still matches
    dt = 0.5 * (ref.t - t_prev)
    assert _same(simulator.step(new, cfg, dt=dt).v, _step(ref, cfg, dt=dt).v)


def test_piston_residual_bitwise():
    # grad_phi_a at the piston, on an array of times and on single times
    # (float and numpy float), without and with the perturbation
    gas = GasParams(gamma=2.0)
    sol = solve_background(4.0, gas, n=3, grid_size=512)
    ts = np.geomspace(1.0, 100.0, 200)
    singles = [*np.geomspace(1.0, 100.0, 50).tolist(), *np.linspace(1.5, 60.5, 30)]
    for eps in (0.0, 0.01):
        cfg = SimConfig(n=3, gas=gas, b0=4.0, eps=eps)
        mb = modified_background(sol, cfg)
        for t in (ts, *singles):
            r = np.asarray(cfg.sigma(t), dtype=float)
            for got, want in zip(mb.grad_phi_a(t, r), _grad_phi_a(mb, t, r)):
                assert _same(got, want), (eps, t)
        assert _same(mb.E(ts), _E(mb, ts))
