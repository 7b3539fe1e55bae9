"""End-to-end acceptance checks with pinned tolerances.

Each class covers one headline property of the laboratory: background
shooting, large-speed asymptotics, the straightened formulation, boundary
stability structure, multiplier certificates, the free-boundary simulator,
and the perturbed-background construction.  Sub-checks are split into
separate tests so an individual quantitative discrepancy is visible on its
own.
"""

import math
import time

import numpy as np
import pytest

from conicshock import (
    GasParams,
    K_coeffs,
    SimConfig,
    admissible_mu,
    asymptotic_report,
    boundary_signs,
    certify,
    check_ellipticity,
    decay_exponent,
    fit_decay,
    local_stability,
    modified_background,
    psi_hat_from_background,
    run,
    solve_background,
    sound_speed,
)
from conicshock.hodograph import (
    profile_ode_residual,
    transform_identity_residual,
)

GAS14 = GasParams(A=1.0, gamma=1.4, rho0=1.0)
B0_SWEEP = (10.0, 20.0, 40.0, 80.0)


@pytest.fixture(scope="module")
def sweep_sols():
    return {b0: solve_background(b0, GAS14, n=3) for b0 in B0_SWEEP}


@pytest.fixture(scope="module")
def sol80(sweep_sols):
    return sweep_sols[80.0]


@pytest.fixture(scope="module")
def asym(sweep_sols):
    return asymptotic_report([sweep_sols[b0] for b0 in B0_SWEEP])


# ---------------------------------------------------------------------------
# 1. background shooting
# ---------------------------------------------------------------------------

class TestBackgroundShooting:
    @pytest.mark.parametrize("b0", B0_SWEEP)
    def test_piston_condition_and_admissibility(self, sweep_sols, b0):
        # sweep_sols warms the solver path so the timing below measures the
        # solve itself, not first-call library initialization
        t0 = time.perf_counter()
        sol = solve_background(b0, GAS14, n=3)
        elapsed = time.perf_counter() - t0
        assert abs(sol.u[0] - b0) <= 1e-9 * b0
        j = sol.jump
        c_plus = float(sound_speed(j.rho_plus, GAS14))
        c0 = float(sound_speed(GAS14.rho0, GAS14))
        assert j.rho_plus > GAS14.rho0                    # entropy excess
        assert j.u_plus - c_plus < sol.s0 < j.u_plus + c_plus
        assert sol.s0 > c0                                # Lax, ahead side
        assert np.all(sol.w ** 2 - sol.csq < 0.0)         # denominator sign
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. large-speed asymptotics
# ---------------------------------------------------------------------------

class TestAsymptotics:
    def test_shock_speed_deviation_monotone(self, asym):
        assert np.all(np.diff(asym.deviations["shock_speed"]) < 0.0)

    def test_flow_deviation_monotone(self, asym):
        assert np.all(np.diff(asym.deviations["usq_minus_csq"]) < 0.0)

    def test_shock_speed_slope_in_window(self, asym):
        # |s0/b0 - 1| = delta/b0 follows the mass jump
        # delta = rho0 s0/(n rho+) with rho+ ~ b0^(2/(gamma-1)), not the
        # bulk rate -2: its window is centred on -2/(gamma-1) (-5 here)
        # with the bulk window's half-width 0.6
        target = -2.0 / (GAS14.gamma - 1.0)
        assert abs(asym.slopes["shock_speed"] - target) < 0.6

    def test_flow_slope_in_window(self, asym):
        assert -2.6 < asym.slopes["usq_minus_csq"] < -1.4


# ---------------------------------------------------------------------------
# 3. straightened (hodograph) formulation
# ---------------------------------------------------------------------------

class TestStraightenedFormulation:
    def test_wall_derivative_vanishes(self, sol80):
        ph = psi_hat_from_background(sol80, 129)
        assert abs(ph.dpsi[0]) <= 1e-6 * sol80.b0

    def test_transform_identity_converges(self, sweep_sols):
        sol = sweep_sols[40.0]
        res = [transform_identity_residual(psi_hat_from_background(sol, m))
               for m in (17, 33, 65)]
        assert np.log2(res[0] / res[1]) >= 1.8
        assert np.log2(res[1] / res[2]) >= 1.8

    def test_profile_equation_converges(self, sweep_sols):
        # measured at b0 = 40, where truncation still dominates the
        # roundoff floor of the offset formulation
        sol = sweep_sols[40.0]
        res = [profile_ode_residual(psi_hat_from_background(sol, m))
               for m in (17, 33, 65)]
        assert np.log2(res[0] / res[1]) >= 1.8
        assert np.log2(res[1] / res[2]) >= 1.8

    @pytest.mark.parametrize("b0", (40.0, 80.0))
    def test_ellipticity_for_fast_pistons(self, sweep_sols, b0):
        assert check_ellipticity(psi_hat_from_background(sweep_sols[b0])).passed

    def test_mixed_coefficient_vanishes(self, sol80):
        rep = check_ellipticity(psi_hat_from_background(sol80))
        assert np.max(np.abs(rep.A5_2)) < 1e-10

    def test_angular_coefficient_magnitude(self, sol80):
        rep = check_ellipticity(psi_hat_from_background(sol80))
        target = -(GAS14.gamma - 1.0) * sol80.delta / 2.0
        assert np.all(np.abs(rep.A6_2_eigmax / target - 1.0) < 0.2)


# ---------------------------------------------------------------------------
# 4. boundary structure and local stability
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def signs80(sol80):
    return boundary_signs(psi_hat_from_background(sol80))


@pytest.fixture(scope="module")
def stability80(sol80):
    return local_stability(psi_hat_from_background(sol80))


class TestBoundaryStability:
    def test_neumann_structure_identities(self, stability80):
        assert max(stability80.neumann_residuals) <= 1e-10

    def test_interior_coefficient_positive(self, signs80):
        assert all(v > 0.0 for v in signs80.E_min.values())

    def test_shock_gradient_coefficient_negative(self, signs80):
        assert all(v < 0.0 for v in signs80.D21.values())

    @pytest.mark.parametrize("k", (0, 1, 2, 3))
    def test_shock_value_coefficient_negative(self, signs80, sol80, k):
        """D22_k is the psi-derivative of the mass Rankine-Hugoniot row
        H psi - (H - rho0) sigma/(b0 a1), sigma = T dTa0 + a0, plus k times
        its dT psi-derivative:

            D22_k = rho0 - (H - rho0)((2+k) psi + (1+k) dRpsi)/b0
                    + D0 (H_psi + k H_T),   D0 = -psi rho0/(H - rho0),

        so D22_k -> rho0 (1 - (2+k)/n).  It is negative from layer
        k = n - 1 on; below that the leading order is pinned to the
        tolerance of test_hodograph's structure test (abs 1e-3).  At
        k = n - 2 the true value is about 1e-6, under the centred
        differences' 5e-4 error, so no sign can be read there.
        """
        n, rho0 = sol80.n, GAS14.rho0
        if k >= n - 1:
            assert signs80.D22[k] < 0.0
        else:
            leading = rho0 * (1.0 - (2.0 + k) / n)
            assert signs80.D22[k] == pytest.approx(leading, abs=1e-3)

    def test_shock_prefactor_signs(self, signs80):
        assert signs80.B21 < 0.0
        assert np.all(signs80.B22 == 0.0)

    @pytest.mark.parametrize("gamma", (1.2, 1.4, 2.0))
    def test_boundary_quadratic_form_exceeds_floor(self, gamma):
        # the form is unit-free, about 2 delta^2/((gamma-1) b0^2), so it
        # exceeds the floor (gamma-1) delta^2/(4 b0^2) by 8/(gamma-1)^2
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        st = local_stability(psi_hat_from_background(solve_background(80.0, gas, n=3)))
        delta0 = st.delta0
        assert st.quad_form > delta0

    @pytest.mark.parametrize("gamma", (1.2, 1.4, 2.0))
    def test_transversality_and_timelike(self, gamma):
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        st = local_stability(psi_hat_from_background(solve_background(80.0, gas, n=3)))
        assert st.transversal
        assert st.timelike
        assert st.quad_form > 0.0


# ---------------------------------------------------------------------------
# 5. multiplier certificates
# ---------------------------------------------------------------------------

class TestCertificates:
    def test_window_n3(self):
        win = admissible_mu(3, 1.4)
        assert win.lo == -4.0
        assert abs(win.hi - (-1.0 - 0.5 * math.sqrt((1.4 + 7.0) / 2.0))) < 1e-6

    def test_window_n2(self):
        win = admissible_mu(2, 1.4)
        assert win.lo == -3.0
        assert abs(win.hi - (-0.5 - 0.5 * math.sqrt((1.4 + 1.0) / 2.0))) < 1e-6

    @pytest.mark.parametrize("n", (2, 3))
    def test_certify_passes_at_midpoint(self, n):
        win = admissible_mu(n, 1.4)
        cert = certify(n, 80.0, float(win.midpoint), GAS14)
        assert cert.status == "pass"

    @pytest.mark.parametrize("n", (2, 3))
    def test_certify_fails_beyond_window(self, n):
        win = admissible_mu(n, 1.4)
        cert = certify(n, 80.0, float(win.hi) + 0.05, GAS14)
        assert cert.status == "fail"

    @pytest.mark.parametrize("n", (2, 3))
    def test_sign_pattern_pointwise(self, n):
        gas = GasParams(A=1.0, gamma=1.4, rho0=1.0)
        sol = solve_background(80.0, gas, n=n)
        cert = K_coeffs(sol, admissible_mu(n, 1.4).midpoint)
        assert np.all(cert.K00 > 0.0)
        assert np.all(cert.discriminant < 0.0)
        assert np.all(cert.Knn > 0.0)

    def test_decay_exponent_n3(self):
        assert abs(decay_exponent(3, 1.4) - 0.98765) < 1e-5

    def test_decay_exponent_n2(self):
        assert abs(decay_exponent(2, 1.4) - 0.97613) < 1e-5


# ---------------------------------------------------------------------------
# 6. free-boundary simulator
# ---------------------------------------------------------------------------

SIM_GAS = GasParams(A=1.0, gamma=2.0, rho0=1.0)
SIM_B0 = 4.0


@pytest.fixture(scope="module")
def sim_runs():
    """Unperturbed runs to t = 50 on two grids (gas chosen so the standoff
    layer is resolvable; the quantitative contract pins no gas here)."""
    sol = solve_background(SIM_B0, SIM_GAS, n=3, grid_size=512)
    out = {}
    for m in (32, 64):
        cfg = SimConfig(n=3, gas=SIM_GAS, b0=SIM_B0, eps=0.0,
                        grid_points=m, t_end=50.0)
        out[m] = run(cfg, sol=sol)
    return out


@pytest.fixture(scope="module")
def pinned_run():
    """The pinned perturbed case at 512 grid points with the 60 s budget."""
    gas = GasParams(A=1.0, gamma=1.4, rho0=1.0)
    cfg = SimConfig(n=3, gas=gas, b0=40.0, eps=0.01,
                    grid_points=512, t_end=50.0)
    return run(cfg, wall_clock_budget=60.0)


class TestSimulator:
    def test_shock_position_error_bounded(self, sim_runs):
        for m, res in sim_runs.items():
            assert res.completed
            assert np.max(res.zeta_dev) <= 10.0 / m ** 2

    def test_refinement_order(self, sim_runs):
        e32 = np.max(sim_runs[32].zeta_dev)
        e64 = np.max(sim_runs[64].zeta_dev)
        assert np.log2(e32 / e64) >= 1.5

    def test_jump_and_mass_residuals(self, sim_runs):
        for m, res in sim_runs.items():
            assert np.max(res.rh_residual) < 1e-10
            assert np.max(res.mass_residual[1:]) < (1.0 / m) ** 2

    def test_entropy_margin_positive(self, sim_runs):
        for res in sim_runs.values():
            assert np.min(res.entropy_margin) > 0.0

    def test_pinned_case_runs_within_budget(self, pinned_run):
        # at gamma = 1.4, b0 = 40 the standoff layer is 1.7e-5 wide, so
        # 512 points force an acoustic CFL step of dt/t ~ 7e-10 and ~5e9
        # explicit steps to t = 50; run() takes the implicit self-similar
        # step here, which the slow dynamics limit instead
        assert pinned_run.completed

    def test_pinned_case_decay_floor(self, pinned_run):
        fit = fit_decay(pinned_run.t, pinned_run.sup_dev, window=(5.0, 50.0))
        assert fit.m0_est >= 0.5


# ---------------------------------------------------------------------------
# 7. perturbed-background construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pert_sol():
    return solve_background(SIM_B0, SIM_GAS, n=3, grid_size=512)


class TestPerturbedBackground:
    @pytest.fixture()
    def sol(self, pert_sol):
        return pert_sol

    def test_correction_vanishes_without_perturbation(self, sol):
        cfg = SimConfig(n=3, gas=SIM_GAS, b0=SIM_B0, eps=0.0)
        mb = modified_background(sol, cfg)
        t = np.geomspace(1.0, 100.0, 50)
        r = cfg.sigma(t) * 1.02
        # the correction factor f_a = E(t) (r - sigma(t))
        assert np.all(mb.E(t) * (r - cfg.sigma(t)) == 0.0)
        assert np.all(mb.E(t) == 0.0)

    def test_piston_condition_residual(self, sol):
        cfg = SimConfig(n=3, gas=SIM_GAS, b0=SIM_B0, eps=0.01)
        mb = modified_background(sol, cfg)
        t = np.geomspace(1.0, 100.0, 200)
        assert np.max(np.abs(mb.piston_residual(t))) < 1e-8

    def test_correction_size_bounded(self, sol):
        cfg = SimConfig(n=3, gas=SIM_GAS, b0=SIM_B0, eps=0.01)
        mb = modified_background(sol, cfg)
        worst = 0.0
        for t in np.geomspace(1.0, 100.0, 60):
            r = np.linspace(cfg.sigma(t), t * sol.s0, 41)
            f_a = mb.E(t) * (r - cfg.sigma(t))
            worst = max(worst, float(np.max(t * np.abs(f_a))) / cfg.eps)
        assert worst < 10.0
