"""Tests for the straightened-coordinate formulation: profile transfer,
coefficient families (with an independent chain-rule oracle), ellipticity,
boundary signs, and the shock-side stability checks."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conicshock.background import solve_background
from conicshock.gas import GasParams, VacuumError, density_from_state
from conicshock.hodograph import (
    HodographState,
    a_coeffs,
    bernoulli_argument,
    boundary_signs,
    check_ellipticity,
    local_stability,
    profile_ode_residual,
    psi_hat_from_background,
    second_order_coeffs,
    shock_row_residual,
    transform_identity_residual,
)
from conicshock.simulator import shock_speed

GAS = GasParams(A=1.0, gamma=1.4, rho0=1.0)


@pytest.fixture(scope="module")
def sol80():
    return solve_background(80.0, GAS, n=3, grid_size=1024)


@pytest.fixture(scope="module")
def sol40():
    return solve_background(40.0, GAS, n=3, grid_size=2048)


# ---------------------------------------------------------------------------
# straightened profile
# ---------------------------------------------------------------------------

class TestPsiHat:
    def test_grid_and_endpoints(self, sol80):
        ph = psi_hat_from_background(sol80, 65)
        assert ph.R[0] == 1.0 and ph.R[-1] == 2.0
        assert ph.psi[-1] == pytest.approx(sol80.delta, rel=1e-12)

    def test_positive_and_increasing(self, sol80):
        ph = psi_hat_from_background(sol80, 65)
        assert np.all(ph.psi > 0)
        assert np.all(np.diff(ph.psi) > 0)
        assert np.all(ph.dpsi[1:] > 0)

    @pytest.mark.parametrize("n_points", (2, 3))
    def test_short_grid_is_rejected(self, sol80, n_points):
        # the end stencils of psi'' read 4 samples
        with pytest.raises(ValueError, match=f"n_points = {n_points}: .* at least 4 points"):
            psi_hat_from_background(sol80, n_points)
        assert psi_hat_from_background(sol80, 4).d2psi.shape == (4,)

    def test_coefficient_set_shared_and_read_only(self, sol80):
        # the suites share one set per profile, so no caller may change it
        ph = psi_hat_from_background(sol80, 33)
        rep = check_ellipticity(ph)
        assert ph.coeffs is ph.coeffs and rep.A4_2 is ph.coeffs.A4_2
        with pytest.raises(ValueError, match="read-only"):
            rep.A4_2[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            ph.psi = ph.psi

    def test_piston_side_derivative_vanishes(self, sol80):
        ph = psi_hat_from_background(sol80, 129)
        assert abs(ph.dpsi[0]) <= 1e-6 * sol80.b0

    def test_shock_side_derivative_value(self, sol80):
        # 2*(s0-b0)^2/b0 at leading order
        ph = psi_hat_from_background(sol80, 129)
        assert ph.dpsi[-1] == pytest.approx(2.0 * sol80.delta ** 2 / sol80.b0, rel=1e-3)

    def test_identity_residual_convergence(self, sol40):
        res = [transform_identity_residual(psi_hat_from_background(sol40, n))
               for n in (17, 33, 65)]
        assert np.log2(res[0] / res[1]) >= 1.8
        assert np.log2(res[1] / res[2]) >= 1.8


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

def _chain_rule_oracle():
    """Push an explicit phi(t, s) and piston b(t) through the coordinate
    change by symbolic differentiation only (no use of the implemented
    coefficient formulas) and return per-state evaluation callables."""
    import sympy as sp

    t, s = sp.symbols("t s", positive=True)
    c1, c2, c3, c4 = sp.symbols("c1 c2 c3 c4")
    b0s, be1, be2, gam, B0 = sp.symbols("b0s be1 be2 gam B0")

    b = b0s + be1 * (t - 1) + be2 * (t - 1) ** 2
    phi = c1 * t * sp.sin(s) + c2 * s ** 2 / t + c3 * s * t / (1 + t) \
        + c4 * sp.cos(t) * sp.sqrt(s)

    psi_ts = s - b - phi / b0s
    R_ts = (s - b) / psi_ts + 1

    J = sp.diff(R_ts, s)
    K = sp.diff(R_ts, t)
    psi_R = sp.diff(psi_ts, s) / J
    psi_T = sp.diff(psi_ts, t) - K * psi_R
    psi_RR = sp.diff(psi_R, s) / J
    psi_TR = sp.diff(psi_R, t) - K * psi_RR
    psi_TT = sp.diff(psi_T, t) - K * psi_TR

    csq = (gam - 1) * (B0 - phi - t * sp.diff(phi, t) + s * sp.diff(phi, s)
                       - sp.diff(phi, s) ** 2 / 2)
    phys = (
        sp.diff(phi, t, 2)
        + 2 * (sp.diff(phi, s) - s) / t * sp.diff(phi, t, s)
        + (sp.diff(phi, s) - s) ** 2 / t ** 2 * sp.diff(phi, s, 2)
        - csq / t ** 2 * (sp.diff(phi, s, 2) + 2 / s * sp.diff(phi, s))
        + 2 / t * sp.diff(phi, t)
    )

    args = (t, s, c1, c2, c3, c4, b0s, be1, be2, gam, B0)
    exprs = [psi_ts, R_ts, psi_R, psi_T, psi_RR, psi_TR, psi_TT, b,
             sp.diff(b, t), sp.diff(b, t, 2), phys, csq,
             sp.diff(phi, s), sp.diff(phi, t)]
    return [sp.lambdify(args, e, "numpy") for e in exprs]


class TestCoefficientFamilies:
    def test_chain_rule_cross_check(self):
        # independent oracle: the physical radial equation must equal
        # -b0*a1 times the assembled straightened equation at random states
        fns = _chain_rule_oracle()
        gas = GasParams(A=40.0 * 0.4 / 1.4, gamma=1.4, rho0=1.0)  # B0 = 40
        rng = np.random.default_rng(7)
        worst_eq = worst_id = 0.0
        count = 0
        while count < 100:
            p = dict(t=rng.uniform(0.8, 2.5), s=rng.uniform(4.0, 7.0),
                     c1=rng.uniform(-0.3, 0.3), c2=rng.uniform(-0.3, 0.3),
                     c3=rng.uniform(-0.3, 0.3), c4=rng.uniform(-0.3, 0.3),
                     b0s=5.0, be1=rng.uniform(-0.2, 0.2),
                     be2=rng.uniform(-0.1, 0.1), gam=1.4, B0=40.0)
            order = ("t", "s", "c1", "c2", "c3", "c4", "b0s", "be1", "be2", "gam", "B0")
            vals = [float(f(*[p[k] for k in order])) for f in fns]
            (psi_v, R_v, pR, pT, pRR, pTR, pTT, b_v, dTb, d2Tb,
             phys_v, csq_v, dphis, dphit) = vals
            if not (0.2 < psi_v and 1.0 < R_v < 2.0 and csq_v > 1.0):
                continue
            count += 1
            st = HodographState(R=R_v, psi=psi_v, b=b_v, dRpsi=pR, dTpsi=pT,
                                dTb=dTb, d2Tb=d2Tb)
            b0v, T = p["b0s"], p["t"]
            a0, a1, a2, a3, a4 = a_coeffs(st)
            worst_id = max(
                worst_id,
                abs(a0 - p["s"]),
                abs(b0v * a1 * a2 - dphis),
                abs(-b0v * a1 * a3 - dphit),
                abs((gas.gamma - 1) * float(bernoulli_argument(st, gas, b0v, T)) - csq_v),
            )
            cs = second_order_coeffs(st, gas, b0v, T)
            A1, A2, A3, A4, A5, A6, A7 = cs.assembled(T)
            hodo = A1 * pTT + A2 * pTR + A4 * pRR + A7
            worst_eq = max(worst_eq,
                           abs(phys_v - (-b0v * a1 * hodo)) / max(1.0, abs(phys_v)))
        assert worst_id < 1e-8
        assert worst_eq < 1e-8

    def test_pure_evaluation(self, sol80):
        ph = psi_hat_from_background(sol80, 33)
        a = second_order_coeffs(ph.states(), GAS, ph.b0)
        b = second_order_coeffs(ph.states(), GAS, ph.b0)
        assert np.array_equal(a.A4_2, b.A4_2)
        assert np.array_equal(a.A7_1, b.A7_1)
        assert np.array_equal(a.A6_2, b.A6_2)

    def test_angular_structure(self):
        # synthetic angular inputs: symmetry of the second-order angular
        # block and vanishing of angular families on radial states
        st = HodographState(R=1.5, psi=0.8, b=5.0, dRpsi=0.1, dTpsi=0.05,
                            dTb=0.02, Zpsi=np.array([0.03, -0.02, 0.01]),
                            Zb=np.array([-0.01, 0.02, 0.04]))
        gas = GasParams(A=40.0 * 0.4 / 1.4, gamma=1.4, rho0=1.0)
        cs = second_order_coeffs(st, gas, 5.0)
        assert np.allclose(cs.A6_2, cs.A6_2.T)
        assert np.any(cs.A5_2 != 0.0) and np.any(cs.A3_1 != 0.0)
        rad = HodographState(R=1.5, psi=0.8, b=5.0, dRpsi=0.1, dTpsi=0.05, dTb=0.02)
        cr = second_order_coeffs(rad, gas, 5.0)
        assert np.all(cr.A3_1 == 0.0) and np.all(cr.A5_1 == 0.0)
        assert np.all(cr.A5_2 == 0.0)
        assert np.allclose(cr.A6_2, np.diag(np.full(3, cr.A6_2[0, 0])))

    def test_vacuum_guard(self):
        st = HodographState(R=1.5, psi=0.8, b=5.0, dRpsi=0.1)
        with pytest.raises(ValueError):
            second_order_coeffs(st, GAS, 500.0)  # Bernoulli argument < 0

    def test_one_vacuum_rule(self):
        # a state whose Bernoulli argument B0 + X is positive but within the
        # round-off threshold 1e-14 B0: A is chosen so that B0 = -X (1 + 5e-15)
        st = HodographState(R=1.5, psi=0.1, b=1.0)
        b0 = 10.0
        X = bernoulli_argument(st, GAS, b0) - GAS.B0
        assert X < 0.0
        B0 = -X * (1.0 + 5e-15)
        gas = GasParams(A=B0 * (GAS.gamma - 1.0) / GAS.gamma, gamma=GAS.gamma, rho0=1.0)
        arg = bernoulli_argument(st, gas, b0)
        assert 0.0 < arg <= 1e-14 * gas.B0
        with pytest.raises(VacuumError):
            second_order_coeffs(st, gas, b0)
        # the flow-state maps reject a state with the same argument
        phi_t = gas.B0 - arg
        assert 0.0 < gas.B0 - phi_t <= 1e-14 * gas.B0
        with pytest.raises(VacuumError):
            density_from_state(phi_t, 0.0, gas)
        with pytest.raises(VacuumError):
            shock_speed(phi_t, 0.0, gas)


# ---------------------------------------------------------------------------
# ellipticity of the profile problem
# ---------------------------------------------------------------------------

class TestEllipticity:
    def test_passes_for_large_piston_speed(self, sol40, sol80):
        for sol in (sol40, sol80):
            assert check_ellipticity(psi_hat_from_background(sol)).passed

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("gamma", [1.2, 2.9])
    @pytest.mark.parametrize("b0", [2.0, 10.0, 30.0])
    def test_passes_below_asymptotic_regime(self, n, gamma, b0):
        # verify counts the ellipticity suite at every b0, with no cut at
        # the certificate's asymptotic threshold b0 = 40
        sol = solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=n)
        assert check_ellipticity(psi_hat_from_background(sol)).passed

    def test_radial_coefficient_magnitude(self, sol80):
        rep = check_ellipticity(psi_hat_from_background(sol80))
        target = -(GAS.gamma - 1.0) * sol80.b0 ** 2 / (2.0 * sol80.delta)
        assert np.all(np.abs(rep.A4_2 / target - 1.0) < 0.3)

    def test_angular_block_magnitude(self, sol80):
        rep = check_ellipticity(psi_hat_from_background(sol80))
        target = -(GAS.gamma - 1.0) * sol80.delta / 2.0
        assert np.all(np.abs(rep.A6_2_eigmax / target - 1.0) < 0.2)

    def test_mixed_coefficient_vanishes(self, sol80):
        rep = check_ellipticity(psi_hat_from_background(sol80))
        assert np.max(np.abs(rep.A5_2)) < 1e-10


# ---------------------------------------------------------------------------
# profile equation residuals
# ---------------------------------------------------------------------------

class TestProfileResidual:
    def test_convergence_order(self, sol40):
        res = [profile_ode_residual(psi_hat_from_background(sol40, n))
               for n in (17, 33, 65)]
        assert np.log2(res[0] / res[1]) >= 1.8
        assert np.log2(res[1] / res[2]) >= 1.8

    def test_shock_row(self, sol80):
        assert shock_row_residual(psi_hat_from_background(sol80, 129)) < 1e-10


# ---------------------------------------------------------------------------
# boundary sign pattern
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def signs_report(sol80):
    return boundary_signs(psi_hat_from_background(sol80))


class TestBoundarySigns:
    @pytest.fixture
    def report(self, signs_report):
        return signs_report

    def test_interior_coefficient_positive(self, report, sol80):
        for k, v in report.E_min.items():
            assert v > 0.0, k
        assert report.E_min[0] >= (GAS.gamma - 1.0) * sol80.b0 / 4.0

    def test_shock_gradient_coefficient(self, report, sol80):
        # D21 ~ -(compressed density), k-independent
        for v in report.D21.values():
            assert v == pytest.approx(-sol80.jump.rho_plus, rel=1e-3)

    def test_shock_value_coefficient_structure(self, report, sol80):
        # exact pattern rho0 - (2+k) * rho_hat * (s0-b0)/b0; the k-increment
        # is the mass-flux constant rho_hat*(s0-b0)/b0 -> rho0/3
        unit = sol80.jump.rho_plus * sol80.delta / sol80.b0
        for k in range(4):
            assert report.D22[k] == pytest.approx(
                GAS.rho0 - (2 + k) * unit, rel=2e-3, abs=1e-3)

    def test_shock_prefactors(self, report, sol80):
        assert report.B21 < 0.0
        assert report.B21 == pytest.approx(-sol80.jump.rho_plus, rel=1e-3)
        assert report.B20 == pytest.approx(
            -sol80.jump.rho_plus * sol80.delta / sol80.b0, rel=1e-3)
        assert np.all(report.B22 == 0.0)

    @pytest.mark.parametrize("n", (2, 3))
    def test_passed_gates_d22_from_layer_n_minus_1(self, n):
        # D22_k -> rho0 (1 - (2+k)/n) is negative only for k >= n - 1; the
        # verdict follows that pattern on both dimensions
        sol = solve_background(80.0, GAS, n=n, grid_size=1024)
        report = boundary_signs(psi_hat_from_background(sol))
        assert report.n == n
        assert all(report.D22[k] < 0.0 for k in range(n - 1, 4))
        assert report.passed

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("b0", (40.0, 80.0))
    def test_thin_layer_signs_resolved(self, b0, n):
        # at gamma 1.2 the density behind the shock is 4e10 (b0 40) and
        # 4e13 (b0 80) times rho0, and the stand-off 3e-10 and 6e-13; the
        # complex step still resolves D22_k, to within a tenth of its
        # increment rho0/n of the limit rho0 (1 - (2+k)/n)
        gas = GasParams(A=1.0, gamma=1.2, rho0=1.0)
        sol = solve_background(b0, gas, n=n, grid_size=512)
        report = boundary_signs(psi_hat_from_background(sol))
        assert report.passed
        for k in range(n - 1, 4):
            limit = gas.rho0 * (1.0 - (2 + k) / n)
            assert abs(report.D22[k] - limit) < 0.1 * gas.rho0 / n, k


# ---------------------------------------------------------------------------
# local stability on the shock side
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stability_report(sol80):
    return local_stability(psi_hat_from_background(sol80))


class TestLocalStability:
    @pytest.fixture
    def report(self, stability_report):
        return stability_report

    def test_neumann_structure(self, report):
        for r in report.neumann_residuals:
            assert r < 1e-10

    def test_time_coefficient_value(self, report, sol80):
        target = 2.0 * sol80.delta ** 2 / ((GAS.gamma - 1.0) * sol80.b0 ** 2)
        assert report.CalA1[-1] == pytest.approx(target, rel=5e-3)

    def test_radial_coefficient_normalized(self, report):
        assert np.all(np.abs(report.CalA4 + 1.0) < 1e-6)

    def test_mixed_coefficient_sign(self, report):
        assert abs(report.CalA2[0]) < 1e-12
        assert report.CalA2[-1] < 0.0

    def test_transversality_and_timelike(self, report):
        assert abs(report.CalB21) > report.delta0
        assert report.timelike_value > report.delta0

    def test_cross_terms_vanish(self, report):
        assert report.cross_terms == 0.0

    def test_quad_form_positive(self, report):
        assert report.quad_form > 0.0

    def test_other_adiabatic_exponent(self):
        gas = GasParams(A=1.0, gamma=2.0, rho0=1.0)
        rep = local_stability(psi_hat_from_background(
            solve_background(80.0, gas, n=3, grid_size=512)))
        assert rep.transversal and rep.timelike
        for r in rep.neumann_residuals:
            assert r < 1e-10


@pytest.mark.parametrize("gamma", (1.2, 1.4, 2.0))
def test_local_stability_independent_of_speed_unit(gamma):
    # (b0, A) -> (lam b0, lam^2 A) rescales every speed by lam at the same
    # Mach number; the report has no unit, so nothing may change
    reports = []
    for lam in (0.01, 1.0, 2.0):
        gas = GasParams(A=lam ** 2, gamma=gamma, rho0=1.0)
        reports.append(local_stability(psi_hat_from_background(
            solve_background(80.0 * lam, gas, n=3, grid_size=1024))))
    ref = reports[1]
    for rep in reports:
        assert rep.quad_form / rep.delta0 == pytest.approx(
            ref.quad_form / ref.delta0, rel=1e-6)
        assert rep.transversal == ref.transversal
        assert rep.timelike == ref.timelike
        assert rep.quad_form_positive == ref.quad_form_positive
    assert ref.quad_form_positive


# ---------------------------------------------------------------------------
# the two shock-row gradient prefactors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", (1.2, 1.4, 2.0))
@pytest.mark.parametrize("b0", (10.0, 40.0, 80.0))
def test_shock_row_gradient_prefactors(gamma, b0):
    # B21 is the closed form of D21 = dG/d(dRpsi); CalB21 weights H - rho0
    # by psi instead of a0 = b0 + psi, so the two differ by H - rho0
    gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
    sol = solve_background(b0, gas, n=3)
    ph = psi_hat_from_background(sol)
    signs, stab = boundary_signs(ph), local_stability(ph)
    H = second_order_coeffs(ph.states(-1), gas, b0).H
    assert stab.CalB21 - signs.B21 == pytest.approx(H - gas.rho0, rel=1e-12)
    assert signs.B21 == pytest.approx(signs.D21[0], rel=1e-8)
    assert signs.B20 == stab.CalB20
