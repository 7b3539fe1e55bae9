"""Tests for the energy-multiplier certificates: closed-form constants,
bulk K-coefficient signs and shock-flux coefficients."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from conicshock import certificates
from conicshock.background import solve_background
from conicshock.certificates import (
    BoundaryCoeffs,
    MuWindow,
    P_coeffs,
    K_coeffs,
    _b_sigma,
    _db_sigma,
    admissible_mu,
    boundary_coeffs,
    certify,
    decay_exponent,
    multiplier_e,
    shock_flux_betas,
    symbolic_conditions,
)
from conicshock.cli import _write_json, main
from conicshock.gas import GasParams

GAS = GasParams(A=1.0, gamma=1.4, rho0=1.0)


@pytest.fixture(scope="module")
def sol80():
    return solve_background(80.0, GAS, n=3, grid_size=1024)


@pytest.fixture(scope="module")
def sol80_n2():
    return solve_background(80.0, GAS, n=2, grid_size=1024)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_decay_exponent_values(self):
        assert decay_exponent(3, 1.4) == pytest.approx(0.98765, abs=1e-5)
        assert decay_exponent(2, 1.4) == pytest.approx(0.97613, abs=1e-5)
        # continuity probe toward the upper gamma endpoint
        assert decay_exponent(3, 3.0) == pytest.approx(1.5 - 0.25 * np.sqrt(5.0))

    def test_mu_window_values(self):
        w3 = admissible_mu(3, 1.4)
        assert w3.lo == -4.0
        assert w3.hi == pytest.approx(-2.02470, abs=1e-5)
        w2 = admissible_mu(2, 1.4)
        assert w2.lo == -3.0
        assert w2.hi == pytest.approx(-1.04772, abs=1e-5)

    def test_multiplier_e_values(self):
        assert multiplier_e(3, 1.4) == pytest.approx(0.024695, abs=1e-6)
        assert multiplier_e(2, 1.4) == pytest.approx(0.047722, abs=1e-6)

    @given(st.floats(min_value=1.001, max_value=2.999))
    def test_window_nonempty(self, gamma):
        for n in (2, 3):
            w = admissible_mu(n, gamma)
            assert w.lo < w.hi
            assert w.contains(w.midpoint)

    @given(st.floats(min_value=1.001, max_value=2.999),
           st.floats(min_value=0.0, max_value=3.9))
    def test_symbolic_conditions_hold_inside_window(self, gamma, frac):
        # any mu strictly inside the window satisfies all three inequalities
        for n in (2, 3):
            w = admissible_mu(n, gamma)
            mu = w.hi - (w.hi - w.lo) * min(frac / 4.0, 0.999)
            if not w.contains(mu):
                continue
            conds = symbolic_conditions(n, gamma, mu, multiplier_e(n, gamma))
            for k, v in conds.items():
                assert v > 0.0, (n, gamma, mu, k, v)

    @given(st.floats(min_value=1.001, max_value=2.999))
    def test_monotone_window(self, gamma):
        # if mu2 passes the symbolic conditions, any smaller mu1 still in the
        # window passes too
        for n in (2, 3):
            w = admissible_mu(n, gamma)
            mus = np.linspace(w.lo + 1e-9, w.hi - 1e-9, 9)
            ok = [all(v > 0 for v in
                      symbolic_conditions(n, gamma, m, multiplier_e(n, gamma)).values())
                  for m in mus]
            assert all(ok)

    @given(st.floats(min_value=1.0, max_value=3.0, exclude_min=True,
                     exclude_max=True))
    def test_closed_forms_exact(self, gamma):
        # each closed form equals, bit for bit, the formula its docstring prints
        assert decay_exponent(2, gamma) == 5 / 4 - np.sqrt((gamma + 1) / 2) / 4
        assert decay_exponent(3, gamma) == 3 / 2 - np.sqrt((gamma + 7) / 2) / 4
        assert admissible_mu(2, gamma) == MuWindow(
            -3.0, -1 / 2 - np.sqrt((gamma + 1) / 2) / 2)
        assert admissible_mu(3, gamma) == MuWindow(
            -4.0, -1 - np.sqrt((gamma + 7) / 2) / 2)
        assert multiplier_e(2, gamma) == np.sqrt((gamma + 1) / 2) / 2 - 1 / 2
        assert multiplier_e(3, gamma) == np.sqrt((gamma + 7) / 2) / 2 - 1

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            decay_exponent(5, 1.4)
        with pytest.raises(ValueError):
            multiplier_e(1, 1.4)


# ---------------------------------------------------------------------------
# transport coefficients
# ---------------------------------------------------------------------------

class TestPCoeffs:
    def test_p1_is_velocity(self, sol80):
        pc = P_coeffs(sol80)
        assert np.array_equal(pc.P1, sol80.u)

    def test_p2_p3_positive(self, sol80):
        pc = P_coeffs(sol80)
        assert np.all(pc.P2 > 0)
        assert np.all(pc.P3 > 0)

    def test_leading_orders(self, sol80):
        g, b0 = GAS.gamma, sol80.b0
        pc = P_coeffs(sol80)
        assert np.max(np.abs(pc.P2 / ((3 - g) / 2 * b0 ** 2) - 1.0)) < 0.25
        assert np.max(np.abs(pc.P3 / ((g - 1) / 2 * b0 ** 2) - 1.0)) < 0.25
        assert np.all(pc.P5 < 0)
        assert np.max(np.abs(pc.P5 / (-(g - 1) * (sol80.n - 1) * b0 ** 2 / 2) - 1.0)) < 0.25

    def test_derivative_leading_orders(self, sol80):
        b0, n = sol80.b0, sol80.n
        pc = P_coeffs(sol80)
        assert np.max(np.abs(pc.dP1 / (-(n - 1)) - 1.0)) < 0.25
        assert np.max(np.abs(pc.dP2 / (-2 * (n - 1) * b0) - 1.0)) < 0.25

    def test_derivatives_match_finite_differences(self, sol80):
        pc = P_coeffs(sol80)
        s = pc.s
        h = s[1] - s[0]
        for vals, dv in ((pc.P1, pc.dP1), (pc.P2, pc.dP2), (pc.P3, pc.dP3)):
            fd = np.gradient(vals, s)
            # floor accounts for roundoff amplification 1/h on slowly varying
            # samples (P3 changes by less than an ulp across the thin layer)
            floor = 100.0 * np.spacing(np.max(np.abs(vals))) / h
            tol = max(1e-4 * np.max(np.abs(dv)), floor)
            assert np.max(np.abs(fd[2:-2] - dv[2:-2])) < tol


# ---------------------------------------------------------------------------
# multiplier weights
# ---------------------------------------------------------------------------

class TestMultiplierChoice:
    """The multiplier is chosen by mu alone: n, gamma, b0 and the tilt
    constant come from the profile."""

    def test_standard_defaults(self, sol80):
        mid = admissible_mu(3, 1.4).midpoint
        cert = K_coeffs(sol80, mid)
        assert cert.mu == mid
        assert (cert.n, cert.gamma, cert.b0) == (3, 1.4, sol80.b0)
        assert cert.e == multiplier_e(3, 1.4)

    def test_weight_derivatives_match_finite_differences(self, sol80):
        # db_sigma, the only weight derivative _k_samples takes, against
        # centred differences of b_sigma; dropping its tilt term moves it
        # by about 1e-2 relative
        b0, e = sol80.b0, float(multiplier_e(3, 1.4))
        s = np.random.default_rng(7).uniform(75.0, 85.0, 20)
        h = 1e-6 * s
        fd = (_b_sigma(s + h, b0, e) - _b_sigma(s - h, b0, e)) / (2 * h)
        exact = _db_sigma(s, b0, e)
        assert np.all(np.abs(fd - exact) <= 1e-7 * np.abs(exact))


# ---------------------------------------------------------------------------
# bulk K-coefficients
# ---------------------------------------------------------------------------

class TestKCoeffs:
    def test_signs_at_reference_choice(self, sol80):
        cert = K_coeffs(sol80, -2.5)
        assert cert.checks["k00_positive"]
        assert cert.checks["disc_negative"]
        assert cert.checks["knn_positive"]
        assert cert.checks["symbolic_pass"]
        assert cert.passed

    def test_leading_order_table_n3(self, sol80):
        # K00 ~ (2+e-mu) b0/2, K0r ~ ((gamma+3)/2+e-mu) b0^2,
        # Knn ~ -(gamma-1)(2+e+mu) b0^3/4 at the piston end
        g, b0 = GAS.gamma, sol80.b0
        cert = K_coeffs(sol80, -2.5)
        e, mu = cert.e, cert.mu
        assert cert.K00[0] == pytest.approx(0.5 * (2 + e - mu) * b0, rel=5e-2)
        assert cert.K0r[0] == pytest.approx(((g + 3) / 2 + e - mu) * b0 ** 2, rel=5e-2)
        assert cert.Knn[0] == pytest.approx(-(g - 1) / 4 * (2 + e + mu) * b0 ** 3, rel=5e-2)
        # discriminant leading order ~ (gamma-1)/4 (gamma+7-2(e-mu)^2) b0^4
        lead = (g - 1) / 4 * (g + 7 - 2 * (e - mu) ** 2) * b0 ** 4
        assert cert.discriminant[0] == pytest.approx(lead, rel=0.15)

    def test_leading_order_table_n2(self, sol80_n2):
        g, b0 = GAS.gamma, sol80_n2.b0
        cert = K_coeffs(sol80_n2, -1.5)
        e, mu = cert.e, cert.mu
        assert cert.K00[0] == pytest.approx(0.5 * (1 + e - mu) * b0, rel=5e-2)
        assert cert.K0r[0] == pytest.approx(((g + 1) / 2 + e - mu) * b0 ** 2, rel=5e-2)
        assert cert.Knn[0] == pytest.approx(-(g - 1) / 4 * (1 + e + mu) * b0 ** 3, rel=5e-2)
        assert cert.passed

    def test_near_window_endpoint(self, sol80):
        # just inside the upper endpoint the sign pattern still closes
        w = admissible_mu(3, 1.4)
        cert = K_coeffs(sol80, w.hi - 1e-3)
        assert (cert.checks["k00_positive"] and cert.checks["disc_negative"]
                and cert.checks["knn_positive"])

    def test_summary_roundtrip(self, sol80, tmp_path):
        cert = K_coeffs(sol80, -2.5)
        path = tmp_path / "cert.json"
        _write_json(cert.summary(), path)
        data = json.loads(path.read_text())
        assert data["status"] == "pass"
        assert data["mu"] == -2.5
        assert data["K00_min"] > 0


# ---------------------------------------------------------------------------
# boundary coefficients and shock-flux betas
# ---------------------------------------------------------------------------

class TestBoundary:
    def test_signs_and_leading_orders(self, sol80):
        bc = boundary_coeffs(sol80)
        b0 = sol80.b0
        assert bc.B1 > 0
        assert bc.mu1 == pytest.approx(1.0 / (2 * b0), rel=0.3)
        assert bc.mu2 < 0
        assert bc.mu2 == pytest.approx(-(sol80.n - 1) / 2.0, rel=0.05)
        assert bc.mu3 == pytest.approx(-b0, rel=1e-3)

    def test_n2_mu2(self, sol80_n2):
        bc = boundary_coeffs(sol80_n2)
        assert bc.mu2 == pytest.approx(-0.5, rel=0.05)

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 2.0])
    def test_b1_positive_across_gammas(self, gamma):
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        sol = solve_background(80.0, gas, n=3, grid_size=512)
        bc = boundary_coeffs(sol)
        assert bc.B1 > 0
        assert bc.mu1 > 0 and bc.mu2 < 0

    @pytest.mark.parametrize("gamma, n, b0", [(1.4, 3, 40.0), (1.2, 2, 80.0), (2.9, 3, 10.0),
                                              (2.0, 3, 1.5)])
    def test_shock_end_is_last_sample(self, gamma, n, b0):
        # the shock-end scalars, on floats, equal the last entries of the
        # full-profile properties; the flipped profile's shock sample is
        # off the ODE's solution
        sol = solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=n, grid_size=256)
        for prof in (sol, self._flipped(sol)):
            want = tuple(float(x[-1]) for x in (prof.u, prof.rho, prof.csq, prof.du, prof.drho))
            assert certificates._shock_end(prof) == want, (gamma, n, b0)

    @staticmethod
    def _flipped(sol):
        # the relative flow u - s at the shock set to 0.9 c, near the sonic
        # point of the profile ODE, turns u' and so mu2 positive
        w = sol.w.copy()
        w[-1] = -0.9 * np.sqrt(sol.csq[-1])
        return dataclasses.replace(sol, w=w)

    def test_sign_pattern_violation_fails_boundary_pass(self, sol80):
        # a failed mu1 > 0, mu2 < 0 is a failed condition of the energy
        # argument: boundary_coeffs returns it and the certificate records it
        flipped = self._flipped(sol80)
        assert boundary_coeffs(flipped).mu2 > 0
        cert = K_coeffs(flipped, admissible_mu(3, GAS.gamma).midpoint)
        assert cert.checks["boundary_pass"] is False
        assert cert.status == "fail"
        assert cert.violated_condition() == "shock-boundary flux signs fail"
        assert any(re.search(r"mu1=\S+, mu2=1\.\d+ break", note) for note in cert.notes)

    def test_mu2_sign_alone_fails_boundary_pass(self, sol80, monkeypatch):
        # mu2 does not enter the betas, so only the sign rule can fail
        mu = admissible_mu(3, GAS.gamma).midpoint
        assert K_coeffs(sol80, mu).passed
        bc = boundary_coeffs(sol80)
        monkeypatch.setattr(certificates, "boundary_coeffs",
                            lambda sol: dataclasses.replace(bc, mu2=-bc.mu2))
        cert = K_coeffs(sol80, mu)
        assert [name for name, ok in cert.checks.items() if not ok] == ["boundary_pass"]
        assert cert.status == "fail"
        assert any("mu1=" in note and "mu2=" in note for note in cert.notes)

    def test_sign_pattern_violation_fails_certify_cleanly(self, monkeypatch, tmp_path):
        solve = certificates.solve_background
        monkeypatch.setattr(certificates, "solve_background",
                            lambda *args, **kw: self._flipped(solve(*args, **kw)))
        res = CliRunner().invoke(
            main, ["certify", "--n", "3", "--gamma", "1.4", "--b0", "80",
                   "--mu", "auto", "--output-dir", str(tmp_path)],
            catch_exceptions=False)
        assert res.exit_code == 1
        assert "certificate failed: shock-boundary flux signs fail" in res.output
        cert = json.loads((tmp_path / "certificate_n3_g1.4_b80.json").read_text())
        assert cert["status"] == "fail"
        assert cert["boundary_pass"] is False

    def test_sign_pattern_violation_below_regime(self):
        flipped = self._flipped(solve_background(20.0, GAS, n=3, grid_size=1024))
        cert = K_coeffs(flipped, admissible_mu(3, GAS.gamma).midpoint)
        assert cert.checks["boundary_pass"] is False
        assert cert.status == "outside asymptotic regime"

    def test_beta_hats(self, sol80):
        g, b0 = GAS.gamma, sol80.b0
        betas = shock_flux_betas(sol80, boundary_coeffs(sol80))
        assert betas["beta_hat11"] == pytest.approx((g - 1) * b0 ** 2 / 8, rel=0.05)
        assert betas["beta_hat13"] == pytest.approx(-(g - 1) * b0 ** 4 / 2, rel=0.05)
        assert betas["beta_hat14"] > 0
        # the mixed coefficient nearly cancels after the oblique substitution
        assert abs(betas["beta_hat12"]) < 1e-3 * b0 ** 3

    def test_raw_beta_leading_orders(self, sol80):
        g, b0 = GAS.gamma, sol80.b0
        betas = shock_flux_betas(sol80, boundary_coeffs(sol80))
        assert betas["beta12"] == pytest.approx(-(g - 1) * b0 ** 3 / 2, rel=0.05)
        assert betas["beta13"] == pytest.approx(-(g - 1) * b0 ** 4 / 2, rel=0.05)
        assert betas["beta14"] == pytest.approx(
            (g - 1) / 4 * multiplier_e(3, g) * b0 ** 3 * sol80.delta, rel=0.05)

    @pytest.mark.parametrize("gamma, b0", [
        (1.4, 10.0), (1.4, 25.3), (1.4, 40.0), (1.4, 55.3), (1.4, 80.0), (1.4, 100.0),
        (1.2, 40.0), (1.2, 80.0), (2.0, 10.0), (2.0, 80.0)])
    def test_beta11_beta14_match_exact_rationals(self, gamma, b0):
        # beta11 = -bs/2 + u s0 - s0^2/2 and beta14 = p0 (bs - s0^2)/2
        # with bs = s0^2 (1 + (e/b0)(s0 - b0)), evaluated in exact
        # rationals of the profile's floats, with s0 = b0 + delta and
        # u = s0 + w+ taken exactly.  Formed as differences of O(s0^2)
        # floats, beta14 reads 49% high at gamma 1.2, b0 80, and 5e-7 high
        # at gamma 1.4, b0 100; the offset forms keep a few ulps.
        gas = GasParams(gamma=gamma)
        sol = solve_background(b0, gas, n=3)
        betas = shock_flux_betas(sol, boundary_coeffs(sol))
        B0 = Fraction(sol.b0)
        s0 = B0 + Fraction(sol.delta)
        u = s0 + Fraction(float(sol.w[-1]))
        p0, e = Fraction(float(sol.csq[-1])), Fraction(multiplier_e(3, gamma))
        bs = s0 ** 2 * (1 + (e / B0) * (s0 - B0))
        exact = {"beta11": -bs / 2 + u * s0 - s0 ** 2 / 2, "beta14": p0 * (bs - s0 ** 2) / 2}
        for key, want in exact.items():
            assert abs(Fraction(betas[key]) / want - 1) <= 4 * np.finfo(float).eps, key


# ---------------------------------------------------------------------------
# end-to-end certify
# ---------------------------------------------------------------------------

class TestCertify:
    @pytest.mark.parametrize("args,expected", [
        ((3, 80.0, -2.5), "pass"),
        ((3, 80.0, -5.0), "fail"),
        ((3, 80.0, -2.0), "fail"),
        ((2, 80.0, -1.5), "pass"),
        ((2, 80.0, -1.0), "fail"),
    ])
    def test_reference_cases(self, args, expected):
        cert = certify(*args, GAS, grid_size=512)
        assert cert.status == expected

    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    def test_scale_invariance(self, A):
        gas = GasParams(A=A, gamma=1.4, rho0=1.0)
        cert = certify(3, 80.0, -2.5, gas, grid_size=512)
        assert cert.passed

    def test_outside_asymptotic_regime(self):
        cert = certify(3, 20.0, -2.5, GAS, grid_size=512)
        assert not cert.in_asymptotic_regime
        assert any("asymptotic" in nn for nn in cert.notes)
        assert cert.status in ("pass", "outside asymptotic regime")


# ---------------------------------------------------------------------------
# failure diagnostics
# ---------------------------------------------------------------------------

class TestViolatedCondition:
    """The certificate names its first failed check, in report order."""

    @pytest.fixture(scope="class")
    def cert(self, sol80):
        return K_coeffs(sol80, -2.5)

    @staticmethod
    def _failing(cert, *names, **changes):
        checks = {name: name not in names for name in cert.checks}
        return dataclasses.replace(cert, checks=checks, **changes)

    def test_mu_window_text(self, cert):
        w = cert.mu_window
        assert self._failing(cert, "mu_in_window", "boundary_pass").violated_condition() == (
            f"mu = -2.5 outside the admissible window ({float(w.lo)!r}, {float(w.hi)!r})")

    def test_symbolic_text(self, cert):
        conditions = dict(cert.conditions, knn_leading=-0.25)
        failing = self._failing(cert, "symbolic_pass", "k00_positive",
                                conditions=conditions)
        assert failing.violated_condition() == (
            "symbolic condition knn_leading nonpositive (-0.25)")

    @pytest.mark.parametrize("name,text", [
        ("k00_positive", "K00 positivity fails on the profile"),
        ("disc_negative", "discriminant negativity fails on the profile"),
        ("knn_positive", "angular coefficient positivity fails on the profile"),
        ("boundary_pass", "shock-boundary flux signs fail"),
    ])
    def test_profile_check_text(self, cert, name, text):
        assert self._failing(cert, name).violated_condition() == text
