"""Tests for the self-similar background solver: jump relations, shooting,
and large-piston-speed asymptotics."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import bisect

from click.testing import CliRunner

from conicshock import background
from conicshock.background import (
    SHOOT_STEPS,
    SHOOT_XTOL,
    BracketError,
    DenominatorSignError,
    SelfSimilarSolution,
    ShootingError,
    asymptotic_report,
    ode_residual,
    shock_jump_from_speed,
    solve_background,
    _deviations,
    _jump_function,
    _march,
    _piston_offset,
)
from conicshock.cli import main
from conicshock.gas import GasParams, enthalpy, sound_speed

GAS = GasParams(A=1.0, gamma=1.4, rho0=1.0)


@pytest.fixture(scope="module")
def sol40():
    return solve_background(40.0, GAS, n=3, grid_size=1024)


# ---------------------------------------------------------------------------
# jump conditions
# ---------------------------------------------------------------------------

class TestShockJump:
    def test_ambient_is_a_root(self):
        for s0 in (2.0, 5.0, 20.0):
            assert _jump_function(GAS.rho0, s0, GAS) == pytest.approx(0.0, abs=1e-12)

    def test_subsonic_rejected(self):
        c0 = float(sound_speed(GAS.rho0, GAS))
        with pytest.raises(ValueError):
            shock_jump_from_speed(0.9 * c0, GAS)

    def test_unbracketable_speed(self):
        # an infinite shock speed has no finite post-shock density
        with pytest.raises(BracketError, match="post-shock density"):
            shock_jump_from_speed(float("inf"), GAS)

    def test_weak_shock_limit(self):
        c0 = float(sound_speed(GAS.rho0, GAS))
        j = shock_jump_from_speed(c0 * (1 + 1e-6), GAS)
        assert abs(j.rho_plus / GAS.rho0 - 1.0) < 1e-3

    def test_matches_bisection_oracle(self):
        s0 = 7.0
        f = lambda x: _jump_function(x, s0, GAS)
        oracle = bisect(f, GAS.rho0 * 1.0001, 1e6, xtol=1e-10)
        j = shock_jump_from_speed(s0, GAS)
        assert j.rho_plus == pytest.approx(oracle, rel=1e-8)

    def test_strong_shock_leading_order(self):
        # asymptotic compression ((gamma-1)/(2*A*gamma))^(1/(gamma-1)) * s0^(2/(gamma-1))
        g = GAS.gamma
        j = shock_jump_from_speed(20.0, GAS)
        lead = ((g - 1) / (2 * GAS.A * g)) ** (1 / (g - 1)) * 20.0 ** (2 / (g - 1))
        assert abs(j.rho_plus / lead - 1.0) < 0.15

    def test_second_jump_relation(self):
        j = shock_jump_from_speed(11.0, GAS)
        lhs = j.s0 * j.u_plus
        rhs = 0.5 * j.u_plus ** 2 + float(enthalpy(j.rho_plus, GAS)) - GAS.B0
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_entropy_and_lax(self):
        for s0 in (2.0, 8.0, 40.0):
            j = shock_jump_from_speed(s0, GAS)
            c_plus = float(sound_speed(j.rho_plus, GAS))
            c0 = float(sound_speed(GAS.rho0, GAS))
            assert j.rho_plus > GAS.rho0
            assert j.u_plus - c_plus < s0 < j.u_plus + c_plus
            assert c0 < s0


# ---------------------------------------------------------------------------
# shooting solve
# ---------------------------------------------------------------------------

class TestSolveBackground:
    def test_piston_condition(self, sol40):
        assert abs(sol40.u[0] - sol40.b0) <= 1e-9 * sol40.b0

    def test_potential_vanishes_at_shock(self, sol40):
        assert sol40.phi[-1] == pytest.approx(0.0, abs=1e-12 * sol40.b0)

    def test_velocity_monotone_decreasing(self, sol40):
        assert np.all(np.diff(sol40.u_off) < 0)
        assert np.all(sol40.du < 0)

    def test_denominator_negative(self, sol40):
        assert np.all(sol40.w ** 2 - sol40.csq < 0)

    def test_standoff_positive_and_shrinking(self):
        deltas = []
        for b0 in (20.0, 40.0, 80.0):
            sol = solve_background(b0, GAS, n=3, grid_size=256)
            assert sol.delta > 0
            deltas.append(sol.delta / b0)
        assert deltas[0] > deltas[1] > deltas[2]

    def test_bad_inputs(self):
        with pytest.raises(BracketError):
            solve_background(0.1, GAS, n=3)
        with pytest.raises(ValueError):
            solve_background(40.0, GAS, n=5)

    def test_piston_condition_missed_on_coarse_grid(self):
        # four RK4 steps across the thick gamma 2.5 layer, the fewest
        # allowed, miss u(b0) = b0 by about 1e-7 b0, far above the 1e-9 b0
        # the final pass allows
        gas = GasParams(A=1.0, gamma=2.5, rho0=1.0)
        with pytest.raises(BracketError, match="piston condition missed"):
            solve_background(4.0, gas, n=3, grid_size=5)

    def test_nan_final_pass_misses_piston_condition(self, monkeypatch):
        # the shots march with stop_on_event=True and converge as usual;
        # only the final pass on the output grid returns NaN
        def final_nan(*args, stop_on_event=False, **kw):
            rhos, ws = _march(*args, stop_on_event=stop_on_event, **kw)
            return (rhos, ws) if stop_on_event else (rhos, [math.nan] * len(ws))

        monkeypatch.setattr(background, "_march", final_nan)
        with pytest.raises(BracketError, match=r"piston condition missed: \|u\(b0\) - b0\| = nan"):
            solve_background(40.0, GAS, n=3, grid_size=256)

    @pytest.mark.parametrize("grid_size", [1, 2, 4])
    def test_rejects_grid_below_five_samples(self, grid_size):
        with pytest.raises(ValueError, match="grid_size must be at least 5"):
            solve_background(40.0, GAS, n=3, grid_size=grid_size)

    def test_ode_residual_rejects_short_profile(self, sol40):
        short = SelfSimilarSolution(gas=GAS, n=3, b0=sol40.b0, delta=sol40.s_off[3],
                                    s_off=sol40.s_off[:4], rho=sol40.rho[:4], w=sol40.w[:4],
                                    csq_off=sol40.csq_off[:4])
        with pytest.raises(ValueError, match="profile samples must be at least 5"):
            ode_residual(short)

    @pytest.mark.parametrize("gamma", (1.2, 1.4, 2.9))
    @pytest.mark.parametrize("b0", (10.0, 80.0))
    def test_ode_residual_rejects_wrong_dimension(self, gamma, b0):
        # an n = 3 profile checked as an n = 2 one misses the ODE by far
        # more than verify's 1e-4 bound, thin layers included
        sol = solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=3)
        assert ode_residual(sol) < 1e-4
        assert ode_residual(dataclasses.replace(sol, n=2)) > 1e-4

    def test_residual_fourth_order(self):
        # halving the step must shrink the ODE residual by >= 8 (4th-order
        # contract); run at a moderate case where truncation dominates
        gas = GasParams(A=1.0, gamma=2.5, rho0=1.0)
        res = [ode_residual(solve_background(4.0, gas, n=3, grid_size=N)) for N in (32, 64, 128)]
        assert res[0] / res[1] >= 8.0
        assert res[1] / res[2] >= 8.0

    def test_residual_spacing_from_exact_offsets(self):
        # at gamma 1.2, b0 40 the stand-off 3e-10 is about 43000 ulp of b0,
        # so a spacing of the 2048 samples is 21 ulp and s[1] - s[0] misses
        # it by up to 5% (residual 1.6e-4); taken from s - b0 the residual
        # is 4.9e-6, below verify's 1e-4 bound
        sol = solve_background(40.0, GasParams(A=1.0, gamma=1.2, rho0=1.0), n=3)
        assert ode_residual(sol) < 1e-4

    def test_denominator_sign_error_names_abscissa(self):
        # a march started at w^2 >= c^2 (here w = -2c at the shock density)
        s0 = 40.0 + 1e-5
        rho = shock_jump_from_speed(s0, GAS).rho_plus
        w = -2.0 * float(sound_speed(rho, GAS))
        with pytest.raises(DenominatorSignError,
                           match=re.escape(f"(s-u)^2 - c^2 >= 0 at s = {s0}")):
            _march([s0, s0 - 1e-8], float(sound_speed(rho, GAS)) ** 2, w, -1e-8, GAS, 3)

    def test_n2_solves(self):
        sol = solve_background(40.0, GAS, n=2, grid_size=256)
        assert abs(sol.u[0] - sol.b0) <= 1e-9 * sol.b0
        assert sol.delta > solve_background(40.0, GAS, n=3, grid_size=256).delta


# ---------------------------------------------------------------------------
# shooting: Brent on log(delta) against a bisection oracle
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps

#: gamma x b0 at n = 3; gamma 1.2, b0 80 has delta = 6.1e-13, about 43 ulp(b0)
SHOOTING_CASES = [(g, b0) for g in (1.2, 1.4, 2.0) for b0 in (10.0, 40.0, 80.0)]

#: thick, thin and unbracketed layers at the ends of the gamma range
SEEDED_CASES = [(g, b0) for g in (1.05, 2.9) for b0 in (1.5, 4.0, 100.0)]

#: RK4 steps the shots of one solve marched when every shot took
#: SHOOT_STEPS (n 3, grid 256; 0 for the subsonic piston, 1 where the
#: first shot, at the representability floor, already overshoots)
FIXED_STEP_SHOT_STEPS = {
    (1.2, 10.0): 1026, (1.2, 40.0): 513, (1.2, 80.0): 256,
    (1.4, 10.0): 1283, (1.4, 40.0): 1026, (1.4, 80.0): 769,
    (2.0, 10.0): 1282, (2.0, 40.0): 1027, (2.0, 80.0): 1027,
    (1.05, 1.5): 1765, (1.05, 4.0): 1282, (1.05, 100.0): 1,
    (2.9, 1.5): 0, (2.9, 4.0): 1569, (2.9, 100.0): 1284,
}

#: gamma 2.9 at b0 1.2 and 1.5 is subsonic, gamma 1.2 at b0 100 has no root
#: above 16 eps b0; the rest solve
PARITY_CASES = [(g, b0) for g in (1.2, 1.4, 2.9) for b0 in (1.2, 1.5, 4.0, 100.0)]


class TestShooting:
    @pytest.mark.parametrize("gamma, b0", SHOOTING_CASES)
    def test_matches_bisection_oracle(self, gamma, b0):
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        oracle = bisect(lambda d: _piston_offset(d, b0, gas, 3, SHOOT_STEPS),
                        16.0 * EPS * b0, 2.0 * b0, xtol=1e-300, rtol=1e-14,
                        maxiter=300)
        delta = solve_background(b0, gas, n=3, grid_size=256).delta
        assert delta == pytest.approx(oracle, rel=1e-11, abs=0.0)

    def test_shot_changes_sign_once_at_root(self):
        # an event tolerance fixed at 2e-12 made the sign flip back and
        # forth over a band of 6e-8 relative around this root
        b0 = 40.0
        delta = solve_background(b0, GAS, n=3, grid_size=256).delta
        signs = [_piston_offset(delta * (1.0 + k * 1e-9), b0, GAS, 3, SHOOT_STEPS) > 0.0
                 for k in range(-10, 11)]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        assert not signs[0] and signs[-1]

    def test_surrogate_offset_below_event_range(self):
        # no event within 2 delta: the finite surrogate -delta, not -inf
        lo = 16.0 * EPS * 40.0
        assert _piston_offset(lo, 40.0, GAS, 3, SHOOT_STEPS) == -lo

    @staticmethod
    def _count_shots(monkeypatch):
        """Record each shot's (delta, steps) and the RK4 steps the shots
        march, through the module bindings the solve looks up."""
        calls, marched = [], []

        def counting(delta, *args):
            calls.append((delta, args[-1]))
            return _piston_offset(delta, *args)

        def counting_march(*args, stop_on_event=False, **kw):
            ds, ws = _march(*args, stop_on_event=stop_on_event, **kw)
            if stop_on_event:
                marched.append(len(ws))
            return ds, ws

        monkeypatch.setattr(background, "_piston_offset", counting)
        monkeypatch.setattr(background, "_march", counting_march)
        return calls, marched

    def test_shots_per_solve(self, monkeypatch):
        calls, marched = self._count_shots(monkeypatch)
        for gamma, b0 in SHOOTING_CASES:
            calls.clear()
            marched.clear()
            solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=3,
                             grid_size=256)
            assert len(calls) <= 30, (gamma, b0, len(calls))
            assert len(set(calls)) == len(calls)  # no shot repeated
            assert len(marched) == len(calls)
            assert sum(marched) <= FIXED_STEP_SHOT_STEPS[gamma, b0], (gamma, b0, sum(marched))
            if gamma == 1.4:
                assert sum(marched) <= 64, (b0, sum(marched))

    @pytest.mark.parametrize("gamma, b0", SHOOTING_CASES + SEEDED_CASES)
    def test_seeded_shots_per_solve(self, monkeypatch, gamma, b0):
        # the seed at the thin-layer mass balance and the steps
        # delta <- delta - g reach a sign change in a few shots, then Brent
        # closes the last two, at each step count the solve takes; a case
        # without a bracket stops at its end
        calls, marched = self._count_shots(monkeypatch)
        try:
            solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=3,
                             grid_size=256)
        except BracketError:
            pass
        assert len(calls) <= 13
        assert len(set(calls)) == len(calls)  # no shot repeated
        assert sum(marched) <= FIXED_STEP_SHOT_STEPS[gamma, b0], sum(marched)

    def test_stand_off_below_representability_floor(self):
        # gamma 1.2, b0 100: the stand-off falls below the clamp's lower end
        # 16 eps b0, and the first shot, seeded there, already overshoots
        gas = GasParams(A=1.0, gamma=1.2, rho0=1.0)
        with pytest.raises(BracketError, match=r"b0=100\.0: the stand-off falls below "
                           r"the representability floor 16\*eps\*b0 = 3\.553e-13, "
                           r".*\(1 shots, last delta = 3\.552714e-13 "):
            solve_background(100.0, gas, n=3)

    @pytest.mark.parametrize("gamma, b0", PARITY_CASES)
    def test_bracket_error_parity_with_endpoint_shots(self, gamma, b0):
        # the clamp [16 eps b0, 2 b0] fails exactly where its two end shots
        # do not bracket the piston condition (no admissible shock at the
        # lower end counts as no bracket)
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        lo, hi = 16.0 * EPS * b0, 2.0 * b0
        try:
            bracketed = (_piston_offset(lo, b0, gas, 3, SHOOT_STEPS) < 0.0
                         < _piston_offset(hi, b0, gas, 3, SHOOT_STEPS))
        except ValueError:
            bracketed = False
        if not bracketed:
            with pytest.raises(BracketError):
                solve_background(b0, gas, n=3, grid_size=256)
            return
        oracle = bisect(lambda d: _piston_offset(d, b0, gas, 3, SHOOT_STEPS), lo, hi,
                        xtol=1e-300, rtol=1e-14, maxiter=300)
        delta = solve_background(b0, gas, n=3, grid_size=256).delta
        assert delta == pytest.approx(oracle, rel=1e-11, abs=0.0)

    def test_errors_report_progress(self, monkeypatch):
        # shots taken, the last delta and its mismatch
        progress = r"\d+ shots, last delta = \S+ with mismatch \S+"
        with pytest.raises(BracketError, match="no shooting bracket for b0=100.0: .*" + progress):
            solve_background(100.0, GasParams(A=1.0, gamma=1.2, rho0=1.0), n=3)
        monkeypatch.setattr(background, "SHOOT_MAXITER", 2)
        with pytest.raises(ShootingError, match="did not converge .*" + progress):
            solve_background(40.0, GAS, n=3)

    @staticmethod
    def _nan_inside_bracket(delta, b0, gas, n, steps):
        # a shot function that never settles: finite at the bracket ends
        # only, so the root-find cannot converge
        return _piston_offset(delta, b0, gas, n, steps) if not 1e-9 < delta < b0 \
            else float("nan")

    def test_unconverged_shot_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(background, "_piston_offset", self._nan_inside_bracket)
        with pytest.raises(ShootingError, match="returned nan"):
            solve_background(40.0, GAS, n=3)

    def test_iteration_cap_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(background, "SHOOT_MAXITER", 2)
        with pytest.raises(ShootingError, match="did not converge"):
            solve_background(40.0, GAS, n=3)

    def test_unconverged_shot_fails_certify_cleanly(self, monkeypatch, tmp_path):
        monkeypatch.setattr(background, "_piston_offset", self._nan_inside_bracket)
        res = CliRunner().invoke(
            main, ["certify", "--n", "3", "--gamma", "1.4", "--b0", "40",
                   "--mu", "auto", "--output-dir", str(tmp_path)],
            catch_exceptions=False)
        assert res.exit_code == 1
        assert "certificate evaluation failed" in res.output
        assert "returned nan" in res.output


# ---------------------------------------------------------------------------
# stand-off accuracy: a fixed fine shot, the march's order, the mass balance
# ---------------------------------------------------------------------------

#: RK4 steps of the reference shot across [s0 - 2 delta, s0]
REFERENCE_STEPS = 8192

STANDOFF_B0 = (1.2, 1.5, 2.0, 4.0, 10.0, 20.0, 40.0, 80.0, 100.0)

#: |delta/delta_ref - 1| of the solve when every shot took SHOOT_STEPS =
#: 512 steps, rounded up, by (n, gamma) over STANDOFF_B0; None where the
#: solve raises (a subsonic piston, or a stand-off below 16 eps b0)
FIXED_STEP_STANDOFF_ERRORS = {
    (2, 1.05): (2.5e-13, 1.2e-14, 3.4e-14, 3.1e-14, 5.8e-14, None, None, None, None),
    (2, 1.2): (4.9e-13, 1.5e-13, 5.4e-14, 4.8e-14, 2.3e-15, 2.8e-14, 7.2e-14, 3.4e-15, None),
    (2, 1.4): (7.2e-13, 1.3e-13, 5.1e-14, 1.9e-14, 2.1e-14, 6.1e-14, 6.5e-14, 5.4e-14, 5.5e-14),
    (2, 2.0): (None, 5.9e-13, 1.5e-13, 3.6e-14, 5.5e-14, 5.1e-14, 4.5e-14, 6.6e-14, 1.2e-14),
    (2, 2.9): (None, None, 4.7e-13, 3.8e-14, 2.5e-14, 3.2e-14, 4.4e-14, 6.1e-14, 1.3e-14),
    (3, 1.05): (7.2e-13, 1.2e-13, 4.6e-14, 1.7e-14, 3.5e-14, None, None, None, None),
    (3, 1.2): (1.6e-12, 2.1e-13, 4.4e-14, 3.8e-14, 4.4e-14, 5.0e-14, 1.6e-14, 8.0e-14, None),
    (3, 1.4): (3.3e-12, 5.1e-13, 8.5e-14, 7.4e-14, 5.5e-14, 2.9e-15, 7.3e-14, 1.1e-14, 6.1e-14),
    (3, 2.0): (None, 2.3e-12, 3.4e-13, 6.1e-14, 1.1e-14, 1.4e-14, 9.0e-15, 5.2e-15, 5.8e-14),
    (3, 2.9): (None, None, 1.2e-12, 5.2e-14, 3.4e-14, 4.6e-14, 7.1e-14, 3.9e-14, 2.9e-14),
}


def _reference_stand_off(delta, b0, gas, n):
    """Root of the REFERENCE_STEPS shot, by secant steps from delta."""
    shot = lambda d: _piston_offset(d, b0, gas, n, REFERENCE_STEPS)
    x0, g0 = delta, shot(delta)
    x1 = delta - g0
    for _ in range(8):
        g1 = shot(x1)
        if g1 == 0.0 or g1 == g0:
            break
        x0, g0, x1 = x1, g1, x1 - g1 * (x1 - x0) / (g1 - g0)
        if abs(x1 - x0) <= 4.0 * EPS * x1:
            break
    return x1


class TestStandOff:
    def test_against_reference_shot(self):
        # the stand-off at the step counts the solve chooses is no farther
        # from the fine shot's root than the fixed 512-step solve was, or
        # within twice the root-find's tolerance; the cases that raise
        # raise as they did
        solved = 0
        for (n, gamma), errors in FIXED_STEP_STANDOFF_ERRORS.items():
            gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
            for b0, fixed in zip(STANDOFF_B0, errors):
                case = (n, gamma, b0)
                if fixed is None:
                    with pytest.raises(BracketError):
                        solve_background(b0, gas, n=n, grid_size=256)
                    continue
                delta = solve_background(b0, gas, n=n, grid_size=256).delta
                ref = _reference_stand_off(delta, b0, gas, n)
                err = abs(delta / ref - 1.0)
                assert err <= max(1.1 * fixed, 2.0 * SHOOT_XTOL), (case, err, fixed)
                solved += 1
        assert solved == 74

    def test_march_fourth_order(self):
        # the (d, w) march across a thick layer, from the shock to the
        # piston: successive differences under step halving shrink 16-fold
        gas, b0, n = GasParams(A=1.0, gamma=2.9, rho0=1.0), 2.0, 3
        delta = solve_background(b0, gas, n=n, grid_size=64).delta
        _, csq, w = background._post_shock(b0 + delta, gas)
        ends = []
        for steps in (16, 32, 64, 128):
            h = delta / steps
            ds, ws = _march([b0 + delta - k * h for k in range(steps)], csq, w, -h, gas, n)
            ends.append(np.array([ds[-1], ws[-1]]))
        diffs = [np.abs(a - b) for a, b in zip(ends, ends[1:])]
        orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        for d_order, w_order in orders:
            assert 3.8 <= w_order <= 4.2, orders
            assert d_order >= 3.8, orders

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 2.9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_thin_layer_mass_balance(self, gamma, n):
        # the gas swept from [0, s0] sits in the layer [b0, s0] at about
        # rho+: rho0 s0^n = rho+ (s0^n - b0^n), so delta n rho+/(rho0 b0) =
        # 1 + (n + 1)/2 delta/b0 + O((delta/b0)^2), and tends to 1 as b0
        # grows; delta itself is resolved to SHOOT_XTOL relative
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        excess = []
        for b0 in (10.0, 20.0, 40.0, 80.0):
            sol = solve_background(b0, gas, n=n, grid_size=64)
            e = sol.delta / b0
            r = sol.delta * n * sol.jump.rho_plus / (gas.rho0 * b0) - 1.0
            assert abs(r - (n + 1) / 2.0 * e) <= 10.0 * e * e + 2.0 * SHOOT_XTOL, (b0, r, e)
            excess.append(r)
        assert all(a > b > 0.0 for a, b in zip(excess, excess[1:])), excess


# ---------------------------------------------------------------------------
# asymptotic report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    return asymptotic_report([solve_background(b0, GAS, n=3, grid_size=512)
                              for b0 in (10.0, 20.0, 40.0, 80.0)])


class TestAsymptotics:

    def test_needs_two_distinct_piston_speeds(self):
        # a one-point log-log fit has no slope
        sol = solve_background(40.0, GAS, n=3, grid_size=64)
        for sols in ([sol], [sol, sol]):
            with pytest.raises(ValueError, match="two or more distinct"):
                asymptotic_report(sols)

    def test_all_items_finite(self, report):
        for k, v in report.deviations.items():
            assert np.all(np.isfinite(v)), k

    def test_ratio_items_shrink(self, report):
        for k in ("usq_minus_csq", "denominator", "density", "char_plus", "char_minus"):
            d = report.deviations[k]
            assert np.all(np.diff(d) < 0), k

    def test_denominator_sign_everywhere(self, report):
        assert report.denominator_negative

    def test_bulk_slopes_near_theory(self, report):
        # items driven by the ambient-sound-speed correction decay ~ b0^-2
        assert report.expected_slope == -2.0
        for k in ("usq_minus_csq", "denominator", "char_plus", "char_minus", "density"):
            assert -2.6 < report.slopes[k] < -1.4, (k, report.slopes[k])

    def test_density_derivative_magnitude(self, report):
        # sup|rho'| ~ 1/b0: scaled magnitude stays O(1), raw slope near -1
        assert np.all(report.deviations["drho_magnitude"] < 50.0)
        assert -1.3 < report.slopes["drho_magnitude"] < -0.7

    @pytest.mark.parametrize("gamma, b0, n", [(1.2, 80.0, 3), (1.2, 80.0, 2), (1.4, 100.0, 3),
                                              (1.4, 10.0, 3), (2.9, 10.0, 3)])
    def test_offset_items_match_exact_rationals(self, gamma, b0, n):
        # shock_speed = |s0/b0 - 1|, velocity = max|u/b0 - 1| and du_ratio =
        # max|u'/(1 - n) - 1| in exact rationals on the stored floats (s = b0 +
        # s_off, u = s + w, c^2 from the stored offset), against the offset
        # forms: a few roundings apart.  The absolute forms were 1.3e-2 off at
        # gamma 1.2, b0 80, n 3, where delta/b0 is only about 30 ulp(1)
        sol = solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=n)
        dev = _deviations(sol)
        B = Fraction(b0)
        exact = {"shock_speed": abs((B + Fraction(sol.delta)) / B - 1), "velocity": 0, "du_ratio": 0}
        for s_off, w, csq in zip(sol.s_off.tolist(), sol.w.tolist(), sol.csq.tolist()):
            s, w, csq = B + Fraction(s_off), Fraction(w), Fraction(csq)
            du = (n - 1) * csq * (s + w) / (s * (w * w - csq))
            exact["velocity"] = max(exact["velocity"], abs((s + w) / B - 1))
            exact["du_ratio"] = max(exact["du_ratio"], abs(du / (1 - n) - 1))
        for k, v in exact.items():
            assert abs(Fraction(dev[k]) - v) <= 4 * Fraction(np.finfo(float).eps) * v, k
