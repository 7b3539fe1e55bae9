"""The in-package ports of scipy's brentq, cumulative_simpson and natural and
not-a-knot CubicSpline: bitwise against scipy, typed non-convergence, and the
commands that run without scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.interpolate import CubicSpline as ScipyCubicSpline
from scipy.optimize import brentq as scipy_brentq

import conicshock
from conicshock import background
from conicshock._numerics import ConvergenceError, CubicSpline, brentq, cumulative_simpson
from conicshock.background import (ShootingError, _piston_offset, shock_jump_from_speed,
                                   solve_background)
from conicshock.cli import COMPUTATION_ERRORS, main
from conicshock.gas import GasParams
from conicshock.hodograph import (_fd_bound, _fd_derivative, _fd_second, check_ellipticity,
                                  psi_hat_from_background, second_order_coeffs)
from test_stepper_oracle import _fd_derivative as _plain_fd_derivative

GAS = GasParams(A=1.0, gamma=1.4, rho0=1.0)

#: (gamma, b0) grid of solves whose root-finds are replayed against scipy
ORACLE_CASES = [(g, b0) for g in (1.2, 1.4, 2.0, 2.9) for b0 in (3.0, 10.0, 40.0, 80.0)]


@pytest.fixture(scope="module")
def profiles():
    return [solve_background(b0, GasParams(A=1.0, gamma=g, rho0=1.0), n=n, grid_size=257)
            for g, b0, n in ((1.4, 40.0, 3), (2.0, 4.0, 3), (1.2, 20.0, 2))]


def _recorded_brent_calls(monkeypatch, gamma, b0):
    """Every brentq call one solve makes: (f, a, b, keyword arguments)."""
    calls = []

    def recording(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return brentq(f, a, b, **kw)

    monkeypatch.setattr(background, "brentq", recording)
    solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=3, grid_size=65)
    monkeypatch.undo()
    return calls


class TestBrent:
    @pytest.mark.parametrize("gamma, b0", ORACLE_CASES)
    def test_bitwise_scipy_on_solver_calls(self, monkeypatch, gamma, b0):
        # the jump function, the Hermite event and the shot function, each
        # replayed: same root, and the port needs exactly scipy's iterations
        calls = _recorded_brent_calls(monkeypatch, gamma, b0)
        kinds = {f.__name__ for f, *_ in calls}
        assert {"<lambda>", "hermite"} <= kinds
        for f, a, b, kw in calls:
            root, res = scipy_brentq(f, a, b, full_output=True, **kw)
            assert res.converged
            assert brentq(f, a, b, **{**kw, "maxiter": res.iterations}) == root
            if res.iterations:
                with pytest.raises(ConvergenceError):
                    brentq(f, a, b, **{**kw, "maxiter": res.iterations - 1})

    def test_shooting_brent_is_replayed(self, monkeypatch):
        calls = _recorded_brent_calls(monkeypatch, 1.4, 40.0)
        assert "offset" in {f.__name__ for f, *_ in calls}

    def test_same_sign_value_error(self):
        f = lambda x: background._jump_function(x, 10.0, GAS)
        hi = 4.0 * shock_jump_from_speed(10.0, GAS).rho_plus
        for solver in (scipy_brentq, brentq):
            with pytest.raises(ValueError, match="different signs"):
                solver(f, hi, 2.0 * hi)

    def test_nan_value_error(self):
        f = lambda x: float("nan") if x > 0.5 else -1.0
        for solver in (scipy_brentq, brentq):
            with pytest.raises(ValueError, match="NaN"):
                solver(f, 0.0, 1.0)


def _starve(monkeypatch, name):
    """Run the solver's brentq calls on the function called name with a
    single iteration, too few to converge."""
    def starved(f, a, b, **kw):
        return brentq(f, a, b, **{**kw, "maxiter": 1} if f.__name__ == name else kw)

    monkeypatch.setattr(background, "brentq", starved)


class TestNonConvergence:
    def test_is_a_computation_error(self):
        assert ConvergenceError in COMPUTATION_ERRORS

    def test_jump(self, monkeypatch):
        _starve(monkeypatch, "<lambda>")
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            shock_jump_from_speed(10.0, GAS)

    def test_event(self, monkeypatch):
        delta = solve_background(10.0, GAS, n=3, grid_size=65).delta
        _starve(monkeypatch, "hermite")
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            _piston_offset(delta, 10.0, GAS, 3)

    def test_shooting_keeps_its_error(self, monkeypatch):
        _starve(monkeypatch, "offset")
        with pytest.raises(ShootingError, match=r"shooting for b0=40.0 did not converge: "
                           r".* \(\d+ shots, last delta = \S+ with mismatch \S+"):
            solve_background(40.0, GAS, n=3)

    def test_cli_exits_1_with_message(self, monkeypatch, tmp_path):
        _starve(monkeypatch, "<lambda>")
        res = CliRunner().invoke(main, ["background", "--b0", "40", "--output-dir",
                                        str(tmp_path)], catch_exceptions=False)
        assert res.exit_code == 1
        assert "did not converge in 1 iterations" in res.output


class TestCumulativeSimpson:
    def test_bitwise_scipy_on_profiles(self, profiles):
        for sol in profiles:
            y, x = sol.u_off[::-1], -sol.s_off[::-1]
            np.testing.assert_array_equal(
                cumulative_simpson(y, x), scipy_cumulative_simpson(y, x=x, initial=0.0))
            np.testing.assert_array_equal(sol.q[::-1], cumulative_simpson(y, x))

    def test_rejects_unordered_x(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 1.0, 2.0]))


def _r_grid(sol):
    """The straightened grid R(s) that psi_hat_from_background resamples."""
    return sol.s_off / (sol.delta + sol.q / sol.b0) + 1.0


def _spline_data(sol, bc_type):
    """(x, columns) of the package's spline with this end condition on one
    profile: the simulator's natural spline over s, verify's not-a-knot one
    over R."""
    if bc_type == "natural":
        return sol.s_off, np.column_stack([sol.u_off, sol.phi])
    return _r_grid(sol), np.column_stack([sol.q / sol.b0, sol.u_off])


def _assert_bitwise_scipy(x, y, bc_type, xv):
    ours, theirs = CubicSpline(x, y, bc_type), ScipyCubicSpline(x, y, bc_type=bc_type)
    np.testing.assert_array_equal(ours.c, theirs.c)
    np.testing.assert_array_equal(ours(xv), theirs(xv))


class TestCubicSpline:
    @pytest.mark.parametrize("bc_type", ["natural", "not-a-knot"])
    def test_bitwise_scipy_on_profiles(self, profiles, bc_type):
        rng = np.random.default_rng(7)
        for sol in profiles:
            x, cols = _spline_data(sol, bc_type)
            xv = np.concatenate([x, rng.uniform(x[0], x[-1], 2000)])
            _assert_bitwise_scipy(x, cols, bc_type, xv)
            assert CubicSpline(x, cols, bc_type)(x[-1]).shape == (2,)

    @pytest.mark.parametrize("bc_type", ["natural", "not-a-knot"])
    def test_bitwise_scipy_on_random_grids(self, bc_type):
        # spacings spread over e^±6, so many systems need row interchanges
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(4, 40))
            x = np.cumsum(np.exp(rng.uniform(-6.0, 6.0, n)))
            y = rng.normal(size=(n, int(rng.integers(1, 4))))
            _assert_bitwise_scipy(x, y, bc_type,
                                  np.concatenate([x, rng.uniform(x[0], x[-1], 50)]))

    @pytest.mark.parametrize("bc_type", ["natural", "not-a-knot"])
    def test_pivoting_grid_bitwise_scipy(self, bc_type):
        # spacing growing ninefold: the natural system interchanges rows
        x = np.array([0.0, 1.0, 10.0, 11.0])
        y = np.random.default_rng(3).normal(size=(4, 2))
        _assert_bitwise_scipy(x, y, bc_type, np.linspace(0.0, 11.0, 45))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_fewer_than_four_samples(self, n):
        for bc_type in ("natural", "not-a-knot"):
            with pytest.raises(ValueError, match="at least 4 samples"):
                CubicSpline(np.arange(float(n)), np.zeros((n, 1)), bc_type)


class TestNaturalSpline:
    """The simulator's natural spline of (u_off, phi) over s, as it is used."""

    @staticmethod
    def _pair(sol):
        cols = np.column_stack([sol.u_off, sol.phi])
        return (CubicSpline(sol.s_off, cols, "natural"),
                ScipyCubicSpline(sol.s_off, cols, bc_type="natural"))

    def test_coefficients_bitwise_scipy(self, profiles):
        for sol in profiles:
            ours, theirs = self._pair(sol)
            np.testing.assert_array_equal(ours.c, theirs.c)

    def test_values_bitwise_scipy(self, profiles):
        rng = np.random.default_rng(7)
        for sol in profiles:
            ours, theirs = self._pair(sol)
            x = np.concatenate([sol.s_off, [0.0, sol.delta],
                                rng.uniform(0.0, sol.delta, 2000)])
            np.testing.assert_array_equal(ours(x), theirs(x))
            assert ours(sol.delta).shape == (2,)


class TestStraightenedProfile:
    def test_psi_hat_bitwise_scipy(self, profiles):
        # the formulas of psi_hat_from_background, on scipy's spline
        for sol in profiles:
            ph = psi_hat_from_background(sol)
            R_s, R = _r_grid(sol), np.linspace(1.0, 2.0, 129)
            psi_off = ScipyCubicSpline(R_s, sol.q / sol.b0)(R)
            h = R[1] - R[0]
            np.testing.assert_array_equal(ph.psi, sol.delta + psi_off)
            np.testing.assert_array_equal(ph.dpsi, _fd_derivative(psi_off, h))
            np.testing.assert_array_equal(ph.d2psi, _fd_second(psi_off, h))
            np.testing.assert_array_equal(ph.u_off, ScipyCubicSpline(R_s, sol.u_off)(R))

    def test_ellipticity_eigmax_per_matrix(self, profiles):
        for sol in profiles:
            ph = psi_hat_from_background(sol)
            A62 = np.moveaxis(second_order_coeffs(ph.states(), ph.gas, ph.b0).A6_2, -1, 0)
            np.testing.assert_array_equal(
                check_ellipticity(ph).A6_2_eigmax,
                np.array([np.max(np.linalg.eigvalsh(m)) for m in A62]))


class TestBoundStencil:
    """_fd_derivative and its bound form, against the plain one-row
    stencil of the stepper oracle, applied to each row."""

    @staticmethod
    def _plain(y, h):
        return np.array([_plain_fd_derivative(row, h) for row in y.reshape(-1, y.shape[-1])]
                        ).reshape(y.shape)

    @pytest.mark.parametrize("m", [3, 4, 33, 512])
    @pytest.mark.parametrize("rows", [None, 2, 3])
    def test_bitwise_plain(self, m, rows):
        rng = np.random.default_rng(m)
        shape = (m,) if rows is None else (rows, m)
        h = 1.0 / (m - 1)
        y = rng.standard_normal(shape)
        want = self._plain(y, h)
        out = np.empty(shape)
        for got in (_fd_derivative(y, h), _fd_derivative(y, h, out=out), out):
            assert got.shape == shape and got.tobytes() == want.tobytes()
        # bound once, it re-reads its source on every call: the stepper's
        # use, with the source overwritten in place between calls
        out = np.empty(shape)
        apply = _fd_bound(y, h, out)
        for _ in range(3):
            assert apply() is out and out.tobytes() == self._plain(y, h).tobytes()
            y[...] = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)


# ---------------------------------------------------------------------------
# commands in fresh interpreters
# ---------------------------------------------------------------------------

#: runs the CLI on sys.argv, then prints the scipy modules loaded; with
#: "block" first, every scipy import fails
_CHILD = """
import json, sys
if sys.argv.pop(1) == "block":
    sys.modules["scipy"] = None
from conicshock.cli import main
try:
    main(sys.argv[1:], prog_name="conicshock")
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(m for m, v in sys.modules.items() if m.startswith("scipy") and v)))
"""


def _child(mode, *args):
    src = str(Path(conicshock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestWithoutScipy:
    def test_help(self):
        # and with scipy importable, nothing imports it on the way
        assert _child("block", "--help") == _child("allow", "--help") == []

    def test_certify(self, tmp_path):
        _child("block", "certify", "--n", "3", "--gamma", "1.4", "--b0", "55.3",
               "--mu", "-2.5", "--output-dir", str(tmp_path))
        assert len(list(tmp_path.glob("certificate_*.json"))) == 1

    def test_background(self, tmp_path):
        _child("block", "background", "--b0", "40", "--output-dir", str(tmp_path))

    def test_explicit_simulate(self, tmp_path):
        _child("block", "simulate", "--gamma", "2", "--b0", "4", "--grid-points", "32",
               "--eps", "0.01", "--t-end", "1.2", "--output-dir", str(tmp_path))

    def test_verify(self, tmp_path):
        args = ["verify", "--b0", "40", "--b0", "80", "--output-dir"]
        _child("block", *args, str(tmp_path / "blocked"))
        assert (tmp_path / "blocked" / "verify_report.json").is_file()
        assert _child("allow", *args, str(tmp_path / "allowed")) == []


class TestScipyCommands:
    def test_implicit_simulate(self, tmp_path):
        # b0 40 would need about 3e7 explicit steps, so the implicit path runs
        loaded = _child("allow", "simulate", "--gamma", "1.4", "--b0", "40",
                        "--grid-points", "32", "--t-end", "1.5",
                        "--output-dir", str(tmp_path))
        assert "scipy.linalg" in loaded


#: the commands that load no scipy, then the implicit stepper's operator
#: with F and J evaluated, all in one interpreter; last the bordered solve,
#: the one place that imports scipy, whose ImportError is printed
_BOUNDARY_CHILD = """
import sys
import numpy as np
from conicshock import simulator
from conicshock.background import solve_background
from conicshock.cli import main
from conicshock.gas import GasParams

out = sys.argv[1]
for args in (["verify", "--b0", "10", "--b0", "40"],
             ["certify", "--n", "3", "--gamma", "1.4", "--b0", "55.3", "--mu", "-2.5"],
             ["simulate", "--gamma", "2", "--b0", "4", "--grid-points", "32",
              "--eps", "0.01", "--t-end", "1.2"]):
    try:
        main(args + ["--output-dir", out + "/" + args[0]], prog_name="conicshock")
    except SystemExit as exc:
        if exc.code:
            raise
gas = GasParams(A=1.0, gamma=1.4, rho0=1.0)
cfg = simulator.SimConfig(n=3, gas=gas, b0=40.0, grid_points=32)
sol = solve_background(40.0, gas, n=3, grid_size=256)
stepper = simulator.SelfSimilarStepper(simulator.init_from_background(sol, cfg), cfg)
x = stepper.x
a = stepper.op.weights(x)
F, J = stepper.op(cfg.t0, x, a)
Mb, Mc = stepper.op.mass(a)
assert all(np.all(np.isfinite(block)) for block in (F, *J, Mb, Mc))
try:
    simulator._bordered_solve(*J, F)
except ImportError as exc:
    print(exc)
"""


class TestScipyBoundary:
    def test_only_the_bordered_solve_imports_scipy(self, tmp_path):
        # a scipy package that fails to import, first on PYTHONPATH as in
        # CI's no-scipy step: any scipy import on these paths fails the run
        blocker = tmp_path / "no_scipy"
        (blocker / "scipy").mkdir(parents=True)
        (blocker / "scipy" / "__init__.py").write_text('raise ImportError("scipy is blocked")\n')
        src = str(Path(conicshock.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(blocker), src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", _BOUNDARY_CHILD, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip().splitlines()[-1] == "scipy is blocked"
        assert (tmp_path / "verify" / "verify_report.json").is_file()
        assert len(list((tmp_path / "certify").glob("certificate_*.json"))) == 1
        assert (tmp_path / "simulate" / "simulation.json").is_file()
