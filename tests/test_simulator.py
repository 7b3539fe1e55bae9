"""Tests for the free-boundary simulator: initialization, stepping,
long-run diagnostics, the modified background, and decay fitting."""

import numpy as np
import pytest

from conicshock import simulator
from conicshock.background import solve_background
from conicshock.cli import _write_csv, _write_json
from conicshock.gas import GasParams, VacuumError, _flow_bernoulli, density_from_state, enthalpy
from conicshock.simulator import (
    BackgroundSampler,
    DecayFit,
    SimConfig,
    SimState,
    SimulationError,
    fit_decay,
    init_from_background,
    modified_background,
    projected_explicit_steps,
    run,
    shock_speed,
    step,
)

GAS = GasParams(A=1.0, gamma=2.0, rho0=1.0)
B0 = 4.0


@pytest.fixture(scope="module")
def sol():
    return solve_background(B0, GAS, n=3, grid_size=512)


@pytest.fixture(scope="module")
def cfg0():
    return SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=64, t_end=20.0)


@pytest.fixture(scope="module")
def res0(sol, cfg0):
    return run(cfg0, sol=sol)


@pytest.fixture(scope="module")
def res_eps(sol):
    cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64, t_end=50.0)
    return run(cfg, sol=sol)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, gas=GAS, b0=B0)
        with pytest.raises(ValueError):
            SimConfig(n=3, gas=GAS, b0=B0, eps=-0.1)
        with pytest.raises(ValueError):
            SimConfig(n=3, gas=GAS, b0=B0, cfl=1.5)
        with pytest.raises(ValueError):
            SimConfig(n=3, gas=GAS, b0=B0, grid_points=8)
        with pytest.raises(ValueError):
            SimConfig(n=3, gas=GAS, b0=B0, t_end=0.5)
        for field in ("eps", "t_end", "t0"):
            with pytest.raises(ValueError, match=field):
                SimConfig(n=3, gas=GAS, b0=B0, **{field: float("nan")})
        for t0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="t0"):
                SimConfig(n=3, gas=GAS, b0=B0, t0=t0)

    def test_piston_path(self):
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01)
        t = 3.0
        assert cfg.sigma(t) == t * (B0 + 0.01 / (1 + t))
        h = 1e-7
        fd = (cfg.sigma(t + h) - cfg.sigma(t - h)) / (2 * h)
        assert cfg.dsigma(t) == pytest.approx(fd, rel=1e-6)

    def test_piston_path_same_bits_on_floats_and_arrays(self):
        # a caller may evaluate the path on an array of times or time by
        # time; both must give the same bits
        t = np.geomspace(1.0, 100.0, 100_000)
        one_by_one = np.array([simulator.dforcing(x) for x in t.tolist()])
        np.testing.assert_array_equal(simulator.dforcing(t), one_by_one)
        for eps in (1e-5, 0.0137, 0.5):
            cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=eps)
            one_by_one = np.array([cfg.dsigma(x) for x in t.tolist()])
            np.testing.assert_array_equal(cfg.dsigma(t), one_by_one)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

class TestInit:
    def test_unperturbed_init(self, sol, cfg0):
        st = init_from_background(sol, cfg0)
        assert st.sigma == pytest.approx(B0)
        assert st.zeta == pytest.approx(sol.s0)
        assert abs(st.phi[-1]) < 1e-10          # potential vanishes at the shock
        assert st.w[0] == pytest.approx(B0, abs=1e-9)   # wall condition
        assert np.all(st.density(GAS) > 0)

    def test_initial_shock_consistency(self, sol, cfg0):
        # the sampled state satisfies the Rankine-Hugoniot relation: the
        # fitted shock speed equals the self-similar speed s0
        st = init_from_background(sol, cfg0)
        zdot, margin = shock_speed(st.v[-1], st.w[-1], GAS)
        assert margin > 0
        assert zdot == pytest.approx(sol.s0, rel=1e-8)

    def test_compatibility_at_shock(self, sol, cfg0):
        st = init_from_background(sol, cfg0)
        zdot, _ = shock_speed(st.v[-1], st.w[-1], GAS)
        assert st.v[-1] + zdot * st.w[-1] == pytest.approx(0.0, abs=1e-8)

    def test_thin_layer_perturbed_init_nonempty(self):
        # piston displacement exceeds the stand-off: the profile for the
        # instantaneous piston speed keeps the initial domain nonempty
        gas = GasParams(A=1.0, gamma=1.4, rho0=1.0)
        s = solve_background(40.0, gas, n=3, grid_size=256)
        cfg = SimConfig(n=3, gas=gas, b0=40.0, eps=0.01, grid_points=64)
        st = init_from_background(s, cfg)
        assert st.sigma < st.zeta
        assert st.sigma == pytest.approx(cfg.sigma(1.0))


class TestProfileMismatch:
    """A profile solved for another gas, dimension or piston speed than the
    config's is refused by every entry point that takes one."""

    @pytest.fixture(scope="class", params=["gas", "n", "b0"])
    def other(self, request):
        kw = {"gas": dict(b0=B0, gas=GasParams(A=1.0, gamma=1.4, rho0=1.0), n=3),
              "n": dict(b0=B0, gas=GAS, n=2),
              "b0": dict(b0=10.0, gas=GAS, n=3)}[request.param]
        return solve_background(kw["b0"], kw["gas"], n=kw["n"], grid_size=256)

    @pytest.mark.parametrize("entry", [
        init_from_background, modified_background,
        lambda sol, cfg: run(cfg, sol=sol)],
        ids=["init_from_background", "modified_background", "run"])
    def test_mismatched_profile_raises(self, other, cfg0, entry):
        with pytest.raises(ValueError, match=r"profile solved for \(n, gas, b0\)") as exc:
            entry(other, cfg0)
        msg = str(exc.value)
        assert repr((other.n, other.gas, other.b0)) in msg
        assert repr((cfg0.n, cfg0.gas, cfg0.b0)) in msg


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class TestStep:
    def test_self_similar_single_step(self, sol, cfg0):
        st = init_from_background(sol, cfg0)
        st1 = step(st, cfg0)
        dt = st1.t - st.t
        assert abs(st1.zeta / st1.t - sol.s0) < 1e-6 * dt + 1e-12

    def test_entropy_margin_positive(self, sol, cfg0):
        st = init_from_background(sol, cfg0)
        for _ in range(10):
            st = step(st, cfg0)
            _, margin = shock_speed(st.v[-1], st.w[-1], GAS)
            assert margin > 0

    def test_two_half_steps_vs_one(self, sol):
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64)
        st = init_from_background(sol, cfg)
        diffs = []
        for dt in (4e-4, 2e-4):
            one = step(st, cfg, dt=dt)
            two = step(step(st, cfg, dt=dt / 2), cfg, dt=dt / 2)
            diffs.append(np.max(np.abs(one.v - two.v)))
            assert abs(one.zeta - two.zeta) < dt ** 2
        # halving dt shrinks the mismatch at 2nd order (ratio ~4)
        assert diffs[0] / diffs[1] > 3.0

    def test_states_own_their_arrays(self, sol):
        # step writes every stage into the buffers of a per-run state, its
        # own when called alone: none of it may show up in, or write into,
        # a returned state
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64)
        st = step(init_from_background(sol, cfg), cfg)
        fields = ("v", "w", "phi")
        before = {name: getattr(st, name).copy() for name in fields}
        first, second = step(st, cfg), step(st, cfg)
        # through one shared per-run state, as run steps: two steps from st,
        # then one from the first of them
        ex = simulator._ExplicitRun(st.y, cfg)
        shared = [step(st, cfg, ex=ex), step(st, cfg, ex=ex)]
        shared.append(step(shared[0], cfg, ex=ex))
        for other in (second, *shared[:2]):
            for name in ("t", "sigma", "zeta", *fields):
                assert np.asarray(getattr(first, name)).tobytes() == \
                    np.asarray(getattr(other, name)).tobytes(), name
        for name in fields:
            assert getattr(st, name).tobytes() == before[name].tobytes(), name
        nxt = step(first, cfg)
        assert all(getattr(nxt, name).tobytes() == getattr(shared[2], name).tobytes()
                   for name in fields)
        for a, b in ((st, first), (first, second), (first, nxt), *zip(shared, shared[1:])):
            for name in fields:
                for other in fields:
                    assert not np.shares_memory(getattr(a, name), getattr(b, other)), (name, other)
        buffers = [x for x in vars(ex).values() if isinstance(x, np.ndarray)]
        assert buffers
        for a in shared:
            for name in fields:
                for buf in buffers:
                    assert not np.shares_memory(getattr(a, name), buf), name
        # nothing outlives a run: 64, 32, then 64 points again in one process
        runs = [run(SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=m, t_end=1.2), sol=sol)
                for m in (64, 32, 64)]
        arrays = [name for name, x in vars(runs[0]).items() if isinstance(x, np.ndarray)]
        assert len(arrays) == 8 and runs[0].steps > 0
        for name in arrays:
            assert getattr(runs[0], name).tobytes() == getattr(runs[2], name).tobytes(), name

    def test_bad_dt_rejected(self, sol, cfg0):
        st = init_from_background(sol, cfg0)
        with pytest.raises(SimulationError):
            step(st, cfg0, dt=-1.0)

    def test_shock_closure_raises_without_convergence(self, sol, cfg0, monkeypatch):
        # a NaN closure residual stays NaN on every Newton pass
        st = init_from_background(sol, cfg0)
        monkeypatch.setattr(simulator, "_closure_residual",
                            lambda v, w, slope, gas: (float("nan"), 1.0))
        with pytest.raises(SimulationError, match="did not converge: residual nan"):
            simulator._apply_bcs(st.t, st.v.copy(), st.w.copy(), cfg0, cfg0.dsigma(st.t))

    def test_shock_closure_raises_on_flat_derivative(self, sol, cfg0, monkeypatch):
        # with c = w the correction leaves v alone, and with zeta' = 0 the
        # residual v + zeta' w = v no longer depends on it: dg/da = 0
        st = init_from_background(sol, cfg0)
        monkeypatch.setattr(simulator, "_closure_residual",
                            lambda v, w, slope, gas: (v, 0.0))
        with pytest.raises(SimulationError, match="flat Newton derivative"):
            simulator._apply_bcs(st.t, st.v.copy(), st.w.copy(), cfg0, cfg0.dsigma(st.t))

    def test_vacuum_node_raises(self, sol, cfg0):
        # B0 - v - w^2/2 < 0 at one interior node: the CFL step and the
        # stage rates both validate every node
        st = init_from_background(sol, cfg0)
        st.v[len(st.v) // 2] = GAS.B0
        with pytest.raises(VacuumError):
            step(st, cfg0)
        with pytest.raises(VacuumError):
            step(st, cfg0, dt=1e-4)

    def test_nan_node_raises(self, sol, cfg0):
        # NaN compares false with every threshold, so the vacuum check must
        # be a negated "above threshold" test, or the NaN spreads silently
        st = init_from_background(sol, cfg0)
        st.v[len(st.v) // 2] = np.nan
        with pytest.raises(VacuumError):
            step(st, cfg0)
        with pytest.raises(VacuumError):
            step(st, cfg0, dt=1e-4)

    def test_shock_closure_raises_on_entropy_violation(self, sol, cfg0):
        # a shock state whose Bernoulli density is rho0 / 2
        st = init_from_background(sol, cfg0)
        v, w = st.v.copy(), st.w.copy()
        v[-1] = GAS.B0 - enthalpy(0.5 * GAS.rho0, GAS) - 0.5 * w[-1] ** 2
        with pytest.raises(SimulationError, match="entropy condition violated"):
            simulator._apply_bcs(st.t, v, w, cfg0, cfg0.dsigma(st.t))


# ---------------------------------------------------------------------------
# closed forms of the stepping hot path, cross-checked
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stepped_states():
    """(config, state) after 20 CFL steps of perturbed runs at gamma 1.4
    and 2."""
    out = []
    for gamma in (1.4, 2.0):
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        cfg = SimConfig(n=3, gas=gas, b0=B0, eps=0.01, grid_points=64)
        st = init_from_background(solve_background(B0, gas, n=3, grid_size=512), cfg)
        for _ in range(20):
            st = step(st, cfg)
        out.append((cfg, st))
    return out


class TestClosedForms:
    def test_closure_derivative_matches_central_difference(self, stepped_states):
        for cfg, st in stepped_states:
            gas = cfg.gas
            v1, w1 = float(st.v[-1]), float(st.w[-1])
            slope = w1 - float(np.sqrt((gas.gamma - 1.0) * _flow_bernoulli(v1, w1 * w1, gas)))

            def g(a):
                return simulator._closure_residual(v1 - slope * a, w1 + a, slope, gas)

            h = 1e-5 * max(1.0, abs(w1))
            for a in (-0.01 * abs(w1), 0.0, 0.01 * abs(w1)):
                fd = (g(a + h)[0] - g(a - h)[0]) / (2.0 * h)
                assert g(a)[1] == pytest.approx(fd, rel=1e-6)

    def test_sound_speed_identity(self, stepped_states):
        # c^2 = (gamma-1)(B0 - v - w^2/2) = A gamma rho^(gamma-1)
        for cfg, st in stepped_states:
            gas = cfg.gas
            closed = (gas.gamma - 1.0) * _flow_bernoulli(st.v, st.w ** 2, gas)
            rho = density_from_state(st.v, st.w ** 2, gas)
            np.testing.assert_allclose(closed, gas.A * gas.gamma * rho ** (gas.gamma - 1.0),
                                       rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

class TestRun:
    def test_self_similarity_preserved(self, res0):
        h = 1.0 / (res0.config.grid_points - 1)
        assert np.max(res0.zeta_dev) < 10.0 * h ** 2

    def test_refinement_order(self, sol, res0):
        cfg32 = SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=32, t_end=20.0)
        res32 = run(cfg32, sol=sol)
        order = np.log2(np.max(res32.zeta_dev) / np.max(res0.zeta_dev))
        assert order >= 1.5

    def test_residuals_small(self, res0):
        h = 1.0 / (res0.config.grid_points - 1)
        assert np.max(res0.rh_residual) < 1e-10
        assert np.max(res0.mass_residual[1:]) < h ** 2
        assert np.max(res0.phi_shock) < 1e-8
        assert np.min(res0.entropy_margin) > 0

    def test_perturbed_run_diagnostics(self, res_eps):
        assert res_eps.completed
        # the piston stays inside the background span
        assert res_eps.summary()["extrapolated_records"] == 0
        assert np.min(res_eps.entropy_margin) > 0
        mask = res_eps.t >= 5.0
        # deviation decays monotonically after the transient
        assert np.all(np.diff(res_eps.sup_dev[mask]) < 0)

    def test_shock_window_small_perturbation(self, sol):
        # for so small a perturbation the shock stays within the margin
        # b0^(-4/(gamma-1)) delta of the background shock: inside
        # [b0 t, (s0 + margin) t]
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=1e-4, grid_points=64, t_end=10.0)
        res = run(cfg, sol=sol)
        margin = B0 ** (-4.0 / (GAS.gamma - 1.0)) * sol.delta
        assert np.all(res.zeta / res.t >= B0)
        assert np.all(res.zeta / res.t <= sol.s0 + margin)

    def test_extrapolated_comparator_counted(self):
        # at b0 40 the stand-off (1.7e-5 t) is thinner than the piston
        # displacement eps/(1+t), so the piston runs ahead of the solved
        # span and sup_dev is measured against the linear extrapolation
        gas = GasParams(A=1.0, gamma=1.4, rho0=1.0)
        s40 = solve_background(40.0, gas, n=3, grid_size=256)
        cfg = SimConfig(n=3, gas=gas, b0=40.0, eps=0.01, grid_points=64, t_end=1.5)
        res = run(cfg, sol=s40)
        assert res.completed
        assert 0 < res.summary()["extrapolated_records"] <= len(res.t)

    def test_n2_short_run(self):
        gas = GasParams(A=1.0, gamma=2.0, rho0=1.0)
        s2 = solve_background(B0, gas, n=2, grid_size=256)
        cfg = SimConfig(n=2, gas=gas, b0=B0, eps=0.0, grid_points=48, t_end=5.0)
        res = run(cfg, sol=s2)
        assert res.completed
        assert np.max(res.zeta_dev) < 1e-4
        assert np.min(res.entropy_margin) > 0

    def test_explicit_run_builds_one_stepper_state(self, sol, monkeypatch):
        # the projection and every step of an explicit run share the one
        # per-run state that run builds
        built = []

        class Counted(simulator._ExplicitRun):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(simulator, "_ExplicitRun", Counted)
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=32, t_end=1.2)
        res = run(cfg, sol=sol)
        assert res.stepper == "explicit" and res.steps > 1
        assert len(built) == 1

    def test_wall_clock_budget_truncates(self, sol):
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=64, t_end=50.0)
        res = run(cfg, sol=sol, wall_clock_budget=0.2)
        assert not res.completed
        # the run keeps the projection it chose the stepper by
        assert res.projected_steps == projected_explicit_steps(
            init_from_background(sol, cfg), cfg)
        assert 0 < res.steps < res.projected_steps

    def test_csv_and_json_deterministic(self, sol, tmp_path, monkeypatch):
        # the explicit path, then the implicit one forced as in implicit_runs
        import json

        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=32, t_end=2.0)
        for stepper, threshold in (("explicit", simulator.IMPLICIT_STEP_THRESHOLD),
                                   ("implicit", 0.0)):
            monkeypatch.setattr(simulator, "IMPLICIT_STEP_THRESHOLD", threshold)
            paths = []
            for k in (0, 1):
                res = run(cfg, sol=sol)
                assert res.stepper == stepper
                p = tmp_path / f"{stepper}{k}.csv"
                _write_csv(p, {"t": res.t, "zeta": res.zeta, "sigma": res.sigma,
                               "sup_dev": res.sup_dev, "rh_residual": res.rh_residual,
                               "entropy_margin": res.entropy_margin})
                paths.append(p.read_bytes())
                _write_json(res.summary(), tmp_path / f"{stepper}{k}.json")
            assert paths[0] == paths[1]
            data = json.loads((tmp_path / f"{stepper}0.json").read_text())
            assert data["completed"] is True
            assert data["min_entropy_margin"] > 0


# ---------------------------------------------------------------------------
# implicit self-similar step, cross-checked against explicit RK4
# ---------------------------------------------------------------------------

def _dense(Ab, C, B, D):
    """The bordered matrix [[A, C], [B, D]] of _bordered_solve's arguments,
    with A assembled from its band storage Ab."""
    n = Ab.shape[1]
    lo, up = simulator._BANDS
    i, j = np.indices((n, n))
    band = (j - i <= up) & (i - j <= lo)
    A = np.zeros((n + 2, n + 2))
    A[:n, :n][band] = Ab[(up + i - j)[band], j[band]]
    A[:n, n:], A[n:, :n], A[n:, n:] = C, B, D
    return A


def _stepped(gamma, b0):
    """The implicit stepper on 32 points, n 3, eps 0.01, after two steps to
    t = 1.1."""
    gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
    cfg = SimConfig(n=3, gas=gas, b0=b0, eps=0.01, grid_points=32, t_end=2.0)
    stepper = simulator.SelfSimilarStepper(
        init_from_background(solve_background(b0, gas, n=3, grid_size=256), cfg), cfg)
    for t in (1.05, 1.1):
        stepper.step(t)
    return stepper


@pytest.fixture(scope="module")
def implicit_runs(sol, cfg0):
    """Cases explicit RK4 can reach, forced onto the implicit step: the
    unperturbed runs to t = 50 on 32 and 64 points, the perturbed run of
    res_eps and the unperturbed run of res0."""
    cases = {m: SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=m,
                          t_end=50.0) for m in (32, 64)}
    cases["eps"] = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64,
                             t_end=50.0)
    cases["cfg0"] = cfg0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "IMPLICIT_STEP_THRESHOLD", 0.0)
        return {key: run(cfg, sol=sol) for key, cfg in cases.items()}


class TestImplicitStep:
    def test_stepper_selection(self, sol, cfg0, res0, implicit_runs):
        # the resolved reference case stays explicit, ~7e3 CFL steps
        assert res0.stepper == "explicit"
        assert projected_explicit_steps(init_from_background(sol, cfg0), cfg0) < 1e4
        for res in implicit_runs.values():
            assert res.stepper == "implicit"
            assert res.completed

    def test_shock_position_error_bounded(self, implicit_runs):
        for m in (32, 64):
            assert np.max(implicit_runs[m].zeta_dev) <= 10.0 / m ** 2

    def test_refinement_order(self, implicit_runs):
        e32 = np.max(implicit_runs[32].zeta_dev)
        e64 = np.max(implicit_runs[64].zeta_dev)
        assert np.log2(e32 / e64) >= 1.5

    def test_jump_and_mass_residuals(self, implicit_runs):
        for m in (32, 64):
            res = implicit_runs[m]
            assert np.max(res.rh_residual) < 1e-10
            assert np.max(res.mass_residual[1:]) < (1.0 / m) ** 2
            assert np.min(res.entropy_margin) > 0.0

    def test_shock_position_matches_explicit(self, res0, implicit_runs):
        # both schemes settle on the same discrete self-similar state
        assert np.max(implicit_runs["cfg0"].zeta_dev) == pytest.approx(
            np.max(res0.zeta_dev), rel=1e-4)

    def test_decay_exponent_matches_explicit(self, res_eps, implicit_runs):
        explicit = fit_decay(res_eps.t, res_eps.sup_dev, window=(5.0, 50.0))
        res = implicit_runs["eps"]
        implicit = fit_decay(res.t, res.sup_dev, window=(5.0, 50.0))
        assert abs(implicit.m0_est - explicit.m0_est) <= 0.05

    @pytest.mark.parametrize("gamma, b0", [(2.0, 4.0), (1.4, 40.0)])
    def test_jacobian_matches_finite_differences(self, gamma, b0):
        # every column of J, node block and border alike, against centred
        # differences of F; an inexact J passes the run tests above and
        # only slows Newton.  (1.4, 40) is the thin layer of the pinned case
        stepper = _stepped(gamma, b0)
        x, op, cfg = stepper.x, stepper.op, stepper.op.config
        a = op.weights(x)
        J = _dense(*op(1.1, x, a)[1])
        # steps relative to each unknown; q relative to zeta', as in Newton
        scale = np.abs(x)
        scale[-1] = abs(cfg.dsigma(1.1) + x[-1])
        for col in range(len(x)):
            h = 1e-6 * scale[col]
            e = np.zeros_like(x)
            e[col] = h
            fd = (op(1.1, x + e, a)[0] - op(1.1, x - e, a)[0]) / (2 * h)
            assert np.max(np.abs(J[:, col] - fd)) <= 1e-6 * np.max(np.abs(J[:, col])), col

    def test_wall_clock_budget_truncates(self, sol, monkeypatch):
        # a zero budget stops the implicit path after its first output
        monkeypatch.setattr(simulator, "IMPLICIT_STEP_THRESHOLD", 0.0)
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=32, t_end=10.0)
        res = run(cfg, sol=sol, wall_clock_budget=0.0)
        assert res.stepper == "implicit"
        assert res.completed is False
        assert len(res.t) >= 2
        assert res.t[-1] < cfg.t_end
        # the projection is the number of implicit step targets: sub
        # steps per output interval
        n_out = int(np.log10(cfg.t_end / cfg.t0) * simulator.OUTPUTS_PER_DECADE)
        sub = np.ceil(np.log(cfg.t_end / cfg.t0) / (n_out - 1) / simulator.IMPLICIT_MAX_DTAU)
        assert res.projected_steps == sub * (n_out - 1)
        assert res.steps < res.projected_steps


class TestSelfSimilarState:
    """The operator and the bordered solve of the implicit step, used
    without a time step."""

    @pytest.mark.parametrize("k", [None, 0.02], ids=["J", "M-kJ"])
    def test_bordered_solve_matches_dense(self, k):
        # the fixed-point matrix J and a step's M - k J of the thin layer,
        # on F and on a random right-hand side
        stepper = _stepped(1.4, 40.0)
        x, op = stepper.x, stepper.op
        a = op.weights(x)
        F, (Jb, C, B, D) = op(1.1, x, a)
        if k is not None:
            Mb, Mc = op.mass(a)
            Jb, C, B, D = Mb - k * Jb, -k * C, -k * B, Mc - k * D
        A = _dense(Jb, C, B, D)
        eps = np.finfo(float).eps
        # a backward-stable solve leaves a relative error up to about
        # cond(A) eps (here about 5e-4) and a residual of a few eps times
        # |A| |x|; 10 n eps allows the growth of elimination on n unknowns
        forward_tol = np.linalg.cond(A) * eps
        for r in (F, np.random.default_rng(5).standard_normal(len(F))):
            got = simulator._bordered_solve(Jb, C, B, D, r)
            ref = np.linalg.solve(A, r)
            assert np.max(np.abs(got - ref)) <= forward_tol * np.max(np.abs(ref))
            backward = np.max(np.abs(A @ got - r)) / (np.max(np.abs(A)) * np.max(np.abs(got)))
            assert backward <= 10 * len(r) * eps

    @pytest.mark.parametrize("gamma, b0", [(2.0, 4.0), (1.4, 10.0)])
    def test_second_order_consistent_with_shooting(self, gamma, b0):
        # At eps 0 the system is autonomous in tau and its fixed point
        # F(x) = 0 is the simulator's own self-similar state.  Newton on F
        # with M dropped and the weights a frozen at the initial state, as
        # a step freezes them, reaches it from init_from_background.  Its
        # layer width ell tends to the shooting stand-off delta with the
        # centred stencil's order 2: ell/delta - 1 falls 4.00-4.03 times
        # per doubling of m (1.49e-5 -> 9.25e-7 at gamma 2, b0 4 and
        # 1.40e-9 -> 8.66e-11 at gamma 1.4, b0 10 on m 32 -> 128).  The band
        # [3.5, 4.5] admits that and the rounding of ell, a few 1e-13
        # relative, but not order 1 (ratio 2) or order 3 (ratio 8).
        gas = GasParams(A=1.0, gamma=gamma, rho0=1.0)
        sol = solve_background(b0, gas, n=3, grid_size=512)
        errors = []
        for m in (32, 64, 128):
            cfg = SimConfig(n=3, gas=gas, b0=b0, grid_points=m)
            stepper = simulator.SelfSimilarStepper(init_from_background(sol, cfg), cfg)
            x, op = stepper.x, stepper.op
            a = op.weights(x)
            for _ in range(6):
                F, blocks = op(cfg.t0, x, a)
                dx = simulator._bordered_solve(*blocks, F)
                x = x - dx
            # converged: the last update is at rounding level, which for
            # ell is a few 1e-13 relative
            assert np.max(np.abs(dx[:-2])) <= 1e-14 * np.max(np.abs(x[:-2]))
            assert abs(dx[-2]) <= 1e-12 * x[-2]
            errors.append(x[-2] / sol.delta - 1.0)
        assert errors[0] > 0.0
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (errors, ratios)


# ---------------------------------------------------------------------------
# modified background
# ---------------------------------------------------------------------------

class TestBackgroundSampler:
    def test_reproduces_nodes(self, sol):
        u, phi = BackgroundSampler(sol)(sol.s)
        np.testing.assert_allclose(u, sol.u, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(phi, sol.phi, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(sol.phi)))

    @pytest.mark.parametrize("end, side", [(0, -1.0), (-1, 1.0)])
    def test_linear_extrapolation(self, sol, end, side):
        # outside [b0, s0] both columns continue the end value along the
        # end slopes: u' for u and u for phi (phi' = u)
        sampler = BackgroundSampler(sol)
        s_end, h = sol.b0 + sol.s_off[end], 0.1 * sol.delta
        (u0, u1, u2), (p0, p1, p2) = sampler(s_end + side * np.array([0.0, h, 2 * h]))
        assert 2 * u1 - u2 == pytest.approx(u0, rel=1e-10)
        assert 2 * p1 - p2 == pytest.approx(p0, rel=1e-10, abs=1e-10 * abs(sol.phi[0]))
        assert side * (u2 - u1) / h == pytest.approx(sol.du[end], rel=1e-10)
        assert side * (p2 - p1) / h == pytest.approx(sol.u[end], rel=1e-10)

    def test_extrapolates_exactly_outside_span(self, sol):
        sampler = BackgroundSampler(sol)
        h = 0.1 * sol.delta
        probes = np.concatenate([
            sol.s, [sol.b0 - h, sol.s0 + h, np.nextafter(sol.b0, -np.inf),
                    np.nextafter(sol.s0, np.inf), np.nextafter(sol.s0, -np.inf)]])
        x = probes - sol.b0
        outside = (x < 0.0) | (x > sol.delta)
        assert outside.sum() >= 3
        assert [sampler.extrapolates(s) for s in probes] == list(outside)


class TestModifiedBackground:
    def test_identity_at_zero_amplitude(self, sol):
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.0, grid_points=64)
        mb = modified_background(sol, cfg)
        r = np.linspace(cfg.sigma(3.0), 3.0 * sol.s0, 40)
        # the correction factor f_a = E(t) (r - sigma(t))
        assert np.all(mb.E(3.0) * (r - cfg.sigma(3.0)) == 0.0)
        assert np.all(mb.E(np.array([1.0, 5.0, 50.0])) == 0.0)

    def test_piston_condition_residual(self, sol):
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64)
        mb = modified_background(sol, cfg)
        worst = max(mb.piston_residual(t) for t in np.linspace(1.0, 100.0, 120))
        assert worst < 1e-8

    def test_decay_envelope(self, sol):
        # t |f_a| / eps stays bounded on t in [1, 100] at mid-layer
        cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=0.01, grid_points=64)
        mb = modified_background(sol, cfg)
        ts = np.linspace(1.0, 100.0, 200)
        mid = [0.5 * (cfg.sigma(t) + sol.s0 * t) for t in ts]
        vals = [abs(float(mb.E(t) * (r - cfg.sigma(t)))) * t / cfg.eps for t, r in zip(ts, mid)]
        assert max(vals) < 10.0

    def test_amplitude_linear_in_eps(self, sol):
        vals = []
        for eps in (1e-3, 2e-3):
            cfg = SimConfig(n=3, gas=GAS, b0=B0, eps=eps, grid_points=64)
            mb = modified_background(sol, cfg)
            vals.append(float(mb.E(2.0)))
        assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-2)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

class TestFitDecay:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 100.0, 200)
        fit = fit_decay(t, 3.0 * (1 + t) ** -1.0, window=(2.0, None))
        assert fit.m0_est == pytest.approx(1.0, abs=0.01)
        assert fit.residual < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(11)
        t = np.geomspace(1.0, 100.0, 400)
        dev = 2.0 * (1 + t) ** -1.3 * (1.0 + 0.01 * rng.standard_normal(len(t)))
        fit = fit_decay(t, dev, window=(2.0, None))
        assert fit.m0_est == pytest.approx(1.3, abs=0.05)

    def test_nonpositive_rejected(self):
        t = np.geomspace(1.0, 100.0, 50)
        dev = (1 + t) ** -1.0
        dev[30] = 0.0
        with pytest.raises(ValueError):
            fit_decay(t, dev, window=(2.0, None))

    def test_short_window_rejected(self):
        t = np.linspace(5.0, 6.0, 50)
        with pytest.raises(ValueError):
            fit_decay(t, (1 + t) ** -1.0, window=(5.0, 6.0))

    def test_floor_exclusion(self):
        t = np.geomspace(1.0, 100.0, 200)
        dev = np.maximum((1 + t) ** -1.0, 5e-2)
        fit = fit_decay(t, dev, window=(2.0, None), floor=6e-2)
        assert fit.m0_est == pytest.approx(1.0, abs=0.05)

    def test_simulated_decay_rate(self, res_eps):
        fit = fit_decay(res_eps.t, res_eps.sup_dev, window=(5.0, 50.0))
        assert fit.m0_est >= 0.5
        assert isinstance(fit, DecayFit)
