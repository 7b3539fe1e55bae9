"""Command-line front end: exit codes, artifacts, determinism."""

import csv
import dataclasses
import hashlib
import json
import re
from importlib import import_module

import numpy as np
import pytest
from click.testing import CliRunner

from conicshock import cli
from conicshock.background import solve_background
from conicshock.cli import COMPUTATION_ERRORS, main
from conicshock.gas import GasParams
from conicshock.simulator import SimConfig, init_from_background, projected_explicit_steps


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# ---------------------------------------------------------------------------
# background
# ---------------------------------------------------------------------------

class TestBackground:
    def test_writes_profile_and_summary(self, runner, tmp_path):
        res = _invoke(runner, ["background", "--b0", "40", "--gamma", "1.4",
                               "--n", "3", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        csv_path = tmp_path / "background_b40_g1.4_n3.csv"
        json_path = tmp_path / "background_b40_g1.4_n3.json"
        assert csv_path.exists() and json_path.exists()
        summary = json.loads(json_path.read_text())
        assert summary["b0"] == 40.0
        assert summary["s0"] > 40.0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "rho", "u", "phi"]
        # round-trip floats: first velocity sample equals the piston speed
        assert abs(float(rows[1][2]) - 40.0) <= 1e-9 * 40.0

    def test_gamma_out_of_range_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["background", "--b0", "40", "--gamma",
                                   "3.5", "--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert "gamma" in res.output

    def test_subsonic_piston_is_computation_failure(self, runner, tmp_path):
        res = runner.invoke(main, ["background", "--b0", "0.1", "--gamma",
                                   "1.4", "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert "bracket" in res.output

    def test_bad_dimension_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["background", "--b0", "40", "--n", "5",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_missing_b0_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["background", "--output-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_config_file_supplies_parameters(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b0 = 20\ngamma = 1.4\nn = 3  # dimension\n"
                       f"output_dir = {tmp_path}\n")
        res = _invoke(runner, ["background", "--config", str(cfg)])
        assert res.exit_code == 0
        assert (tmp_path / "background_b20_g1.4_n3.csv").exists()

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"b0 = 20\noutput_dir = {tmp_path}\n")
        res = _invoke(runner, ["background", "--config", str(cfg),
                               "--b0", "10"])
        assert res.exit_code == 0
        assert (tmp_path / "background_b10_g1.4_n3.csv").exists()

    def test_malformed_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no separator\n")
        res = runner.invoke(main, ["background", "--config", str(cfg)])
        assert res.exit_code == 2

    def test_manifest_hashes_artifacts(self, runner, tmp_path):
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "background"
        assert manifest["params"]["b0"] == 40.0
        assert manifest["version"]
        for name, digest in manifest["artifacts"].items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_env_var_overrides_output_dir(self, runner, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("CONICSHOCK_OUTPUT_DIR", str(envdir))
        res = _invoke(runner, ["background", "--b0", "40",
                               "--output-dir", str(tmp_path / "ignored")])
        assert res.exit_code == 0
        assert (envdir / "background_b40_g1.4_n3.csv").exists()
        assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# manifests of config-file runs
# ---------------------------------------------------------------------------

GAS_KEYS = {"gamma", "A", "rho0", "n"}

CONFIG_RUNS = {
    "background": ("b0 = 20\n", [], {"b0", "grid_size"}),
    "verify": ("gamma = 1.4\n", ["--suite", "ellipticity", "--b0", "40"],
               {"b0_list", "suites"}),
    "certify": ("n = 3\nb0 = 80\nmu = auto\n", [],
                {"b0", "mu", "grid_size"}),
    "simulate": ("b0 = 4\ngamma = 2.0\ngrid_points = 32\nt_end = 3\n", [],
                 {"b0", "eps", "grid_points", "cfl", "t_end", "t0", "budget"}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_config_run_manifest(runner, tmp_path, command):
    text, args, keys = CONFIG_RUNS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    res = _invoke(runner, [command, "--config", str(cfg),
                           "--output-dir", str(out)] + args)
    assert res.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["params"]) == GAS_KEYS | keys
    assert manifest["inputs"] == [str(cfg)]
    assert manifest["artifacts"]
    for name, digest in manifest["artifacts"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_default_sweep_passes(self, runner, tmp_path):
        res = _invoke(runner, ["verify", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert report["b0_list"] == [10.0, 20.0, 40.0, 80.0]
        assert set(report["results"]) == {
            "asymptotics", "ellipticity", "profile", "boundary", "stability"}

    def test_suite_filter(self, runner, tmp_path):
        res = _invoke(runner, ["verify", "--suite", "ellipticity",
                               "--b0", "40", "--b0", "80",
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert list(report["results"]) == ["ellipticity"]

    def test_ellipticity_counts_every_b0(self, runner, tmp_path, monkeypatch):
        args = ["verify", "--suite", "ellipticity", "--b0", "4", "--b0", "20",
                "--output-dir", str(tmp_path)]
        res = _invoke(runner, args)
        assert res.exit_code == 0
        suite = json.loads((tmp_path / "verify_report.json").read_text())["results"]["ellipticity"]
        assert suite["passed"] is True
        assert {k: v["passed"] for k, v in suite["per_b0"].items()} == {"4": True, "20": True}
        # a failure below b0 = 40 fails the suite
        check = cli.check_ellipticity
        monkeypatch.setattr(cli, "check_ellipticity", lambda ph: dataclasses.replace(
            check(ph), passed=ph.b0 != 4.0))
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "ellipticity: FAIL" in res.output

    @pytest.mark.parametrize("b0s", [["40"], ["40", "40"]])
    def test_asymptotics_needs_two_distinct_b0(self, runner, tmp_path, monkeypatch, b0s):
        # rejected before any solve, whether asymptotics is named or defaulted
        monkeypatch.setattr("conicshock.cli.solve_background", None)
        for suites in ([], ["--suite", "asymptotics", "--suite", "profile"]):
            args = ["verify", *suites, *[a for b0 in b0s for a in ("--b0", b0)]]
            res = runner.invoke(main, args + ["--output-dir", str(tmp_path)])
            assert res.exit_code == 2
            assert "--b0" in res.output and "two or more distinct" in res.output
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("b0s, message", [
        (["40", "40.0000001", "80"], "--b0: 40.0 and 40.0000001 would share the report key 40"),
        (["40", "80", "40.0"], "--b0: 40.0 is given twice"),
    ])
    def test_b0_that_report_alike_is_usage_error(self, runner, tmp_path, monkeypatch,
                                                 b0s, message):
        # every suite keys its per-b0 entries by f"{b0:g}": two distinct
        # speeds that print alike would leave one entry for both, and a
        # repeated speed fails the asymptotics suite's strict monotonicity
        monkeypatch.setattr("conicshock.cli.solve_background", None)
        args = ["verify", *[a for b0 in b0s for a in ("--b0", b0)]]
        res = runner.invoke(main, args + ["--output-dir", str(tmp_path)])
        assert res.exit_code == 2
        assert message in res.output
        assert not (tmp_path / "verify_report.json").exists()

    def test_one_coefficient_evaluation_per_stencil(self, runner, tmp_path, monkeypatch):
        # per profile: the shared set at its own states (ellipticity and
        # stability) and the two stacked neighbours of the boundary suite;
        # counted through the module binding the benchmark tracer swaps
        from conicshock import hodograph
        calls = []
        inner = hodograph.second_order_coeffs

        def counted(*args, **kw):
            calls.append(np.size(args[0].psi))
            return inner(*args, **kw)

        monkeypatch.setattr(hodograph, "second_order_coeffs", counted)
        res = _invoke(runner, ["verify", "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert len(calls) == 8
        assert sorted(calls) == [129] * 4 + [2 * 129] * 4

    @pytest.mark.parametrize("suites, straightened", [
        (["--suite", "profile", "--suite", "asymptotics"], 0),
        ([], 4),
    ])
    def test_profiles_straightened_once_when_asked(self, runner, tmp_path, monkeypatch,
                                                   suites, straightened):
        # counted through the module binding the benchmark tracer swaps
        from conicshock import hodograph
        calls = []
        inner = hodograph.psi_hat_from_background

        def counted(sol, *args, **kw):
            calls.append(sol.b0)
            return inner(sol, *args, **kw)

        monkeypatch.setattr(hodograph, "psi_hat_from_background", counted)
        res = _invoke(runner, ["verify", *suites, "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert len(calls) == straightened
        assert len(set(calls)) == straightened

    def test_suites_run_in_table_order(self, runner, tmp_path, monkeypatch):
        ran = []

        def logged(name):
            inner = getattr(cli, name)

            def call(arg):
                ran.append(name)
                return inner(arg)
            return call

        for name in ("asymptotic_report", "local_stability"):
            monkeypatch.setattr(cli, name, logged(name))
        res = _invoke(runner, ["verify", "--suite", "stability", "--suite", "asymptotics",
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert ran == ["asymptotic_report"] + ["local_stability"] * 4
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert set(report["results"]) == {"asymptotics", "stability"}
        assert list(cli.SUITES) == ["asymptotics", "ellipticity", "profile",
                                    "boundary", "stability"]

    @pytest.mark.parametrize("option", [["--b0", "40"], ["--suite", "ellipticity"]])
    def test_profile_takes_no_b0_or_suite(self, runner, tmp_path, option):
        _invoke(runner, ["background", "--b0", "40", "--output-dir", str(tmp_path)])
        out = tmp_path / "out"
        res = runner.invoke(main, ["verify", "--profile",
                                   str(tmp_path / "background_b40_g1.4_n3.csv"),
                                   *option, "--output-dir", str(out)])
        assert res.exit_code == 2
        assert "--profile checks one file and takes no --b0 or --suite" in res.output
        assert not (out / "verify_report.json").exists()

    def test_unknown_suite_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--suite", "nonsense",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_valid_profile_file_passes(self, runner, tmp_path):
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        res = _invoke(runner, ["verify", "--profile",
                               str(tmp_path / "background_b40_g1.4_n3.csv"),
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0

    def test_profile_report_independent_of_location(self, runner, tmp_path):
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        name = "background_b40_g1.4_n3.csv"
        data = (tmp_path / name).read_bytes()
        reports = []
        for where in ("a", "b/c"):
            (tmp_path / where).mkdir(parents=True)
            (tmp_path / where / name).write_bytes(data)
            out = tmp_path / where / "out"
            res = _invoke(runner, ["verify", "--profile", str(tmp_path / where / name),
                                   "--output-dir", str(out)])
            assert res.exit_code == 0
            reports.append((out / "verify_report.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["profile_file"] == name
        assert report["profile_sha256"] == hashlib.sha256(data).hexdigest()

    def test_profile_report_names_no_sweep(self, runner, tmp_path):
        # --profile checks one file: the sweep's speeds and suites are not
        # run, so neither the report nor the manifest names them
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        res = _invoke(runner, ["verify", "--profile",
                               str(tmp_path / "background_b40_g1.4_n3.csv"),
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["params"]) == GAS_KEYS
        assert set(report) == GAS_KEYS | {"profile_file", "profile_sha256",
                                          "results", "passed"}
        assert set(report["results"]) == {"profile"}

    def test_unresolved_sample_spacing_fails(self, runner, tmp_path):
        # at gamma 1.2, b0 80 the stand-off is 6.1e-13, about 43 ulp of b0:
        # the ODE residual is 1.2e-3, above the 1e-4 bound
        res = runner.invoke(main, ["verify", "--suite", "profile", "--gamma", "1.2",
                                   "--b0", "80", "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        checks = report["results"]["profile"]["per_b0"]["80"]["checks"]
        assert checks["ode_residual_small"] is False

    def test_corrupted_profile_fails(self, runner, tmp_path):
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        src = tmp_path / "background_b40_g1.4_n3.csv"
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[100][1] = "nan"
        rows[300][2] = "nan"
        bad = tmp_path / "corrupt.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        res = runner.invoke(main, ["verify", "--profile", str(bad),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["results"]["profile"]["passed"] is False

    def test_shuffled_profile_fails(self, runner, tmp_path):
        _invoke(runner, ["background", "--b0", "40",
                         "--output-dir", str(tmp_path)])
        src = tmp_path / "background_b40_g1.4_n3.csv"
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
        rng = np.random.default_rng(3)
        body = rows[1:]
        rng.shuffle(body)
        bad = tmp_path / "shuffled.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + body)
        res = runner.invoke(main, ["verify", "--profile", str(bad),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 1

    def test_coinciding_samples_are_a_clean_failure(self, runner, tmp_path):
        # the stand-off 6.1e-13 at gamma 1.2, b0 80 is about 43 ulp of b0,
        # so 2048 samples of s = b0 + (s - b0) repeat values
        _invoke(runner, ["background", "--b0", "80", "--gamma", "1.2",
                         "--output-dir", str(tmp_path)])
        path = tmp_path / "background_b80_g1.2_n3.csv"
        res = _invoke(runner, ["verify", "--profile", str(path),
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert f"{path}: profile samples coincide in s" in res.output
        assert "Traceback" not in res.output

    def test_missing_profile_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--profile",
                                   str(tmp_path / "nope.csv"),
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class TestCertify:
    def test_passing_certificate(self, runner, tmp_path):
        res = _invoke(runner, ["certify", "--n", "3", "--gamma", "1.4",
                               "--b0", "80", "--mu", "-2.5",
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        cert = json.loads(
            (tmp_path / "certificate_n3_g1.4_b80.json").read_text())
        assert cert["status"] == "pass"
        assert cert["mu"] == -2.5

    def test_failing_certificate_names_condition(self, runner, tmp_path):
        res = runner.invoke(main, ["certify", "--n", "3", "--gamma", "1.4",
                                   "--b0", "80", "--mu", "-2.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert "admissible window" in res.output
        cert = json.loads(
            (tmp_path / "certificate_n3_g1.4_b80.json").read_text())
        assert cert["status"] == "fail"

    def test_mu_outside_window_fails_below_asymptotic_regime(self, runner, tmp_path):
        # the mu-window is a closed form that does not depend on b0, so
        # b0 < 40 does not excuse a mu outside it
        res = runner.invoke(main, ["certify", "--n", "3", "--gamma", "1.4",
                                   "--b0", "20", "--mu", "-2.0",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert "admissible window" in res.output
        cert = json.loads(
            (tmp_path / "certificate_n3_g1.4_b20.json").read_text())
        assert cert["status"] == "fail"
        assert not cert["in_asymptotic_regime"]

    def test_mu_auto_uses_window_midpoint(self, runner, tmp_path):
        res = _invoke(runner, ["certify", "--n", "3", "--gamma", "1.4",
                               "--b0", "80", "--mu", "auto",
                               "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        cert = json.loads(
            (tmp_path / "certificate_n3_g1.4_b80.json").read_text())
        lo, hi = cert["mu_window"]
        assert cert["mu"] == pytest.approx((lo + hi) / 2.0)
        assert cert["status"] == "pass"

    def test_non_numeric_mu_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["certify", "--n", "3", "--b0", "80",
                                   "--mu", "bogus",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_missing_b0_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["certify", "--n", "3",
                                   "--output-dir", str(tmp_path)])
        assert res.exit_code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_ARGS = ["simulate", "--n", "3", "--gamma", "2.0", "--b0", "4",
            "--grid-points", "32"]


class TestSimulate:
    def test_smoke_run(self, runner, tmp_path):
        res = _invoke(runner, SIM_ARGS + ["--eps", "0", "--t-end", "10",
                                          "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        summary = json.loads((tmp_path / "simulation.json").read_text())
        assert summary["completed"] is True
        # unperturbed run: deviation stays at the discretization floor
        assert summary["max_zeta_dev"] < 10.0 / 32 ** 2
        assert "wall_clock" not in summary  # timing lives in the manifest
        with open(tmp_path / "simulation.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "zeta", "sigma", "sup_dev", "rh_residual",
                          "entropy_margin"]

    def test_perturbed_run_emits_decay_fit(self, runner, tmp_path):
        res = _invoke(runner, SIM_ARGS + ["--eps", "0.01", "--t-end", "20",
                                          "--output-dir", str(tmp_path)])
        assert res.exit_code == 0
        fit = json.loads((tmp_path / "decay_fit.json").read_text())
        assert fit["m0_est"] > 0.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "decay_fit.json" in manifest["artifacts"]

    def test_missing_config_file(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--config",
                                   str(tmp_path / "missing.cfg")])
        assert res.exit_code == 2

    def test_config_file_run(self, runner, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 3\ngamma = 2.0\nb0 = 4\neps = 0\n"
                       "grid_points = 32\nt_end = 3\n"
                       f"output_dir = {tmp_path}\n")
        res = _invoke(runner, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 0
        assert (tmp_path / "simulation.csv").exists()

    def test_invalid_cfl_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, SIM_ARGS + ["--cfl", "1.5",
                                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 2

    def test_budget_truncation_is_failure(self, runner, tmp_path):
        res = runner.invoke(main, SIM_ARGS + ["--eps", "0", "--t-end", "50",
                                              "--budget", "0.05",
                                              "--output-dir", str(tmp_path)])
        assert res.exit_code == 1
        assert "truncated" in res.output
        # it says how far the run got and what it would have needed: the
        # explicit steps projected from the initial state
        got = re.search(r"after (\d+) of about (\d+) projected steps", res.output)
        assert got, res.output
        gas = GasParams(gamma=2.0)
        cfg = SimConfig(n=3, gas=gas, b0=4.0, grid_points=32, t_end=50.0)
        sol = solve_background(4.0, gas, n=3, grid_size=512)
        projected = projected_explicit_steps(init_from_background(sol, cfg), cfg)
        assert got[2] == f"{projected:.0f}"
        assert int(got[1]) < projected

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = SIM_ARGS + ["--eps", "0", "--t-end", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _invoke(runner, args + ["--output-dir", str(out1)])
        _invoke(runner, args + ["--output-dir", str(out2)])
        for name in ("simulation.csv", "simulation.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

NON_FINITE = {
    "background A": (["background", "--b0", "40", "--A", "nan"], "--A"),
    "background b0": (["background", "--b0", "nan"], "--b0"),
    "background rho0": (["background", "--b0", "40", "--rho0", "inf"], "--rho0"),
    "verify b0": (["verify", "--suite", "profile", "--b0", "40", "--b0", "nan"], "--b0"),
    "certify mu": (["certify", "--n", "3", "--b0", "80", "--mu", "nan"], "--mu"),
    "simulate eps": (SIM_ARGS + ["--eps", "nan", "--t-end", "3"], "--eps"),
    "simulate t_end": (SIM_ARGS + ["--t-end", "nan"], "--t-end"),
    "simulate budget": (SIM_ARGS + ["--t-end", "3", "--budget", "nan"], "--budget"),
}


OUT_OF_RANGE = {
    "background grid_size": (["background", "--b0", "40", "--grid-size", "1"],
                             "--grid-size must be at least 5"),
    "certify grid_size": (["certify", "--b0", "80", "--grid-size", "2"],
                          "--grid-size must be at least 5"),
    "simulate t0 zero": (SIM_ARGS + ["--t0", "0", "--t-end", "1"], "t0 must be positive"),
    "simulate t0 negative": (SIM_ARGS + ["--t0", "-1", "--t-end", "1"], "t0 must be positive"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_option_is_usage_error(runner, tmp_path, case):
    args, message = OUT_OF_RANGE[case]
    res = runner.invoke(main, args + ["--output-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_option_is_usage_error(runner, tmp_path, case):
    args, option = NON_FINITE[case]
    res = runner.invoke(main, args + ["--output-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert f"{option} must be finite" in res.output


def test_non_finite_config_value_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("b0 = 4\ngamma = 2.0\nt_end = inf\n")
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--output-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert "--t-end must be finite" in res.output


# ---------------------------------------------------------------------------
# computation errors
# ---------------------------------------------------------------------------

def test_every_error_class_is_a_computation_error():
    # an error class outside COMPUTATION_ERRORS would reach the user as a
    # traceback instead of a one-line message and exit 1
    errors = {}
    for module in ("_numerics", "gas", "background", "hodograph", "certificates",
                   "simulator"):
        name = f"conicshock.{module}"
        errors.update((obj.__name__, obj) for obj in vars(import_module(name)).values()
                      if isinstance(obj, type) and issubclass(obj, Exception)
                      and obj.__module__ == name)
    assert {"ConvergenceError", "VacuumError", "BracketError", "SimulationError",
            "DegenerateShockError"} <= set(errors)
    assert [name for name, e in errors.items()
            if not issubclass(e, COMPUTATION_ERRORS)] == []
