"""Batch front end for the shock laboratory.

Subcommands drive the background solver, the verification suites, the
multiplier certificates, and the free-boundary simulator from command-line
flags or a key-value config file, and emit machine-readable CSV/JSON
artifacts plus a run manifest with content hashes.

Exit codes: 0 on success, 1 on computation failure (solver breakdown,
failed verification, failed certificate), 2 on usage or configuration
errors, a NaN or infinite float parameter among them.  All floating-point
output uses shortest round-trip formatting, so repeated runs with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, hodograph
from .gas import GasParams, VacuumError, _csq_at
from .background import (
    BracketError,
    ConvergenceError,
    DenominatorSignError,
    SelfSimilarSolution,
    ShootingError,
    asymptotic_report,
    check_grid_size,
    check_n,
    ode_residual,
    solve_background,
)
from .hodograph import boundary_signs, check_ellipticity, local_stability
from .certificates import DegenerateShockError, admissible_mu, certify
from .simulator import SimConfig, SimulationError, fit_decay, run as sim_run

__all__ = ["main"]

#: environment variable overriding the output directory
OUTPUT_DIR_ENV = "CONICSHOCK_OUTPUT_DIR"

#: errors that mean "the computation failed", not "the request was malformed"
COMPUTATION_ERRORS = (
    BracketError,
    ShootingError,
    ConvergenceError,
    DenominatorSignError,
    VacuumError,
    SimulationError,
    DegenerateShockError,
)


# ---------------------------------------------------------------------------
# config files, output locations, artifacts
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    cfg = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(cli_value, cfg: dict, key: str, cast, default):
    """Flag > config file > built-in default."""
    if cli_value is not None:
        return cli_value
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise click.UsageError(f"config key {key!r}: {exc}")
    return default


def _output_dir(cli_value, cfg: dict) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    raw = env or cli_value or cfg.get("output_dir") or "."
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _write_csv(path: Path, columns: dict) -> None:
    """Header of column names, then one row per sample."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(columns.keys())
        for row in zip(*columns.values()):
            wr.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# command skeleton
# ---------------------------------------------------------------------------

#: options that are not floats; every other option is cast with float
_CASTS = {"n": int, "grid_size": int, "grid_points": int, "mu": str}


def _common_options(fn):
    """Gas, dimension, config file and output directory: every command."""
    for option in reversed((
        click.option("--gamma", type=float, default=None, help="Adiabatic exponent."),
        click.option("--A", "A", type=float, default=None, help="Pressure coefficient."),
        click.option("--rho0", type=float, default=None, help="Ambient density."),
        click.option("--n", type=int, default=None, help="Space dimension (2 or 3)."),
        click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False), default=None,
                     help="Key-value config file; flags override its entries."),
        click.option("--output-dir", default=None,
                     help=f"Artifact directory (overridden by ${OUTPUT_DIR_ENV})."),
    )):
        fn = option(fn)
    return fn


def _check_finite(option: str, *values: float) -> None:
    """Raise UsageError naming the option if a value is NaN or infinite."""
    for value in values:
        if not math.isfinite(value):
            raise click.UsageError(f"{option} must be finite, got {value!r}")


def _setup(config_path, output_dir, gamma, A, rho0, n, **flags):
    """Shared set-up of a command.

    Each keyword of ``flags`` is a (flag value, default) pair; it and the
    gas and dimension options resolve as flag > config file > default.
    Every float must be finite.  A command that takes a single ``b0``
    requires it.  Returns the resolved parameters, the gas, the output
    directory (created) and the input files.
    """
    cfg = _load_config(config_path) if config_path else {}
    flags.update(gamma=(gamma, 1.4), A=(A, 1.0), rho0=(rho0, 1.0), n=(n, 3))
    params = {key: _resolve(value, cfg, key, _CASTS.get(key, float), default)
              for key, (value, default) in flags.items()}
    for key, value in params.items():
        if isinstance(value, float):
            _check_finite("--" + key.replace("_", "-"), value)
    if "b0" in params and params["b0"] is None:
        raise click.UsageError("--b0 is required (flag or config)")
    try:
        check_n(params["n"])
        if "grid_size" in params:
            check_grid_size(params["grid_size"], "--grid-size")
        gas = GasParams(A=params["A"], gamma=params["gamma"], rho0=params["rho0"])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out = _output_dir(output_dir, cfg)
    return params, gas, out, [config_path] if config_path else []


def _finish(command: str, params: dict, inputs: list, out: Path,
            artifacts: list, t_start: float) -> None:
    """Write manifest.json: what ran, with which resolved parameters and
    inputs, and the SHA-256 of every artifact written."""
    _write_json({
        "command": command,
        "params": params,
        "inputs": inputs,
        "output_dir": str(out),
        "version": __version__,
        "wall_clock": time.perf_counter() - t_start,
        "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in artifacts},
    }, out / "manifest.json")


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical laboratory for conic piston-driven shock waves."""


# ---------------------------------------------------------------------------
# background
# ---------------------------------------------------------------------------

@main.command()
@click.option("--b0", type=float, default=None, help="Piston speed.")
@click.option("--grid-size", type=int, default=None, help="Profile samples.")
@_common_options
def background(b0, grid_size, **common):
    """Solve the self-similar background and write profile CSV + summary."""
    t_start = time.perf_counter()
    p, gas, out, inputs = _setup(b0=(b0, None), grid_size=(grid_size, 2048), **common)

    try:
        sol = solve_background(p["b0"], gas, n=p["n"], grid_size=p["grid_size"])
    except COMPUTATION_ERRORS as exc:
        raise click.ClickException(f"background solve failed: {exc}")

    tag = f"b{p['b0']:g}_g{p['gamma']:g}_n{p['n']}"
    csv_path = out / f"background_{tag}.csv"
    json_path = out / f"background_{tag}.json"
    _write_csv(csv_path, {"s": sol.s, "rho": sol.rho, "u": sol.u, "phi": sol.phi})
    _write_json(sol.summary(), json_path)
    _finish("background", p, inputs, out, [csv_path, json_path], t_start)
    click.echo(f"wrote {csv_path} and {json_path} (s0 = {float(sol.s0)!r})")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _profile_checks(sol: SelfSimilarSolution, piston_tol: float) -> dict:
    """Sanity checks on one profile: finite, piston condition, entropy
    excess, supersonic denominator sign, small ODE residual."""
    finite = all(
        bool(np.all(np.isfinite(a))) for a in (sol.s, sol.rho, sol.w))
    try:
        res = ode_residual(sol) if finite else float("nan")
    except ValueError:          # samples that coincide in s
        res = float("nan")
    checks = {
        "finite": finite,
        "piston_condition": finite
        and bool(abs(sol.u[0] - sol.b0) <= piston_tol * abs(sol.b0)),
        "entropy_excess": finite and bool(np.all(sol.rho > sol.gas.rho0)),
        "denominator_negative": finite
        and bool(np.all(sol.w ** 2 - sol.csq < 0.0)),
        "ode_residual_small": bool(np.isfinite(res) and res < 1e-4),
    }
    return {"checks": checks, "ode_residual": float(res),
            "passed": all(checks.values())}


def _load_profile(path, gas: GasParams, n: int) -> SelfSimilarSolution:
    """Read a profile CSV (s, rho, u, phi columns) back into a solution."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 6 or rows[0][:3] != ["s", "rho", "u"]:
        raise click.ClickException(f"{path}: not a profile CSV")
    try:
        data = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
    except ValueError as exc:
        raise click.ClickException(f"{path}: unparsable profile: {exc}")
    s, rho, u = data.T
    if not np.all(np.diff(s) > 0.0):
        # a stand-off below the float spacing of b0 makes written samples coincide
        raise click.ClickException(
            f"{path}: profile samples coincide in s or are out of order")
    b0 = float(s[0])
    return SelfSimilarSolution(
        gas=gas, n=n, b0=b0, delta=float(s[-1] - s[0]),
        s_off=s - b0, rho=rho, w=u - s,
        csq_off=_csq_at(rho, gas) - _csq_at(float(rho[-1]), gas))


def _suite_asymptotics(sols) -> dict:
    rep = asymptotic_report(sols)
    monotone = {
        k: bool(np.all(np.diff(v) < 0.0))
        for k, v in rep.deviations.items() if k != "drho_magnitude"
    }
    passed = rep.denominator_negative and all(monotone.values())
    return {
        "passed": bool(passed),
        "denominator_negative": rep.denominator_negative,
        "monotone_decreasing": monotone,
        "slopes": rep.slopes,
        "expected_slope": rep.expected_slope,
        "deviations": {k: [float(x) for x in v]
                       for k, v in rep.deviations.items()},
    }


def _per_b0(profiles, entry) -> dict:
    """Report ``entry(profile)`` per b0; the suite passes when every entry does."""
    per_b0 = {f"{prof.b0:g}": entry(prof) for prof in profiles}
    return {"passed": all(v["passed"] for v in per_b0.values()), "per_b0": per_b0}


def _verdict(check, *fields):
    """The per-b0 entry of ``check``: its verdict and the named report fields."""
    def entry(ph) -> dict:
        rep = check(ph)
        return {"passed": rep.passed, **{f: getattr(rep, f) for f in fields}}
    return entry


#: the verify suites in report order.  Each maps the solved profiles and a
#: call that returns them straightened to its report.  The checks are looked
#: up on this module when a suite runs, as the benchmark tracer rebinds them.
SUITES = {
    "asymptotics": lambda sols, straightened: _suite_asymptotics(sols),
    "ellipticity": lambda sols, straightened: _per_b0(
        straightened(), _verdict(check_ellipticity, "margin")),
    "profile": lambda sols, straightened: _per_b0(
        sols, lambda sol: _profile_checks(sol, piston_tol=1e-9)),
    "boundary": lambda sols, straightened: _per_b0(
        straightened(), _verdict(boundary_signs, "E_min", "D21", "D22", "B21")),
    "stability": lambda sols, straightened: _per_b0(
        straightened(), _verdict(local_stability, "transversal", "timelike", "quad_form",
                                 "delta0", "neumann_residuals")),
}


@main.command()
@click.option("--b0", "b0_list", type=float, multiple=True,
              help="Piston speeds to sweep (default 10 20 40 80).")
@click.option("--suite", "suites", type=click.Choice(tuple(SUITES)), multiple=True,
              help="Restrict to these suites (default: all).")
@click.option("--profile", "profile_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Check a profile CSV instead of solving.")
@_common_options
def verify(b0_list, suites, profile_path, **common):
    """Run the verification suites over a piston-speed sweep."""
    t_start = time.perf_counter()
    if profile_path and (b0_list or suites):
        raise click.UsageError("--profile checks one file and takes no --b0 or --suite")
    p, gas, out, inputs = _setup(**common)
    if profile_path:
        # file-checking mode: validate the supplied profile only
        inputs.append(profile_path)
        sol = _load_profile(profile_path, gas, p["n"])
        report = dict(p)
        # name and content, not the path, so the report does not depend
        # on where the profile lives
        report["profile_file"] = Path(profile_path).name
        report["profile_sha256"] = hashlib.sha256(Path(profile_path).read_bytes()).hexdigest()
        report["results"] = {"profile": _profile_checks(sol, piston_tol=1e-6)}
    else:
        _check_finite("--b0", *b0_list)
        p["b0_list"] = list(b0_list) or [10.0, 20.0, 40.0, 80.0]
        p["suites"] = list(suites or SUITES)
        if "asymptotics" in p["suites"] and len(set(p["b0_list"])) < 2:
            raise click.UsageError("--b0: the asymptotics suite fits slopes over piston "
                                   "speeds and needs two or more distinct ones")
        # every suite keys its per-b0 entries by f"{b0:g}", so each key must
        # name one speed, given once
        seen = {}
        for b0 in p["b0_list"]:
            key = f"{b0:g}"
            if key in seen:
                raise click.UsageError(
                    f"--b0: {b0!r} is given twice" if seen[key] == b0 else
                    f"--b0: {seen[key]!r} and {b0!r} would share the report key {key}")
            seen[key] = b0
        report = dict(p)
        try:
            sols = [solve_background(b0, gas, n=p["n"]) for b0 in p["b0_list"]]
            # straighten each profile once, when a suite first asks (looked
            # up on the module, where the benchmark tracer binds it)
            straightened = functools.cache(
                lambda: [hodograph.psi_hat_from_background(sol) for sol in sols])
            report["results"] = {name: suite(sols, straightened)
                                 for name, suite in SUITES.items() if name in p["suites"]}
        except COMPUTATION_ERRORS as exc:
            raise click.ClickException(f"verification sweep failed: {exc}")

    all_pass = all(v["passed"] for v in report["results"].values())
    report["passed"] = bool(all_pass)

    json_path = out / "verify_report.json"
    _write_json(report, json_path)
    _finish("verify", p, inputs, out, [json_path], t_start)

    for name, res in sorted(report["results"].items()):
        click.echo(f"{name}: {'pass' if res['passed'] else 'FAIL'}")
    if not all_pass:
        raise click.ClickException("verification failed (see verify_report.json)")
    click.echo(f"all suites passed; report at {json_path}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@main.command("certify")
@click.option("--b0", type=float, default=None)
@click.option("--mu", default=None,
              help="Multiplier time exponent, or 'auto' for the window midpoint.")
@click.option("--grid-size", type=int, default=None)
@_common_options
def certify_cmd(b0, mu, grid_size, **common):
    """Evaluate the energy-multiplier sign certificate on a background."""
    t_start = time.perf_counter()
    p, gas, out, inputs = _setup(b0=(b0, None), mu=(mu, "auto"),
                                 grid_size=(grid_size, 1024), **common)
    n, gamma, b0 = p["n"], p["gamma"], p["b0"]

    if p["mu"] == "auto":
        p["mu"] = float(admissible_mu(n, gamma).midpoint)
    else:
        try:
            p["mu"] = float(p["mu"])
        except ValueError:
            raise click.UsageError(f"--mu must be a number or 'auto', got {p['mu']!r}")
        _check_finite("--mu", p["mu"])

    try:
        cert = certify(n, b0, p["mu"], gas, grid_size=p["grid_size"])
    except COMPUTATION_ERRORS as exc:
        raise click.ClickException(f"certificate evaluation failed: {exc}")

    json_path = out / f"certificate_n{n}_g{gamma:g}_b{b0:g}.json"
    _write_json(cert.summary(), json_path)
    _finish("certify", p, inputs, out, [json_path], t_start)

    click.echo(f"mu = {p['mu']!r}, status: {cert.status}; "
               f"certificate at {json_path}")
    if cert.status == "fail":
        raise click.ClickException(f"certificate failed: {cert.violated_condition()}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@main.command()
@click.option("--b0", type=float, default=None)
@click.option("--eps", type=float, default=None, help="Perturbation amplitude.")
@click.option("--grid-points", type=int, default=None)
@click.option("--cfl", type=float, default=None)
@click.option("--t-end", type=float, default=None)
@click.option("--t0", type=float, default=None)
@click.option("--budget", type=float, default=None,
              help="Wall-clock budget in seconds (truncates the run).")
@_common_options
def simulate(b0, eps, grid_points, cfl, t_end, t0, budget, **common):
    """Run the free-boundary simulation and write the deviation series."""
    t_start = time.perf_counter()
    p, gas, out, inputs = _setup(
        b0=(b0, None), eps=(eps, 0.0), grid_points=(grid_points, 128),
        cfl=(cfl, 0.4), t_end=(t_end, 50.0), t0=(t0, 1.0), budget=(budget, None),
        **common)

    try:
        config = SimConfig(n=p["n"], gas=gas, b0=p["b0"], eps=p["eps"],
                           grid_points=p["grid_points"], cfl=p["cfl"],
                           t_end=p["t_end"], t0=p["t0"])
    except ValueError as exc:
        raise click.UsageError(str(exc))

    try:
        res = sim_run(config, wall_clock_budget=p["budget"])
    except COMPUTATION_ERRORS as exc:
        raise click.ClickException(f"simulation failed: {exc}")

    csv_path = out / "simulation.csv"
    json_path = out / "simulation.json"
    _write_csv(csv_path, {
        "t": res.t, "zeta": res.zeta, "sigma": res.sigma, "sup_dev": res.sup_dev,
        "rh_residual": res.rh_residual, "entropy_margin": res.entropy_margin})
    _write_json(res.summary(), json_path)
    artifacts = [csv_path, json_path]

    if p["eps"] > 0.0:
        fit_path = out / "decay_fit.json"
        try:
            fit = fit_decay(res.t, res.sup_dev,
                            window=(max(5.0, 2.0 * p["t0"]), None))
            _write_json({"m0_est": fit.m0_est, "residual": fit.residual,
                         "window": list(fit.window)}, fit_path)
            click.echo(f"decay fit: m0_est = {fit.m0_est!r}")
        except ValueError as exc:
            _write_json({"error": str(exc)}, fit_path)
            click.echo(f"decay fit unavailable: {exc}")
        artifacts.append(fit_path)

    _finish("simulate", p, inputs, out, artifacts, t_start)

    if not res.completed:
        raise click.ClickException(
            f"run truncated at t = {float(res.t[-1])!r} after {res.steps} of about "
            f"{res.projected_steps:.0f} projected steps (wall-clock budget exhausted)")
    click.echo(f"completed {res.steps} steps to t = {float(res.t[-1])!r}; "
               f"series at {csv_path}")


if __name__ == "__main__":
    main()
