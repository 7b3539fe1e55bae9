"""Seeded inputs and correctness gates for the conicshock benchmark.

A workload is a sequence of rounds.  Round ``k`` of workload ``w`` under
seed ``s`` draws its inputs from ``random.Random("perfbench/w/s/k")`` alone,
so the inputs of a round do not depend on how many rounds ran before it,
and no two rounds share inputs.
Each round is a list of operations; one operation is one ``conicshock`` CLI
invocation.

``sweep``       one ``verify`` over 4 sorted piston speeds b0 in [10, 100]
                (gamma 1.4, n 3, grid 2048, all five suites), then 12
                ``certify`` calls (grid 1024), each at a b0 of its own in
                [10, 100] and a mu inside the admissible window: 13
                operations.  Background shooting dominates; the simulator
                does no work.  Each operation is a separate CLI invocation
                in real use, so no (b0, grid) pair recurs across operations
                of a round: a cache can only gain from repeats inside one
                ``verify`` or ``certify``.
``decay``       one ``simulate`` of the reference case n 3, gamma 2, b0 4,
                64 points, t_end 50, eps in [0.005, 0.02].  The boundary
                closure and the gas density map dominate.
``thin_layer``  one ``simulate`` of the pinned acceptance case n 3,
                gamma 1.4, b0 40, 512 points, cut to t_end = 1 + 2e-6, eps in
                [0.005, 0.02].  The 1.7e-5 stand-off sets a CFL step near
                7e-10; init runs two distinct background solves.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "decay", "thin_layer")

#: why each workload exists; BENCHMARK.json carries the same lines
WHY = {
    "sweep": "verify + 12 certify calls at distinct b0: background shooting "
             "dominates, 4 of 20 solves repeat inside verify; the simulator does no work",
    "decay": "reference decay run, 9k RK4 steps on 64 points: boundary closure "
             "and gas density map dominate; 339 output records",
    "thin_layer": "pinned certified case (b0 40, 512 points) cut to 2.7k CFL "
                  "steps: stand-off sets dt, two distinct background solves",
}

#: seed whose first rounds are pinned in reference.json
DEFAULT_SEED = 1
#: seed kept out of tuning, for re-checking a claim on unseen inputs
HELD_OUT_SEED = 2

SUITES = ("asymptotics", "ellipticity", "profile", "boundary", "stability")

SWEEP_GAMMA, SWEEP_N = 1.4, 3
SWEEP_B0_RANGE = (10.0, 100.0)
SWEEP_B0_COUNT = 4
SWEEP_CERTIFY_COUNT = 12
SWEEP_CERT_GRID = 1024
#: admissible window of the multiplier exponent for n = 3:
#: (-4, -1 - sqrt((gamma + 7)/2)/2)
MU_WINDOW = (-4.0, -1.0 - 0.5 * math.sqrt((SWEEP_GAMMA + 7.0) / 2.0))
EPS_RANGE = (0.005, 0.02)

#: ``fits``: whether t_end reaches past the window the CLI fits the decay
#: exponent on (t from 5 over a factor sqrt(10)), so decay_fit.json must
#: hold m0_est
SIM_CASES = {
    "decay": dict(n=3, gamma=2.0, b0=4.0, grid_points=64, t_end=50.0,
                  fits=True),
    "thin_layer": dict(n=3, gamma=1.4, b0=40.0, grid_points=512,
                       t_end=1.0 + 2e-6, fits=False),
}

#: invariant bounds checked on every seed
RH_RESIDUAL_MAX = 1e-10        # relative to the shock mass flux, see fingerprint
RHO0 = 1.0                     # ambient density the CLI defaults to
PISTON_REL_TOL = 1e-12


@dataclass
class Op:
    """One CLI invocation and what its outputs must satisfy."""

    kind: str                  # "verify" | "certify" | "simulate"
    args: list                 # argv after the program name, minus --output-dir
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def round_ops(workload: str, seed: int, key: int) -> list[Op]:
    """Operations of round ``key``."""
    rng = random.Random(f"perfbench/{workload}/{seed}/{key}")
    if workload == "sweep":
        b0s = sorted(rng.uniform(*SWEEP_B0_RANGE) for _ in range(SWEEP_B0_COUNT))
        ops = [Op("verify",
                  ["verify", "--gamma", _fmt(SWEEP_GAMMA), "--n", str(SWEEP_N)]
                  + [a for b0 in b0s for a in ("--b0", _fmt(b0))],
                  {"b0_list": b0s})]
        lo, hi = MU_WINDOW
        for _ in range(SWEEP_CERTIFY_COUNT):
            b0 = rng.uniform(*SWEEP_B0_RANGE)
            mu = lo + (hi - lo) * rng.uniform(0.02, 0.98)
            ops.append(Op("certify",
                          ["certify", "--n", str(SWEEP_N),
                           "--gamma", _fmt(SWEEP_GAMMA), "--b0", _fmt(b0),
                           "--mu", _fmt(mu),
                           "--grid-size", str(SWEEP_CERT_GRID)],
                          {"b0": b0, "mu": mu}))
        return ops
    if workload in SIM_CASES:
        case = dict(SIM_CASES[workload], eps=rng.uniform(*EPS_RANGE))
        args = ["simulate"]
        for name in ("n", "gamma", "b0", "eps", "grid_points", "t_end"):
            flag = "--" + name.replace("_", "-")
            value = case[name]
            args += [flag, str(value) if isinstance(value, int) else _fmt(value)]
        return [Op("simulate", args, case)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# outputs: fingerprints and gates
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest(out: Path) -> dict:
    """Manifest artifacts, checked against the files they name."""
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = manifest["artifacts"]
    for name, digest in artifacts.items():
        if _sha256(out / name) != digest:
            raise GateError(f"manifest hash of {name} does not match the file")
    return artifacts


class GateError(Exception):
    """An operation's outputs fail the correctness gate."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GateError(msg)


def fingerprint(op: Op, out: Path) -> dict:
    """Read the operation's artifacts, check the seed-independent
    invariants and return the values compared against the reference."""
    if op.kind == "verify":
        report = json.loads((out / "verify_report.json").read_text())
        results = report["results"]
        verdicts = {k: bool(results[k]["passed"]) for k in SUITES}
        _require(all(verdicts.values()) and report["passed"],
                 f"verify suites failed: {verdicts}")
        # shock_speed deviation is |s0/b0 - 1| = delta/b0
        devs = results["asymptotics"]["deviations"]["shock_speed"]
        deltas = [d * b0 for d, b0 in zip(devs, op.params["b0_list"])]
        _require(all(d > 0.0 for d in deltas), f"non-positive stand-off {deltas}")
        piston = [results["profile"]["per_b0"][k]["checks"]["piston_condition"]
                  for k in results["profile"]["per_b0"]]
        _require(all(piston), "piston condition fails on a profile")
        return {"suites": verdicts, "delta": deltas,
                "s0": [b0 + d for b0, d in zip(op.params["b0_list"], deltas)]}
    if op.kind == "certify":
        (path,) = out.glob("certificate_*.json")
        cert = json.loads(path.read_text())
        _require(cert["mu_in_window"], f"mu {op.params['mu']} outside window")
        _require(cert["status"] == "pass", f"certificate status {cert['status']!r}")
        return {"status": cert["status"]}
    summary = json.loads((out / "simulation.json").read_text())
    _require(summary["completed"], "simulation did not complete")
    _require(summary["steps"] > 0, "simulation took no steps")
    _require(summary["min_entropy_margin"] > 0.0,
             f"entropy margin {summary['min_entropy_margin']}")
    p = op.params
    with open(out / "simulation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        t, sigma, zeta = float(row["t"]), float(row["sigma"]), float(row["zeta"])
        expect = t * (p["b0"] + p["eps"] / (1.0 + t))
        _require(abs(sigma - expect) <= PISTON_REL_TOL * expect,
                 f"piston path off at t={t}: {sigma} vs {expect}")
        _require(sigma < zeta, f"piston overtook shock at t={t}")
        # the residual |H w - (H - rho0) zeta'| is absolute; scale it by the
        # mass flux H zeta/t (about 3e7 on the thin layer, 20 on decay)
        flux = (float(row["entropy_margin"]) + RHO0) * zeta / t
        _require(float(row["rh_residual"]) < RH_RESIDUAL_MAX * max(1.0, flux),
                 f"RH residual {row['rh_residual']} at t={t} (mass flux {flux:.3g})")
    fp = {k: summary[k] for k in ("steps", "completed", "max_rh_residual",
                                  "min_entropy_margin", "max_zeta_dev")}
    fp["records"] = len(rows)
    fit = json.loads((out / "decay_fit.json").read_text())
    if p["fits"]:
        _require("m0_est" in fit, f"decay fit failed: {fit.get('error')}")
        _require(math.isfinite(fit["m0_est"]) and fit["m0_est"] > 0.0,
                 f"decay exponent {fit['m0_est']}")
        fp["m0_est"] = fit["m0_est"]
    return fp


# Reference tolerances for the default seed.  Background solves bisect the
# stand-off to 1e-12 relative, and delta is read back as b0 * |s0/b0 - 1|,
# which adds round-off of order 1e-16 * b0.  Simulator fingerprints are
# sums over thousands of explicit steps; 1e-6 relative admits round-off and
# a reordered but equivalent computation, not a changed result.
def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


def compare_reference(op: Op, fp: dict, ref: dict) -> list[str]:
    """Mismatches between a fingerprint and its pinned reference."""
    bad = []
    if op.kind == "verify":
        if fp["suites"] != ref["suites"]:
            bad.append(f"suite verdicts {fp['suites']} != {ref['suites']}")
        for b0, d, dr, s, sr in zip(op.params["b0_list"], fp["delta"],
                                    ref["delta"], fp["s0"], ref["s0"]):
            if not _close(d, dr, 1e-9, 1e-13 * b0):
                bad.append(f"delta at b0={b0}: {d!r} != {dr!r}")
            if not _close(s, sr, 1e-13):
                bad.append(f"s0 at b0={b0}: {s!r} != {sr!r}")
    elif op.kind == "certify":
        if fp["status"] != ref["status"]:
            bad.append(f"status {fp['status']!r} != {ref['status']!r}")
    else:
        if fp["completed"] != ref["completed"] or fp["records"] != ref["records"]:
            bad.append("completion or record count differs")
        if not _close(fp["steps"], ref["steps"], 0.01):
            bad.append(f"steps {fp['steps']} != {ref['steps']} (1%)")
        for k in ("min_entropy_margin", "max_zeta_dev", "m0_est"):
            if k in ref and not (k in fp and _close(fp[k], ref[k], 1e-6)):
                bad.append(f"{k} {fp.get(k)!r} != {ref[k]!r}")
    return bad
