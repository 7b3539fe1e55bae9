"""The benchmark tracer swaps module-level bindings of the package by name
(perfbench/tracing.py, TARGETS); each one must still resolve, and callers
must look it up at call time, or a traced benchmark run fails or silently
stops recording a layer."""

import importlib.util
import json
from importlib import import_module
from pathlib import Path

import pytest
from click.testing import CliRunner

from conicshock.cli import main

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(mod, attr) for mod, attr, _, _ in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_binding_resolves(module, attr):
    owner = import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_cli_calls_are_traced(tmp_path):
    # a binding captured before the tracer swaps it (an import-time table,
    # a default argument) still resolves, but its calls go unrecorded
    tracer = _tracing().Tracer()
    runner = CliRunner()
    tracer.install()
    try:
        for args in (["verify", "--suite", "ellipticity", "--suite", "stability",
                      "--b0", "40"],
                     ["certify", "--n", "3", "--gamma", "1.4", "--b0", "80",
                      "--mu", "auto"]):
            res = runner.invoke(main, args + ["--output-dir", str(tmp_path)],
                                catch_exceptions=False)
            assert res.exit_code == 0
    finally:
        tracer.uninstall()
    names = {rec["name"] for rec in tracer.spans}
    assert {"background.solve_background", "hodograph.check_ellipticity",
            "hodograph.local_stability", "certificates.certify"} <= names
    # verify straightens its one profile once for both suites
    assert sum(rec["name"] == "hodograph.psi_hat_from_background"
               for rec in tracer.spans) == 1


def test_simulator_calls_are_traced(tmp_path):
    # the explicit stepper reaches _rates and _apply_bcs through a closure
    # and the diagnostics through the modified background; each must look
    # the swapped binding up at call time
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        res = CliRunner().invoke(
            main, ["simulate", "--gamma", "2", "--b0", "4", "--grid-points", "32",
                   "--eps", "0.01", "--t-end", "1.2", "--output-dir", str(tmp_path)],
            catch_exceptions=False)
    finally:
        tracer.uninstall()
    assert res.exit_code == 0
    steps = json.loads((tmp_path / "simulation.json").read_text())["steps"]
    assert steps > 0
    assert sum(rec["name"] == "simulator.step" for rec in tracer.spans) == steps
    calls = {name: st[0] for name, st in tracer.stats.items()}
    assert calls["simulator._rates"] == 4 * steps
    # three RK4 stages and the step's end, plus the initial state
    assert calls["simulator._apply_bcs"] == 4 * steps + 1
    for name in ("simulator.grad_phi_a", "simulator._mass_integral"):
        assert calls.get(name, 0) > 0, name
