"""The benchmark tracer swaps module-level bindings of the package by name
(perfbench/tracing.py, TARGETS); each one must still resolve, and callers
must look it up at call time, or a traced benchmark run fails or silently
stops recording a layer."""

import importlib.util
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
