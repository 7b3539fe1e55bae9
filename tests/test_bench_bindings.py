"""The benchmark tracer swaps module-level bindings of the package by name
(perfbench/tracing.py, TARGETS); each one must still resolve, or a traced
benchmark run fails or silently stops recording a layer."""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_binding_resolves(module, attr):
    owner = import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}"
        owner = getattr(owner, part)
    assert callable(owner)
