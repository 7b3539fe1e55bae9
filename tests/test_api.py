"""Public names: every module star-imports and every package export resolves."""

import importlib
import pkgutil

import pytest

import conicshock

MODULES = ["conicshock"] + sorted(
    f"conicshock.{m.name}" for m in pkgutil.iter_modules(conicshock.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale name in __all__ makes the star-import raise
    namespace = {}
    exec(f"from {module} import *", namespace)
    for name in getattr(importlib.import_module(module), "__all__", ()):
        assert name in namespace


#: the package exports; a change to this set is an API change
PUBLIC = {
    "AsymptoticsReport", "BoundaryCoeffs", "CoeffSet", "DecayFit", "GasParams",
    "HodographState", "K_coeffs", "MuWindow", "MultiplierCertificate",
    "PCoeffs", "P_coeffs", "PsiHat", "SelfSimilarSolution",
    "ShockJump", "SimConfig", "SimResult", "SimState", "SimulationError",
    "a_coeffs", "admissible_mu", "asymptotic_report", "boundary_coeffs",
    "boundary_signs", "certify", "check_ellipticity", "decay_exponent",
    "density_from_state", "enthalpy", "enthalpy_inverse", "fit_decay",
    "init_from_background", "local_stability", "modified_background",
    "multiplier_e", "profile_ode_residual", "psi_hat_from_background", "run",
    "second_order_coeffs", "shock_jump_from_speed", "solve_background",
    "sound_speed", "step",
}


def test_package_exports():
    assert len(conicshock.__all__) == len(set(conicshock.__all__))
    assert set(conicshock.__all__) == PUBLIC


@pytest.mark.parametrize("name", conicshock.__all__)
def test_package_export_resolves(name):
    assert hasattr(conicshock, name)
