"""Numerical laboratory for conic shock waves driven by an expanding pointed piston.

The package computes the self-similar background shock flow behind a
constant-speed conical piston in a polytropic gas, evaluates the coefficient
algebra of the straightened (hodograph) formulation, checks energy-multiplier
sign certificates, and runs a radially symmetric free-boundary simulation to
measure how piston perturbations decay.
"""

from .gas import GasParams, sound_speed, enthalpy, enthalpy_inverse, density_from_state
from .background import (
    ShockJump,
    SelfSimilarSolution,
    AsymptoticsReport,
    shock_jump_from_speed,
    solve_background,
    asymptotic_report,
)

from .hodograph import (  # noqa: F401
    CoeffSet,
    HodographState,
    PsiHat,
    a_coeffs,
    boundary_signs,
    check_ellipticity,
    local_stability,
    profile_ode_residual,
    psi_hat_from_background,
    second_order_coeffs,
)

from .certificates import (  # noqa: F401
    BoundaryCoeffs,
    MultiplierCertificate,
    MuWindow,
    PCoeffs,
    K_coeffs,
    P_coeffs,
    admissible_mu,
    boundary_coeffs,
    certify,
    decay_exponent,
    multiplier_e,
)

from .simulator import (  # noqa: F401
    DecayFit,
    SimConfig,
    SimResult,
    SimState,
    SimulationError,
    fit_decay,
    init_from_background,
    modified_background,
    run,
    step,
)

#: every name imported above from the package's modules
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith(__name__ + ".")]

__version__ = "0.1.0"
