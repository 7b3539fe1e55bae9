"""Polytropic gas state relations.

Pressure law P = A * rho**gamma with 1 < gamma < 3.  Everything else follows:
sound speed c(rho) = sqrt(A*gamma*rho**(gamma-1)), specific enthalpy
h(rho) = c**2/(gamma-1), and the Bernoulli density map that recovers rho from
the flow potential's first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GasParams",
    "VacuumError",
    "sound_speed",
    "enthalpy",
    "enthalpy_inverse",
    "density_from_state",
]

# Arguments of the Bernoulli map below this fraction of B0 are treated as
# vacuum rather than round-off.
VACUUM_REL_THRESHOLD = 1e-14


class VacuumError(ValueError):
    """Raised when the Bernoulli argument drops to (numerical) vacuum.

    In a simulation this signals blow-up, not a programming error."""


@dataclass(frozen=True)
class GasParams:
    """Polytropic constants and the derived ambient Bernoulli constant.

    Attributes
    ----------
    A : float
        Pressure coefficient, > 0.
    gamma : float
        Adiabatic exponent, 1 < gamma < 3.
    rho0 : float
        Ambient (pre-shock) density, > 0.
    B0 : float
        Bernoulli constant of the static gas, h(rho0).  Derived.
    c0 : float
        Sound speed of the static gas, c(rho0).  Derived.
    """

    A: float = 1.0
    gamma: float = 1.4
    rho0: float = 1.0
    B0: float = field(init=False)
    c0: float = field(init=False)

    def __post_init__(self) -> None:
        # negated comparisons, so that NaN fails them too
        if not (1.0 < self.gamma < 3.0):
            raise ValueError(f"gamma must lie in (1, 3), got {self.gamma}")
        if not self.A > 0:
            raise ValueError(f"A must be positive, got {self.A}")
        if not self.rho0 > 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        # floats, not numpy scalars, so that the scalar arithmetic built on
        # them (the simulator's shock closure, the shooting) runs on floats
        object.__setattr__(self, "B0", float(enthalpy(self.rho0, self)))
        object.__setattr__(self, "c0", float(sound_speed(self.rho0, self)))


def _check_density(rho) -> None:
    # negated so that NaN fails the check too
    if not np.all(np.asarray(rho) > 0):
        raise ValueError("density must be positive")


def sound_speed(rho, gas: GasParams):
    """Local sound speed c(rho) = sqrt(A*gamma*rho**(gamma-1))."""
    _check_density(rho)
    return np.sqrt(gas.A * gas.gamma * np.asarray(rho, dtype=float) ** (gas.gamma - 1.0))


def enthalpy(rho, gas: GasParams):
    """Specific enthalpy h(rho) = c(rho)**2 / (gamma - 1)."""
    _check_density(rho)
    return gas.A * gas.gamma * np.asarray(rho, dtype=float) ** (gas.gamma - 1.0) / (gas.gamma - 1.0)


def enthalpy_inverse(hval, gas: GasParams):
    """Density with the given specific enthalpy.

    Uses the closed form rho = ((gamma-1)*h / (A*gamma))**(1/(gamma-1)),
    exact and branch-free for the polytropic law.
    """
    hval = np.asarray(hval, dtype=float)
    if not np.all(hval > 0):
        raise ValueError("enthalpy must be positive")
    return _density_at(hval, gas)


def _density_at(hval, gas: GasParams):
    """The closed form of enthalpy_inverse on a float or array already
    known to be positive."""
    return ((gas.gamma - 1.0) * hval / (gas.A * gas.gamma)) ** (1.0 / (gas.gamma - 1.0))


def _nonvacuum(arg, gas: GasParams):
    """The vacuum rule: the Bernoulli argument arg (float or array), or
    VacuumError where it is at or below VACUUM_REL_THRESHOLD * B0 or NaN
    (the min of an array holding a NaN is NaN).  numpy orders complex
    values real part first, so a complex-step argument is judged by it."""
    low = np.minimum.reduce(arg) if isinstance(arg, np.ndarray) else arg
    if not low > VACUUM_REL_THRESHOLD * gas.B0:
        raise VacuumError("Bernoulli argument reached vacuum; flow state is not admissible")
    return arg


def _flow_bernoulli(phi_t, grad_sq, gas: GasParams):
    """Bernoulli argument B0 - phi_t - grad_sq/2 of a flow state on floats
    or arrays, under the vacuum rule; c^2 is (gamma-1) times it."""
    return _nonvacuum(gas.B0 - phi_t - 0.5 * grad_sq, gas)


def density_from_state(phi_t, grad_sq, gas: GasParams):
    """Bernoulli density map rho = h^{-1}(B0 - phi_t - grad_sq/2).

    Parameters
    ----------
    phi_t : time derivative of the flow potential.
    grad_sq : squared magnitude of the spatial gradient of the potential.

    Raises
    ------
    VacuumError
        If the enthalpy argument falls below the vacuum threshold
        (1e-14 * B0), which distinguishes physical vacuum from round-off,
        or is NaN.
    """
    arg = _flow_bernoulli(np.asarray(phi_t, dtype=float), np.asarray(grad_sq, dtype=float), gas)
    return _density_at(arg, gas)
