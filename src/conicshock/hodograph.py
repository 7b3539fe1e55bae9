"""Straightened-coordinate (partial hodograph) formulation of the piston flow.

The free domain between piston and shock is mapped onto the fixed slab
``R in [1, 2]`` by

    psi = s - b - phi/b0,     R = (s - b)/psi + 1,     T = t,

which sends the piston to ``R = 1`` and the shock to ``R = 2``.  This module
evaluates the coefficient families of the transformed second-order equation
(the ``A``-families, split by powers of ``1/T``), the straightened background
profile ``psi_hat(R)``, and the derived boundary/stability quantities:
ellipticity margins, boundary-coefficient signs, and the local stability
(uniform-Lopatinski-type) checks on the shock side.

All formulas carry the full angular slots (``Zb``, ``Zpsi``); radial states
simply pass zeros there.  Evaluations are pure functions of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .background import SelfSimilarSolution, _rhs
from .gas import GasParams, _density_at, _nonvacuum

__all__ = [
    "HodographState",
    "PsiHat",
    "CoeffSet",
    "EllipticityReport",
    "BoundarySignReport",
    "StabilityReport",
    "a_coeffs",
    "bernoulli_argument",
    "second_order_coeffs",
    "psi_hat_from_background",
    "transform_identity_residual",
    "profile_ode_residual",
    "shock_row_residual",
    "check_ellipticity",
    "boundary_signs",
    "local_stability",
]


# ---------------------------------------------------------------------------
# state and first-layer coefficients
# ---------------------------------------------------------------------------

@dataclass
class HodographState:
    """Point state of the straightened unknown and the piston shape.

    Fields may be scalars or aligned numpy arrays (elementwise evaluation).
    Angular slots default to zero, which is the radial case.
    """

    R: float
    psi: float
    b: float
    dRpsi: float = 0.0
    dTpsi: float = 0.0
    dTb: float = 0.0
    d2Tb: float = 0.0
    Zpsi: np.ndarray = None
    Zb: np.ndarray = None

    def __post_init__(self):
        shape = np.shape(self.psi)
        if self.Zpsi is None:
            self.Zpsi = np.zeros((3,) + shape)
        if self.Zb is None:
            self.Zb = np.zeros((3,) + shape)


def a_coeffs(st: HodographState):
    """First-layer coefficients (a0, a1, a2, a3, a4[3]) of the transform.

    The state is singular where psi and (R-1) dRpsi cancel; the guard is
    relative to their size, so it does not depend on the speed unit.
    """
    span = (st.R - 1.0) * st.dRpsi
    den = st.psi + span
    if np.any(np.abs(den) <= 1e-12 * (np.abs(st.psi) + np.abs(span))):
        raise ZeroDivisionError("singular state: psi + (R-1)*dRpsi ~ 0")
    a0 = st.b + (st.R - 1.0) * st.psi
    a1 = 1.0 / den
    a2 = st.psi + (st.R - 2.0) * st.dRpsi
    a3 = st.psi * st.dTpsi + st.psi * st.dTb + (st.R - 2.0) * st.dTb * st.dRpsi
    a4 = st.psi * st.Zpsi + st.psi * st.Zb + (st.R - 2.0) * st.Zb * st.dRpsi
    return a0, a1, a2, a3, a4


def _dTa0(st: HodographState):
    return st.dTb + (st.R - 1.0) * st.dTpsi


def _Za0(st: HodographState):
    return st.Zb + (st.R - 1.0) * st.Zpsi


def bernoulli_argument(st: HodographState, gas: GasParams, b0: float, T: float = 1.0):
    """Argument of the enthalpy inverse defining density and sound speed."""
    return _bernoulli(st, gas, b0, T, a_coeffs(st))


def _bernoulli(st: HodographState, gas: GasParams, b0: float, T: float, a):
    """bernoulli_argument on the state's a_coeffs ``a``, already evaluated."""
    a0, a1, a2, a3, a4 = a
    return (
        gas.B0
        - b0 * (st.R - 2.0) * st.psi
        + T * b0 * a1 * a3
        + b0 * a0 * a1 * a2
        - 0.5 * b0 ** 2 * (a1 * a2) ** 2
        - 0.5 * b0 ** 2 / a0 ** 2 * np.sum((a1 * a4) ** 2, axis=0)
    )


@dataclass
class CoeffSet:
    """Second-order coefficient families at a state.

    ``A<k>_<j>`` is the coefficient of the k-th derivative slot scaled by
    ``T**(-j)``; the assembled coefficient is ``A<k>_0 + A<k>_1/T +
    A<k>_2/T**2``.  Index-5 and -3 entries are 3-vectors, index-6 a 3x3
    block.  ``H`` is the density, ``csq`` the squared sound speed, ``A0``
    the Bernoulli argument (enthalpy).
    """

    A0: float
    H: float
    csq: float
    A1_0: float; A2_0: float; A3_0: np.ndarray; A4_0: float
    A5_0: np.ndarray; A6_0: np.ndarray; A7_0: float
    A1_1: float; A2_1: float; A3_1: np.ndarray; A4_1: float
    A5_1: np.ndarray; A6_1: np.ndarray; A7_1: float
    A1_2: float; A2_2: float; A3_2: np.ndarray; A4_2: float
    A5_2: np.ndarray; A6_2: np.ndarray; A7_2: float

    def assembled(self, T: float):
        """(A1, A2, A3[3], A4, A5[3], A6[3,3], A7) at time T."""
        f = lambda x0, x1, x2: x0 + x1 / T + x2 / T ** 2
        return (
            f(self.A1_0, self.A1_1, self.A1_2),
            f(self.A2_0, self.A2_1, self.A2_2),
            f(self.A3_0, self.A3_1, self.A3_2),
            f(self.A4_0, self.A4_1, self.A4_2),
            f(self.A5_0, self.A5_1, self.A5_2),
            f(self.A6_0, self.A6_1, self.A6_2),
            f(self.A7_0, self.A7_1, self.A7_2),
        )


def second_order_coeffs(st: HodographState, gas: GasParams, b0: float, n: int,
                        T: float = 1.0) -> CoeffSet:
    """Evaluate every coefficient family by its printed closed form in
    space dimension n, which enters only through A7_2's radial term
    (n - 1)(a2/a0) c^2.  The angular slots are 3-vectors at either n.

    Every family is elementwise along the state's grid axis, so one call on
    several states concatenated along that axis returns, in its slices,
    bitwise the sets of separate calls; callers stack the states of a
    stencil into one call.  Repeated subexpressions (the a-coefficients,
    a0**2, a1**2, R - 1, R - 2, (b0 a1/a0)**2) are evaluated once, each
    combined with the same operands in the same order as in its printed
    form.
    """
    a = a_coeffs(st)
    a0, a1, a2, a3, a4 = a
    A0 = _nonvacuum(_bernoulli(st, gas, b0, T, a), gas)
    H = _density_at(A0, gas)
    csq = (gas.gamma - 1.0) * A0

    R = st.R
    dRpsi, dTpsi, dTb, d2Tb = st.dRpsi, st.dTpsi, st.dTb, st.d2Tb
    Zpsi, Zb = st.Zpsi, st.Zb
    psi = st.psi
    dTa0 = _dTa0(st)
    Za0 = _Za0(st)
    zeros3 = np.zeros_like(a4)
    Rm1, Rm2 = R - 1.0, R - 2.0
    a0sq, a1sq = a0 ** 2, a1 ** 2

    # slip = b0*a1*a2 - a0 is (u - s) expressed in the new variables
    slip = b0 * a1 * a2 - a0
    a4sq = np.sum(a4 ** 2, axis=0)

    # ----- T^0 layer ------------------------------------------------------
    A1_0 = psi
    A2_0 = Rm2 * dTb - a1 * (Rm1 * a3 + psi * dTa0)
    A3_0 = zeros3
    A4_0 = dTa0 * a1 * (Rm1 * a1 * a3 - Rm2 * dTb)
    A5_0 = zeros3
    A6_0 = np.zeros((3, 3) + np.shape(psi))
    A7_0 = (
        dTpsi ** 2 + psi * d2Tb + dTpsi * dTb + Rm2 * d2Tb * dRpsi
        - a1 * (dTpsi * a3 + dTa0 * (dTpsi * dRpsi + 2.0 * dRpsi * dTb))
        + 2.0 * dTa0 * a1sq * a3 * dRpsi
    )

    # ----- T^-1 layer -----------------------------------------------------
    A1_1 = np.zeros_like(psi)
    A2_1 = (
        2.0 * slip * (1.0 - Rm1 * a1 * dRpsi)
        + 2.0 * b0 * a1 / a0sq
        * (Rm1 * a1 * a4sq - Rm2 * np.sum(Zb * a4, axis=0))
    )
    A3_1 = -2.0 * b0 / a0sq * a1 * a4 * psi
    A4_1 = (
        2.0 * dTa0 * a1 * slip * (Rm1 * a1 * dRpsi - 1.0)
        + 2.0 * b0 / a0sq * dTa0 * a1sq
        * (Rm2 * np.sum(Zb * a4, axis=0) - Rm1 * a1 * a4sq)
    )
    A5_1 = 2.0 * b0 / a0sq * dTa0 * a1sq * psi * a4
    A6_1 = np.zeros((3, 3) + np.shape(psi))
    A7_1 = (
        2.0 * a1 * (b0 / a0sq * a1 * a4sq - dRpsi * slip)
        * (dTpsi - 2.0 * a1 * dTa0 * dRpsi)
        + 2.0 * a3
        - 2.0 * b0 / a0sq * a1 * np.sum(
            a4 * (
                dTpsi * Zpsi + dTpsi * Zb
                # piston angular-time mixed derivatives are zero for the
                # piston shapes considered here (radial or frozen angular)
                - a1 * dTa0 * (dRpsi * Zpsi + 2.0 * dRpsi * Zb)
            ),
            axis=0,
        )
    )

    # ----- T^-2 layer -----------------------------------------------------
    A1_2 = np.zeros_like(psi)
    A2_2 = np.zeros_like(psi)
    A3_2 = zeros3

    # kernel K_ij = c^2 delta_ij - (b0 a1 / a0)^2 a4_i a4_j
    K = np.empty((3, 3) + np.shape(psi), dtype=np.result_type(csq, a4))
    ka_sq = (b0 * a1 / a0) ** 2
    for i in range(3):
        for j in range(3):
            K[i, j] = (csq if i == j else 0.0) - ka_sq * a4[i] * a4[j]

    A4_2 = (
        a1 * (slip ** 2 - csq) * (1.0 - Rm1 * a1 * dRpsi)
        - 2.0 * b0 * a1 / a0sq * slip
        * np.sum(a4 * (Rm2 * a1 * Zb - Rm1 * a1sq * a4), axis=0)
        + 1.0 / a0sq * np.sum(
            K * (Rm2 * Zb - Rm1 * a1 * a4)[None, :] * (a1 * Za0)[:, None],
            axis=(0, 1),
        )
    )
    A5_2 = (
        -2.0 * b0 * a1sq / a0sq * slip * a4 * psi
        + 1.0 / a0sq * np.sum(
            K * (a1 * Za0 * dRpsi + Rm1 * a1 * a4 - Rm2 * Zb)[None, :],
            axis=1,
        )
    )
    A6_2 = -K * psi / a0sq
    A7_2 = (
        2.0 * (a1 * dRpsi) ** 2 * (csq - slip ** 2)
        + (n - 1) * a2 / a0 * csq
        + b0 * a1 / a0 ** 3 * (b0 * a1 * a2 - 2.0 * a0) * a4sq
        - 2.0 * b0 * a1sq / a0sq * slip * dRpsi
        * np.sum(a4 * (Zpsi + 2.0 * Zb - 2.0 * a1 * a4), axis=0)
        - 1.0 / a0sq * np.sum(
            K * (
                Zpsi[None, :] * Zpsi[:, None] + Zpsi[:, None] * Zb[None, :]
                - (a1 * Za0 * dRpsi)[:, None] * (Zpsi + 2.0 * Zb)[None, :]
                - (a1 * a4)[None, :] * (Zpsi - 2.0 * a1 * Za0 * dRpsi)[:, None]
            ),
            axis=(0, 1),
        )
    )

    return CoeffSet(
        A0=A0, H=H, csq=csq,
        A1_0=A1_0, A2_0=A2_0, A3_0=A3_0, A4_0=A4_0, A5_0=A5_0, A6_0=A6_0, A7_0=A7_0,
        A1_1=A1_1, A2_1=A2_1, A3_1=A3_1, A4_1=A4_1, A5_1=A5_1, A6_1=A6_1, A7_1=A7_1,
        A1_2=A1_2, A2_2=A2_2, A3_2=A3_2, A4_2=A4_2, A5_2=A5_2, A6_2=A6_2, A7_2=A7_2,
    )


# ---------------------------------------------------------------------------
# straightened background profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiHat:
    """Background profile in the straightened coordinate.

    ``psi``/``dpsi``/``d2psi`` are sampled on the uniform ``R``-grid.
    ``dpsi`` is the first-order identity (b0 + (1-R)(b0-u)) psi' = (b0-u)
    psi solved for psi' on the samples; ``d2psi`` is the second-order finite
    difference of ``psi_off`` (one-sided at the ends).  ``u_off`` is u - b0
    and ``psi_off`` is psi - delta at full precision; both are resampled
    from the shifted background profile, so small combinations keep
    precision, by cubic Hermite pieces on the profile's own slopes, within
    h^4/384 max|f''''| (see psi_hat_from_background).

    The coefficient set at the profile's own states (``coeffs``) and the
    shock row (``shock_row``) are evaluated on first use and shared by every
    check on the profile; the dataclass is frozen, so neither can go stale.
    """

    R: np.ndarray
    psi: np.ndarray
    psi_off: np.ndarray
    dpsi: np.ndarray
    d2psi: np.ndarray
    u_off: np.ndarray
    b0: float
    delta: float
    gas: GasParams
    n: int

    def states(self, idx=slice(None)) -> HodographState:
        """Radial background states on the grid (or a sub-slice)."""
        return HodographState(
            R=self.R[idx], psi=self.psi[idx], b=self.b0, dRpsi=self.dpsi[idx],
        )

    @cached_property
    def coeffs(self) -> CoeffSet:
        """second_order_coeffs at every grid state, unit time.  Every check
        and report shares these arrays, so they are read-only."""
        cs = second_order_coeffs(self.states(), self.gas, self.b0, self.n)
        for x in vars(cs).values():
            x.setflags(write=False)
        return cs

    @cached_property
    def shock_row(self) -> dict:
        """The mass row at R = 2 and its derivatives (see _shock_row)."""
        return _shock_row(self)


def _fd_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative on a uniform grid along the last axis:
    centred inside, one-sided at the ends.  One call of the bound form
    _fd_bound, so y is as that takes it."""
    return _fd_bound(y, h, np.empty(y.shape))()


def _fd_bound(y: np.ndarray, h: float, out: np.ndarray):
    """_fd_derivative bound to its source y, its output out and the spacing
    h: a function of no arguments that differences y's current contents
    into out and returns out.  y and out are float64 arrays of one shape,
    not overlapping, each flattening to a view of itself (a 2-D one is
    C-contiguous); ValueError otherwise, as a copy would go stale.

    The rows of a 2-D y are differenced in one centred operation over
    their concatenation; the entries where that straddles two rows are the
    end nodes, which the one-sided stencils then overwrite.  The stencils
    are taken on floats, which round as the array operations do, read and
    written through memoryviews, the cheapest float access to an array.
    """
    n = y.shape[-1]
    flat, d = y.reshape(-1), out.reshape(-1)
    if not (np.may_share_memory(flat, y) and np.may_share_memory(d, out)):
        raise ValueError("_fd_bound: y and out must flatten to views (C-contiguous)")
    h2 = 2.0 * float(h)
    hi, lo, inner, h2_ = flat[2:], flat[:-2], d[1:-1], np.array(h2)
    src, dst = memoryview(flat), memoryview(d)
    ends = [(i, i + n - 1) for i in range(0, flat.size, n)]
    sub, div = np.subtract, np.divide

    def apply():
        sub(hi, lo, inner)
        div(inner, h2_, inner)
        for a, b in ends:
            dst[a] = (-3.0 * src[a] + 4.0 * src[a + 1] - src[a + 2]) / h2
            dst[b] = (3.0 * src[b] - 4.0 * src[b - 1] + src[b - 2]) / h2
        return out

    return apply


def _fd_second(y: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h ** 2
    d[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / h ** 2
    d[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / h ** 2
    return d


def psi_hat_from_background(sol: SelfSimilarSolution, n_points: int = 129) -> PsiHat:
    """Straighten the background profile onto a uniform R-grid.

    psi(R(s)) = s - b0 - phi(s)/b0 with R(s) = (s - b0)/psi + 1; using the
    shifted profile arrays this is psi = delta + q/b0 with no cancellation.
    Both columns, q/b0 and u_off, are resampled onto uniform R by the cubic
    Hermite piece on the two samples that bracket each target, with exact
    slopes, as the profile carries them: d(q/b0)/ds = -u_off/b0 (q is the
    integral of u_off from s0 down) and du/ds from the ODE (``sol.du``),
    each over dR/ds = (psi + s_off u_off/b0)/psi^2.  So it misses by at
    most h^4/384 max|f''''| on a piece h wide in R, and R = 1 and R = 2
    are end samples.  The grid needs at least 4 points, which the end
    stencils of psi'' read.
    """
    if n_points < 4:
        raise ValueError(f"n_points = {n_points}: the straightened grid needs at "
                         "least 4 points, which the end stencils of psi'' read")
    b0, u_s = sol.b0, sol.u_off
    q_b0 = sol.q / b0
    psi_s = sol.delta + q_b0
    if np.any(psi_s <= 0.0):
        raise ValueError("straightened profile not positive; corrupted background")
    R_s = sol.s_off / psi_s + 1.0
    if np.any(np.diff(R_s) <= 0.0):
        raise ValueError("non-monotone R(s); corrupted background")

    R = np.linspace(1.0, 2.0, n_points)
    # resample the small offset psi - delta (= q/b0), so derivative stencils
    # act on full-precision values instead of quantized O(delta) floats.
    # Samples k[0] and k[1] bracket each target; R = 2 takes the last piece
    i = np.minimum(np.searchsorted(R_s, R, side="right"), len(R_s) - 1) - 1
    k = np.stack([i, i + 1])
    s_off, psi, u = sol.s_off[k], psi_s[k], u_s[k]
    du = _rhs(b0 + s_off, sol.csq[k], sol.w[k], sol.gas, sol.n)[1]
    ds_dR = psi * psi / (psi + s_off * u / b0)
    f, m = np.stack([q_b0[k], u]), np.stack([-u / b0, du]) * ds_dR
    R_k = R_s[k]
    h = R_k[1] - R_k[0]
    t = (R - R_k[0]) / h
    t2 = t * t
    t3 = t2 * t
    # the Hermite basis: exactly sample k[0] at t = 0 and k[1] at t = 1
    psi_off, u_off = ((2.0 * t3 - 3.0 * t2 + 1.0) * f[:, 0] + (3.0 * t2 - 2.0 * t3) * f[:, 1]
                      + ((t3 - 2.0 * t2 + t) * m[:, 0] + (t3 - t2) * m[:, 1]) * h)
    psi = sol.delta + psi_off
    # psi' from the first-order identity (b0 + (1-R)(b0-u)) psi' = (b0-u) psi
    bu = -u_off
    return PsiHat(
        R=R, psi=psi, psi_off=psi_off, dpsi=bu * psi / (b0 + (1.0 - R) * bu),
        d2psi=_fd_second(psi_off, R[1] - R[0]), u_off=u_off,
        b0=b0, delta=sol.delta, gas=sol.gas, n=sol.n,
    )


def transform_identity_residual(ph: PsiHat) -> float:
    """Max residual of the first-derivative identity linking psi to the flow.

    (b0 + (1-R)(b0-u)) psi' = (b0-u) psi must hold along the background;
    normalized by b0 * max|psi'|.  ``ph.dpsi`` is that identity solved for
    psi', so psi' here is the second-order stencil of psi - delta
    (``psi_off``), and the residual falls with the stencil's error, about
    4x per halving of the R-step.
    """
    dpsi = _fd_derivative(ph.psi_off, ph.R[1] - ph.R[0])
    bu = -ph.u_off  # b0 - u
    lhs = (ph.b0 + (1.0 - ph.R) * bu) * dpsi
    rhs = bu * ph.psi
    return float(np.max(np.abs(lhs - rhs)) / (ph.b0 * np.max(np.abs(dpsi))))


def profile_ode_residual(ph: PsiHat) -> float:
    """Max interior residual of the background profile's second-order ODE.

    |A4_2 psi'' + A7_2| over interior grid points, normalized by b0^2 so the
    value is comparable across piston speeds.
    """
    idx = slice(1, -1)
    cs = second_order_coeffs(ph.states(idx), ph.gas, ph.b0, ph.n)
    return float(np.max(np.abs(cs.A4_2 * ph.d2psi[idx] + cs.A7_2)) / ph.b0 ** 2)


def shock_row_residual(ph: PsiHat) -> float:
    """Residual of the shock-side boundary row of the profile problem.

    G = H psi - (1/b0)(H - rho0)(psi + psi'(2))(b0 + psi) = 0 at R = 2,
    normalized by H * psi.
    """
    return float(abs(ph.shock_row["G"]) / (ph.shock_row["H"] * ph.psi[-1]))


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

@dataclass
class EllipticityReport:
    R: np.ndarray
    A4_2: np.ndarray
    A5_2: np.ndarray
    A6_2_eigmax: np.ndarray      # largest eigenvalue of the angular block
    margin: float                # most positive (worst) value of A4_2 and eigmax
    passed: bool


def check_ellipticity(ph: PsiHat) -> EllipticityReport:
    """Check that the profile equation is elliptic on the whole slab:

    A4_2 < 0 and the angular second-order block negative definite at every
    grid point of the straightened background ``ph``.
    """
    cs = ph.coeffs
    A62 = np.moveaxis(cs.A6_2, -1, 0)  # (N, 3, 3)
    eigmax = np.max(np.linalg.eigvalsh(A62), axis=-1)
    margin = float(max(np.max(cs.A4_2), np.max(eigmax)))
    return EllipticityReport(
        R=ph.R,
        A4_2=cs.A4_2,
        A5_2=cs.A5_2,
        A6_2_eigmax=eigmax,
        margin=margin,
        passed=bool(margin < 0.0),
    )


# ---------------------------------------------------------------------------
# boundary sign quantities
# ---------------------------------------------------------------------------

def _directional(f, st: HodographState, slot: str):
    """Complex-step derivative f(st with slot + i h).imag / h, h = 1e-20 psi,
    of f with respect to one state slot (slot in {'psi', 'dRpsi', 'dTpsi'}).
    No difference is taken, so nothing cancels: the value is exact to
    rounding at any h small enough that the O(h^2) term is below it."""
    h = 1e-20 * st.psi
    return f(replace(st, **{slot: getattr(st, slot) + 1j * h})).imag / h


def _shock_row(ph: PsiHat) -> dict:
    """The mass row G = H psi - (H - rho0) sigma/(b0 a1), sigma = dTa0 + a0,
    at the shock R = 2 and unit time T = 1, and its derivatives along the
    psi-slots, at the background.  With H the density of bernoulli_argument
    (vacuum-checked) and D0 = psi - sigma/(b0 a1), the dict holds H, G and

        B20    = dG/d(dTpsi) = -(H - rho0)/(b0 a1) + D0 H_T,
        B21    = dG/d(dRpsi) = -(H - rho0) sigma/b0 + D0 H_R,
        CalB21 = -(H - rho0) psi/b0 + D0 H_R,
        D22_0  = dG/dpsi = rho0 - (H - rho0)((sigma - b0) + 1/a1)/b0 + D0 H_psi,

    with sigma - b0 = dTa0 + (R - 1) psi (the background has b = b0) and
    H_psi, H_T, H_R complex steps of H alone (see _directional).  No two
    terms of size H cancel there; D22_0 = H - (H - rho0)(sigma + 1/a1)/b0,
    CalB21 = B21 + (H - rho0) or a step of G itself would leave a rounding
    floor of eps H.
    """
    gas, b0 = ph.gas, ph.b0

    def H(st):
        return _density_at(_nonvacuum(bernoulli_argument(st, gas, b0), gas), gas)

    st2 = ph.states(-1)
    psi2 = ph.psi[-1]
    a0, a1 = a_coeffs(st2)[:2]
    H2 = H(st2)
    sigma = _dTa0(st2) + a0
    D0 = psi2 - sigma / (b0 * a1)
    dH_dpsi = _directional(H, st2, "psi")
    dH_dT = _directional(H, st2, "dTpsi")
    dH_dR = _directional(H, st2, "dRpsi")
    return {
        "H": H2,
        "G": H2 * psi2 - (H2 - gas.rho0) / (b0 * a1) * sigma,
        "B20": float(-(H2 - gas.rho0) / (b0 * a1) + D0 * dH_dT),
        "B21": float(-(H2 - gas.rho0) * sigma / b0 + D0 * dH_dR),
        "CalB21": float(-psi2 / b0 * (H2 - gas.rho0) + D0 * dH_dR),
        "D22_0": float(gas.rho0 - (H2 - gas.rho0)
                       * (_dTa0(st2) + (st2.R - 1.0) * psi2 + 1.0 / a1) / b0
                       + D0 * dH_dpsi),
    }


#: boundary_signs checks the layers k = 0 .. K_MAX
K_MAX = 3


@dataclass
class BoundarySignReport:
    """Signs of the layer-k boundary/zeroth-order coefficients at the
    background: interior coefficient E_k (positive), shock-row gradient
    coefficient D21_k (negative), shock-row value coefficient D22_k, and
    the shock-side stability prefactors B20, B21 (negative), B22 (zero on
    radial states).

    D21_k and D22_k are the closed forms of _shock_row.  D21_k = B21 =
    dG/d(dRpsi) for every k, G the mass row H psi - (H - rho0) sigma/(b0 a1),
    sigma = dTa0 + a0; D22_k is its psi-derivative plus k times its dTpsi
    derivative B20:

        D22_k = rho0 - (H - rho0)((2+k) psi + (1+k) dRpsi)/b0
                + D0 (H_psi + k H_T),   D0 = psi - sigma/(b0 a1),

    where D0 equals -psi rho0/(H - rho0) only where the row vanishes.  The
    large-b0 limit is rho0 (1 - (2+k)/n).  D22_k is negative only from
    layer k = n - 1 on; at k = n - 2 it vanishes at leading order (-1.4e-7
    at gamma 1.4, b0 80, n 3; at gamma 1.2, -1.5e-10 for b0 40, n 3 and
    -1.4e-13 and -1.9e-13 for b0 80, n 2 and 3), so ``passed`` gates D22_k
    for k >= n - 1 only.  B20 equals StabilityReport.CalB20.
    """

    E_min: dict           # k -> min over R of E_k
    D21: dict             # k -> value at R=2
    D22: dict             # k -> value at R=2
    n: int                # space dimension, sets the D22 sign pattern
    B20: float
    B21: float
    B22: np.ndarray
    passed: bool


def boundary_signs(ph: PsiHat) -> BoundarySignReport:
    """Evaluate the layer-k sign pattern on the straightened radial
    background ``ph``.

    Directional derivatives with respect to the psi-slots are complex steps
    (see _directional).  The two neighbours of the interior rows (psi + ih,
    dTpsi + ih) are evaluated in one second_order_coeffs call on the two
    grids stacked end to end.  The shock-row coefficients at R = 2 are the
    closed forms of _shock_row: D21_k = B21 and D22_k = D22_0 + k B20.
    """
    gas, b0 = ph.gas, ph.b0
    h = 1e-20 * ph.psi
    nbrs = HodographState(
        R=np.tile(ph.R, 2),
        psi=np.concatenate((ph.psi + 1j * h, ph.psi)),
        b=b0,
        dRpsi=np.tile(ph.dpsi, 2),
        dTpsi=np.concatenate((np.zeros_like(h), 1j * h)),
    )
    cs = second_order_coeffs(nbrs, gas, b0, ph.n)
    A4_1, A7_1, A4_2, A7_2 = (
        np.reshape(x, (2, -1)) for x in (cs.A4_1, cs.A7_1, cs.A4_2, cs.A7_2))
    # interior rows at T = 1: layer 2 alone for psi, layers 1 and 2 for dTpsi
    d2 = ph.d2psi
    row = d2 * A4_2 + A7_2
    row1 = d2 * A4_1 + A7_1 + row
    dpsi_E = row[0].imag / h
    dTpsi_E = row1[1].imag / h

    E = {}
    for k in range(K_MAX + 1):
        Ek = k * (k - 1) * ph.psi + dpsi_E + k * dTpsi_E
        E[k] = float(np.min(Ek))

    shock = ph.shock_row
    B20, B21 = shock["B20"], shock["B21"]
    B22 = np.zeros(3)  # all angular inputs vanish on radial states
    D21 = dict.fromkeys(range(K_MAX + 1), B21)
    D22 = {k: shock["D22_0"] + k * B20 for k in range(K_MAX + 1)}

    passed = (
        all(v > 0.0 for v in E.values())
        and all(v < 0.0 for k, v in D22.items() if k >= ph.n - 1)
        and B21 < 0.0
        and np.all(B22 == 0.0)
    )
    return BoundarySignReport(
        E_min=E, D21=D21, D22=D22, n=ph.n, B20=B20, B21=B21, B22=B22,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# local stability condition on the shock side
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """First-order symbol data of the evolution form of the problem and the
    shock-side local stability checks (transversality, time-like direction,
    positivity of the boundary quadratic form).

    CalB20 and CalB21 are the shock-row prefactors of the evolution form.
    CalB21 weights H - rho0 by psi where BoundarySignReport.B21 =
    dG/d(dRpsi) weights it by a0 = b0 + psi, so CalB21 = B21 + (H - rho0),
    H the density at R = 2.
    """

    R: np.ndarray
    CalA1: np.ndarray
    CalA2: np.ndarray
    CalA3: np.ndarray
    CalA4: np.ndarray
    CalA5: np.ndarray
    CalA6: np.ndarray
    CalB11: float
    CalB12: np.ndarray
    CalB20: float
    CalB21: float
    CalB22: np.ndarray
    delta0: float                # (gamma-1)(s0-b0)^2/(4 b0^2), unit-free
    transversal: bool            # |B21| > delta0
    timelike_value: float        # B20/B21 + A2/|A4| at R=2
    timelike: bool
    quad_form: float             # -(1/A4) Btilde M Btilde^T at R=2
    quad_form_positive: bool
    cross_terms: float           # sum |B22| + |A5| at R=2 (zero radially)
    neumann_residuals: tuple     # |A2|, |A4 + B11|, max|A5 + B12| at R=1

    @property
    def passed(self) -> bool:
        """All shock-side checks hold and the piston row is Neumann.

        The 1e-10 Neumann bound: at R = 1 a radial state has a0 = b0,
        a1 = 1/psi and slip = -b0 psi'/psi, so the residuals are |CalA2| =
        b0 |psi'|/c^2, |CalA4 + CalB11| = slip^2/c^2 (rounded at eps, as
        it is formed from CalA4 = slip^2/c^2 - 1) and |CalA5 + CalB12| = 0,
        with c^2 at the piston.  psi' there is the identity's, -(u - b0)
        psi/b0, so |CalA2| = |w(b0)| psi/c^2, with w(b0) = u(b0) - b0 the
        final pass's piston mismatch.  That pass rejects |w(b0)| > 1e-9 b0,
        so the bound holds wherever b0 psi/c^2 < 0.1 at the piston; fast
        pistons have b0 psi/c^2 ~ 2 delta/((gamma-1) b0), at most 0.07 on
        gamma 1.2-2.9, b0 10-80.  The shooting leaves |w(b0)| at about
        1e-13 delta, and the residuals read at most 3.4e-16 there.
        """
        return (self.transversal and self.timelike and self.quad_form_positive
                and max(self.neumann_residuals) < 1e-10)


def local_stability(ph: PsiHat) -> StabilityReport:
    """Evaluate the evolution-form symbol on the straightened background
    ``ph`` (unit time scale) and run the shock-side local stability checks.

    The checks compare against the floor delta0 = (gamma-1) delta^2/(4 b0^2)
    with delta = s0 - b0.  Every symbol entry is a coefficient family times
    psi/A0, with A0 the Bernoulli argument (speed squared), so the entries
    and the quadratic form carry no unit: the form is timelike_value^2 *
    CalA1 ~ 2 delta^2/((gamma-1) b0^2).  The floor must be unit-free too.
    The stand-off delta carries speed, and b0 is the speed the straightening
    map psi = s - b - phi/b0 divides by, so the floor uses delta/b0.  Under a
    change of the speed unit, (b0, A) -> (lam b0, lam^2 A), delta scales by
    lam and the report is unchanged.
    """
    gas, b0 = ph.gas, ph.b0

    cs = ph.coeffs
    A1, A2, A3, A4, A5, A6, A7 = cs.assembled(1.0)
    pref = ph.psi / (2.0 * (gas.gamma - 1.0) * cs.A0)
    CalA1 = pref * 2.0 * A1
    CalA2 = pref * A2
    CalA3 = pref * A3
    CalA4 = pref * 2.0 * A4
    CalA5 = pref * A5
    CalA6 = pref * 2.0 * A6
    CalB11 = 1.0  # radial piston: 1 + sum (Zb/b)^2
    CalB12 = np.zeros(3)

    # shock row prefactors at R = 2
    CalB20, CalB21 = ph.shock_row["B20"], ph.shock_row["CalB21"]
    CalB22 = np.zeros(3)

    delta0 = (gas.gamma - 1.0) * (ph.delta / b0) ** 2 / 4.0

    A4_2v = float(CalA4[-1])
    tl_value = CalB20 / CalB21 + float(CalA2[-1]) / abs(A4_2v)

    # boundary quadratic form with the 5x5 symbol matrix at R = 2
    M = np.zeros((5, 5))
    M[0, 0] = CalA1[-1]
    M[0, 1] = M[1, 0] = CalA2[-1]
    M[1, 1] = CalA4[-1]
    for i in range(3):
        M[0, 2 + i] = M[2 + i, 0] = CalA3[i, -1]
        M[1, 2 + i] = M[2 + i, 1] = CalA5[i, -1]
        for j in range(3):
            M[2 + i, 2 + j] = CalA6[i, j, -1]
    Bvec = np.array([CalB20, CalB21, *CalB22])
    Nvec = np.array([CalA2[-1], CalA4[-1], *CalA5[:, -1]])
    Btilde = Bvec / CalB21 + Nvec / abs(A4_2v)
    quad = float(-(Btilde @ M @ Btilde) / A4_2v)

    cross = float(np.sum(np.abs(CalB22)) + np.sum(np.abs(CalA5[:, -1])))
    neum = (
        float(abs(CalA2[0])),
        float(abs(CalA4[0] + CalB11)),
        float(np.max(np.abs(CalA5[:, 0] + CalB12))),
    )
    return StabilityReport(
        R=ph.R, CalA1=CalA1, CalA2=CalA2, CalA3=CalA3, CalA4=CalA4, CalA5=CalA5,
        CalA6=CalA6, CalB11=CalB11, CalB12=CalB12, CalB20=CalB20, CalB21=CalB21,
        CalB22=CalB22, delta0=delta0,
        transversal=bool(abs(CalB21) > delta0),
        timelike_value=tl_value, timelike=bool(tl_value > delta0),
        quad_form=quad, quad_form_positive=bool(quad > delta0),
        cross_terms=cross, neumann_residuals=neum,
    )
