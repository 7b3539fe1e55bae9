"""Oracle for verify's straightened suites.

The functions below the banner are the implementations that evaluated each
coefficient family once per stencil point, solved the spline system one
column at a time and took the boundary suite's derivatives by centred
differences with step 1e-5 psi, kept verbatim.  The package's current
ones, which share the coefficient set and the shock row per profile, hoist
repeated subexpressions and solve all spline columns in one pass, must
reproduce the straightened profile, the ellipticity report and the shock
row residual bit for bit (compared by ``tobytes``, so -0.0 and 0.0
differ).  The boundary and stability reports now take those derivatives by
complex step, which has no truncation or cancellation error; they must
agree with the centred differences within those differences' own error.
"""

import functools
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from conicshock import _numerics, hodograph
from conicshock.background import solve_background
from conicshock.gas import GasParams, _density_at, _nonvacuum
from conicshock.hodograph import (
    K_MAX,
    CoeffSet,
    EllipticityReport,
    HodographState,
    PsiHat,
    StabilityReport,
)

GAMMAS = (1.2, 1.4, 2.0, 2.9)
DIMS = (2, 3)
SPEEDS = (10.0, 40.0, 80.0)


# ---------------------------------------------------------------------------
# pre-change implementations, verbatim
# ---------------------------------------------------------------------------

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
    a0, a1, a2, a3, a4 = a_coeffs(st)
    return (
        gas.B0
        - b0 * (st.R - 2.0) * st.psi
        + T * b0 * a1 * a3
        + b0 * a0 * a1 * a2
        - 0.5 * b0 ** 2 * (a1 * a2) ** 2
        - 0.5 * b0 ** 2 / a0 ** 2 * np.sum((a1 * a4) ** 2, axis=0)
    )


def second_order_coeffs(st: HodographState, gas: GasParams, b0: float, T: float = 1.0) -> CoeffSet:
    """Evaluate every coefficient family by its printed closed form."""
    a0, a1, a2, a3, a4 = a_coeffs(st)
    A0 = _nonvacuum(bernoulli_argument(st, gas, b0, T), gas)
    H = _density_at(A0, gas)
    csq = (gas.gamma - 1.0) * A0

    R = st.R
    dRpsi, dTpsi, dTb, d2Tb = st.dRpsi, st.dTpsi, st.dTb, st.d2Tb
    Zpsi, Zb = st.Zpsi, st.Zb
    psi = st.psi
    dTa0 = _dTa0(st)
    Za0 = _Za0(st)
    zeros3 = np.zeros_like(a4)

    # slip = b0*a1*a2 - a0 is (u - s) expressed in the new variables
    slip = b0 * a1 * a2 - a0
    a4sq = np.sum(a4 ** 2, axis=0)

    # ----- T^0 layer ------------------------------------------------------
    A1_0 = psi
    A2_0 = (R - 2.0) * dTb - a1 * ((R - 1.0) * a3 + psi * dTa0)
    A3_0 = zeros3
    A4_0 = dTa0 * a1 * ((R - 1.0) * a1 * a3 - (R - 2.0) * dTb)
    A5_0 = zeros3
    A6_0 = np.zeros((3, 3) + np.shape(psi))
    A7_0 = (
        dTpsi ** 2 + psi * d2Tb + dTpsi * dTb + (R - 2.0) * d2Tb * dRpsi
        - a1 * (dTpsi * a3 + dTa0 * (dTpsi * dRpsi + 2.0 * dRpsi * dTb))
        + 2.0 * dTa0 * a1 ** 2 * a3 * dRpsi
    )

    # ----- T^-1 layer -----------------------------------------------------
    A1_1 = np.zeros_like(psi)
    A2_1 = (
        2.0 * slip * (1.0 - (R - 1.0) * a1 * dRpsi)
        + 2.0 * b0 * a1 / a0 ** 2
        * ((R - 1.0) * a1 * a4sq - (R - 2.0) * np.sum(Zb * a4, axis=0))
    )
    A3_1 = -2.0 * b0 / a0 ** 2 * a1 * a4 * psi
    A4_1 = (
        2.0 * dTa0 * a1 * slip * ((R - 1.0) * a1 * dRpsi - 1.0)
        + 2.0 * b0 / a0 ** 2 * dTa0 * a1 ** 2
        * ((R - 2.0) * np.sum(Zb * a4, axis=0) - (R - 1.0) * a1 * a4sq)
    )
    A5_1 = 2.0 * b0 / a0 ** 2 * dTa0 * a1 ** 2 * psi * a4
    A6_1 = np.zeros((3, 3) + np.shape(psi))
    A7_1 = (
        2.0 * a1 * (b0 / a0 ** 2 * a1 * a4sq - dRpsi * slip)
        * (dTpsi - 2.0 * a1 * dTa0 * dRpsi)
        + 2.0 * a3
        - 2.0 * b0 / a0 ** 2 * a1 * np.sum(
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
    K = np.empty((3, 3) + np.shape(psi))
    for i in range(3):
        for j in range(3):
            K[i, j] = (csq if i == j else 0.0) - (b0 * a1 / a0) ** 2 * a4[i] * a4[j]

    A4_2 = (
        a1 * (slip ** 2 - csq) * (1.0 - (R - 1.0) * a1 * dRpsi)
        - 2.0 * b0 * a1 / a0 ** 2 * slip
        * np.sum(a4 * ((R - 2.0) * a1 * Zb - (R - 1.0) * a1 ** 2 * a4), axis=0)
        + 1.0 / a0 ** 2 * np.sum(
            K * ((R - 2.0) * Zb - (R - 1.0) * a1 * a4)[None, :] * (a1 * Za0)[:, None],
            axis=(0, 1),
        )
    )
    A5_2 = (
        -2.0 * b0 * a1 ** 2 / a0 ** 2 * slip * a4 * psi
        + 1.0 / a0 ** 2 * np.sum(
            K * (a1 * Za0 * dRpsi + (R - 1.0) * a1 * a4 - (R - 2.0) * Zb)[None, :],
            axis=1,
        )
    )
    A6_2 = -K * psi / a0 ** 2
    A7_2 = (
        2.0 * (a1 * dRpsi) ** 2 * (csq - slip ** 2)
        + 2.0 * a2 / a0 * csq
        + b0 * a1 / a0 ** 3 * (b0 * a1 * a2 - 2.0 * a0) * a4sq
        - 2.0 * b0 * a1 ** 2 / a0 ** 2 * slip * dRpsi
        * np.sum(a4 * (Zpsi + 2.0 * Zb - 2.0 * a1 * a4), axis=0)
        - 1.0 / a0 ** 2 * np.sum(
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


def check_ellipticity(ph: PsiHat) -> EllipticityReport:
    """Check that the profile equation is elliptic on the whole slab:

    A4_2 < 0 and the angular second-order block negative definite at every
    grid point of the straightened background ``ph``.
    """
    cs = second_order_coeffs(ph.states(), ph.gas, ph.b0)
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


def _directional(f, st: HodographState, slot: str, step: float):
    """Centered finite-difference derivative of f with respect to one state
    slot (slot in {'psi', 'dRpsi', 'dTpsi'})."""
    value = getattr(st, slot)
    return (f(replace(st, **{slot: value + step}))
            - f(replace(st, **{slot: value - step}))) / (2.0 * step)


def _shock_row(ph: PsiHat):
    """The mass row G = H psi - (H - rho0) sigma/(b0 a1), sigma = dTa0 + a0,
    at the shock R = 2 and unit time T = 1 as a function of the state, and at
    the background the density H of bernoulli_argument (vacuum-checked) and,
    with D0 = psi - sigma/(b0 a1), the prefactors

        B20    = -(H - rho0)/(b0 a1) + D0 dH/d(dTpsi),
        B21    = -(H - rho0) sigma/b0 + D0 dH/d(dRpsi),
        CalB21 = -(H - rho0) psi/b0 + D0 dH/d(dRpsi).

    The H-derivatives are centred differences with step 1e-5 psi.
    """
    gas, b0 = ph.gas, ph.b0

    def H(st):
        return _density_at(_nonvacuum(bernoulli_argument(st, gas, b0), gas), gas)

    def G(st):
        a0, a1 = a_coeffs(st)[:2]
        Hs = H(st)
        return Hs * st.psi - (Hs - gas.rho0) / (b0 * a1) * (_dTa0(st) + a0)

    st2 = ph.states(-1)
    psi2 = ph.psi[-1]
    a0, a1 = a_coeffs(st2)[:2]
    H2 = H(st2)
    sigma = _dTa0(st2) + a0
    D0 = psi2 - sigma / (b0 * a1)
    dH_dT = _directional(H, st2, "dTpsi", 1e-5 * psi2)
    dH_dR = _directional(H, st2, "dRpsi", 1e-5 * psi2)
    return G, {
        "H": H2,
        "B20": float(-(H2 - gas.rho0) / (b0 * a1) + D0 * dH_dT),
        "B21": float(-(H2 - gas.rho0) * sigma / b0 + D0 * dH_dR),
        "CalB21": float(-psi2 / b0 * (H2 - gas.rho0) + D0 * dH_dR),
    }


@dataclass
class BoundarySignReport:
    """The report with the flag that marked a step too small to resolve."""

    E_min: dict           # k -> min over R of E_k
    D21: dict             # k -> value at R=2
    D22: dict             # k -> value at R=2
    n: int                # space dimension, sets the D22 sign pattern
    B20: float
    B21: float
    B22: np.ndarray
    degenerate: bool
    passed: bool


def boundary_signs(ph: PsiHat) -> BoundarySignReport:
    """Evaluate the layer-k sign pattern on the straightened radial
    background ``ph``.

    Directional derivatives with respect to the psi-slots use centered
    differences with step 1e-5 * psi.
    """
    gas, b0 = ph.gas, ph.b0

    def interior_row(stv, d2psi):
        cs = second_order_coeffs(stv, gas, b0)
        return d2psi * cs.A4_2 + cs.A7_2

    def interior_row_layer1(stv, d2psi):
        cs = second_order_coeffs(stv, gas, b0)
        return d2psi * cs.A4_1 + cs.A7_1 + (d2psi * cs.A4_2 + cs.A7_2)

    st_all = ph.states()
    step = 1e-5 * ph.psi

    # the finite-difference step must move the Bernoulli argument by well
    # more than its own rounding unit, else every derivative is noise
    A0_ref = float(bernoulli_argument(ph.states(-1), gas, b0))
    degenerate = bool(b0 * 1e-5 * ph.psi[-1] < 50.0 * np.spacing(A0_ref))

    E, D21, D22 = {}, {}, {}
    d2 = ph.d2psi
    dpsi_E = _directional(lambda s: interior_row(s, d2), st_all, "psi", step)
    dTpsi_E = _directional(lambda s: interior_row_layer1(s, d2), st_all, "dTpsi", step)
    for k in range(K_MAX + 1):
        Ek = k * (k - 1) * ph.psi + dpsi_E + k * dTpsi_E
        E[k] = float(np.min(Ek))

    st2 = ph.states(-1)
    step2 = 1e-5 * ph.psi[-1]
    shock_row, pref = _shock_row(ph)
    d_dR = _directional(shock_row, st2, "dRpsi", step2)
    d_psi = _directional(shock_row, st2, "psi", step2)
    d_dT = _directional(shock_row, st2, "dTpsi", step2)
    for k in range(K_MAX + 1):
        D21[k] = float(d_dR)
        D22[k] = float(d_psi + k * d_dT)

    # shock-side stability prefactors, exact expressions at the background
    B20, B21 = pref["B20"], pref["B21"]
    B22 = np.zeros(3)  # all angular inputs vanish on radial states

    passed = (
        not degenerate
        and all(v > 0.0 for v in E.values())
        and all(v < 0.0 for v in D21.values())
        and all(v < 0.0 for k, v in D22.items() if k >= ph.n - 1)
        and B21 < 0.0
        and np.all(B22 == 0.0)
    )
    return BoundarySignReport(
        E_min=E, D21=D21, D22=D22, n=ph.n, B20=B20, B21=B21, B22=B22,
        degenerate=degenerate, passed=bool(passed),
    )


def shock_row_residual(ph: PsiHat) -> float:
    """Residual of the shock-side boundary row of the profile problem.

    G = H psi - (1/b0)(H - rho0)(psi + psi'(2))(b0 + psi) = 0 at R = 2,
    normalized by H * psi.
    """
    G, pref = _shock_row(ph)
    return float(abs(G(ph.states(-1))) / (pref["H"] * ph.psi[-1]))


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

    st = ph.states()
    cs = second_order_coeffs(st, gas, b0)
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
    pref = _shock_row(ph)[1]
    CalB20, CalB21 = pref["B20"], pref["CalB21"]
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


def _dgtsv(dl: list, d: list, du: list, b: np.ndarray) -> np.ndarray:
    """Solution of the tridiagonal system with sub-, main and superdiagonal
    dl, d, du (float lists, overwritten) for each column of b, bitwise as
    LAPACK ``dgtsv``: Gaussian elimination with partial pivoting, where a row
    interchange fills a second superdiagonal du2.
    """
    n = len(d)
    du2 = [0.0] * (n - 2)
    swaps, facts = [], []
    for i in range(n - 1):
        swap = not abs(d[i]) >= abs(dl[i])
        if swap:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
        elif d[i] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        else:
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
        swaps.append(swap)
        facts.append(fact)
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    s = np.empty_like(b)
    for j in range(b.shape[1]):
        bj = b[:, j].tolist()
        for i in range(n - 1):
            fact = facts[i]
            if swaps[i]:
                bj[i], bj[i + 1] = bj[i + 1], bj[i] - fact * bj[i + 1]
            else:
                bj[i + 1] = bj[i + 1] - fact * bj[i]
        bj[-1] = bj[-1] / d[-1]
        bj[-2] = (bj[-2] - du[-1] * bj[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            # the du2 term is kept where it is zero, so signed zeros come
            # out as in LAPACK
            bj[i] = (bj[i] - du[i] * bj[i + 1] - du2[i] * bj[i + 2]) / d[i]
        s[:, j] = bj
    return s


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _bits(x):
    """Bytes of a report value, so that equality is bitwise."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, (bool, int)):
        return x
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_report(new, old):
    assert type(new) is type(old)
    for f in fields(old):
        assert _bits(getattr(new, f.name)) == _bits(getattr(old, f.name)), f.name


@functools.cache
def _profiles(gamma, n, b0):
    """The straightened profile built with the current spline solve and with
    the column-by-column one."""
    sol = solve_background(b0, GasParams(A=1.0, gamma=gamma, rho0=1.0), n=n)
    new = hodograph.psi_hat_from_background(sol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_numerics, "_dgtsv", _dgtsv)
        old = hodograph.psi_hat_from_background(sol)
    return new, old


@pytest.mark.parametrize("b0", SPEEDS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_suite_reports_bitwise(gamma, n, b0):
    ph, ph_old = _profiles(gamma, n, b0)
    for f in fields(PsiHat):
        a, b = getattr(ph, f.name), getattr(ph_old, f.name)
        assert a is b if f.name == "gas" else _bits(a) == _bits(b), f.name
    _assert_same_report(hodograph.check_ellipticity(ph), check_ellipticity(ph_old))
    assert _bits(hodograph.shock_row_residual(ph)) == _bits(shock_row_residual(ph_old))


#: relative step of the oracle's centred differences (step = FD_STEP psi)
FD_STEP = 1e-5

#: report fields carried by a derivative of the density H along a psi-slot
FD_FIELDS = {"E_min", "D21", "D22", "B20", "B21",
             "CalB20", "CalB21", "timelike_value", "quad_form"}


@pytest.mark.parametrize("b0", SPEEDS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_suite_reports_within_fd_error(gamma, n, b0):
    # A centred difference misses by its truncation, step^2/6 times the
    # third derivative.  H is the Bernoulli argument to the power
    # p = 1/(gamma - 1) and the stability fields weight it by the
    # dimension n, so the relative miss is a few n p FD_STEP^2, and
    # 10 n p FD_STEP^2 bounds it (at most 64 FD_STEP^2 seen: quad_form at
    # gamma 1.2, n 3).  D22 is a small sum of terms of size H psi, so it
    # also carries the rounding of the mass row over the step,
    # eps H psi / (FD_STEP psi); it is compared only where the oracle's
    # step resolved it (not degenerate).  Every other field is bitwise,
    # and so is every verdict the oracle resolved.
    ph, _ = _profiles(gamma, n, b0)
    rtol = 10.0 * n / (gamma - 1.0) * FD_STEP ** 2
    H = ph.shock_row[1]["H"]
    d22_atol = 8.0 * np.finfo(float).eps * H / FD_STEP
    old_signs = boundary_signs(ph)
    for new, old in ((hodograph.boundary_signs(ph), old_signs),
                     (hodograph.local_stability(ph), local_stability(ph))):
        for f in fields(new):
            a, b = getattr(new, f.name), getattr(old, f.name)
            if f.name in FD_FIELDS:
                if f.name == "D22" and old_signs.degenerate:
                    continue
                atol = d22_atol if f.name == "D22" else 0.0
                pairs = [(a[k], b[k]) for k in b] if isinstance(b, dict) else [(a, b)]
                for x, y in pairs:
                    assert abs(x - y) <= atol + rtol * abs(y), f.name
            elif f.name != "passed" or not old_signs.degenerate:
                assert _bits(a) == _bits(b), f.name


@pytest.mark.parametrize("b0", SPEEDS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_d21_equals_closed_form_b21(gamma, n, b0):
    # B21 is the closed form of D21 = dG/d(dRpsi); the complex step leaves
    # only the rounding of the two formulas (at most 13 eps seen, where the
    # density reaches 4e13 rho0 at gamma 1.2)
    signs = hodograph.boundary_signs(_profiles(gamma, n, b0)[0])
    for v in signs.D21.values():
        assert abs(v - signs.B21) <= 32.0 * np.finfo(float).eps * abs(signs.B21)


def _angular_states(rng, sizes):
    """Random non-radial states: every slot nonzero, one state per size."""
    states = []
    for m in sizes:
        u = lambda lo, hi, shape=(m,): rng.uniform(lo, hi, shape)
        states.append(HodographState(
            R=u(1.0, 2.0), psi=u(0.5, 1.0), b=u(4.0, 6.0), dRpsi=u(-0.2, 0.2),
            dTpsi=u(-0.1, 0.1), dTb=u(-0.05, 0.05), d2Tb=u(-0.05, 0.05),
            Zpsi=u(-0.05, 0.05, (3, m)), Zb=u(-0.05, 0.05, (3, m))))
    return states


GAS_ANGULAR = GasParams(A=40.0 * 0.4 / 1.4, gamma=1.4, rho0=1.0)


def _stack(states):
    cat = lambda name: np.concatenate([getattr(s, name) for s in states], axis=-1)
    return HodographState(**{f.name: cat(f.name) for f in fields(HodographState)})


def test_stacked_coeffs_equal_separate_calls():
    rng = np.random.default_rng(17)
    sizes = (129, 129, 7, 64)
    states = _angular_states(rng, sizes)
    stacked = hodograph.second_order_coeffs(_stack(states), GAS_ANGULAR, 5.0, 1.3)
    cuts = np.cumsum(sizes)[:-1]
    for f in fields(CoeffSet):
        parts = np.split(getattr(stacked, f.name), cuts, axis=-1)
        for st, part in zip(states, parts):
            one = hodograph.second_order_coeffs(st, GAS_ANGULAR, 5.0, 1.3)
            assert part.tobytes() == np.asarray(getattr(one, f.name)).tobytes(), f.name


@pytest.mark.parametrize("T", (1.0, 0.7))
def test_coeffs_bitwise_on_angular_states(T):
    # the profile states are radial, where many hoisted products meet only
    # zeros; these states exercise every family, on arrays and on floats
    rng = np.random.default_rng(5)
    (st,) = _angular_states(rng, (200,))
    point = replace(st, **{f.name: getattr(st, f.name)[..., 3].tolist()
                           for f in fields(HodographState)})
    point = replace(point, Zpsi=np.array(point.Zpsi), Zb=np.array(point.Zb))
    for s in (st, point):
        new = hodograph.second_order_coeffs(s, GAS_ANGULAR, 5.0, T)
        old = second_order_coeffs(s, GAS_ANGULAR, 5.0, T)
        for f in fields(CoeffSet):
            assert _bits(getattr(new, f.name)) == _bits(getattr(old, f.name)), f.name
        assert _bits(hodograph.bernoulli_argument(s, GAS_ANGULAR, 5.0, T)) == _bits(
            bernoulli_argument(s, GAS_ANGULAR, 5.0, T))


@pytest.mark.parametrize("columns", (1, 2, 3))
@pytest.mark.parametrize("pivoting", (False, True))
def test_dgtsv_bitwise(columns, pivoting):
    rng = np.random.default_rng(columns + 10 * pivoting)
    for n in (4, 5, 37, 2048):
        # a weak diagonal forces row interchanges
        d = rng.uniform(-0.3, 0.3, n) if pivoting else rng.uniform(2.5, 4.0, n)
        dl, du = rng.uniform(-1.0, 1.0, (2, n - 1))
        b = rng.normal(size=(n, columns))
        # vanishing entries and couplings, so that the backward sweep meets
        # -0.0 and 0.0 terms whose order decides the sign of a zero
        b[rng.random(b.shape) < 0.5] = -0.0
        du[rng.random(n - 1) < 0.3] = 0.0
        args = lambda: (dl.tolist(), d.tolist(), du.tolist(), b)
        assert _bits(_numerics._dgtsv(*args())) == _bits(_dgtsv(*args()))


def test_dgtsv_singular_alike():
    for d in ([1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]):
        for solve in (_numerics._dgtsv, _dgtsv):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                solve([0.0, 0.0, 0.0], list(d), [0.0, 0.0, 0.0], np.ones((4, 2)))
