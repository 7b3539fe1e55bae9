"""Energy-multiplier certificates for the conic shock background.

The stability argument for the perturbed shock rests on a weighted
vector-field multiplier

    M = A(t, r) dt + B(t, r) dr,    A = t^mu * r,  B = t^(mu+1) * b_sigma(r/t),

applied to the wave operator of the perturbation potential.  Integrating by
parts turns the bulk term into a quadratic form in (dt phi, dr phi, Z phi)
whose coefficients K00, K0r, Krr, Knn are explicit functionals of the
background profile, and turns the shock-surface term into a quadratic form
with coefficients beta_1j.  The multiplier "certifies" a decay rate t^(-m0)
when every sign condition holds pointwise:

    K00 > 0,   K0r^2 - 4*K00*Krr < 0,   Knn > 0   in the bulk,

plus positivity/negativity of the combined boundary coefficients.  This
module evaluates all of these on a solved background, together with the
closed-form admissible window for the weight exponent mu, the tilt constant
e entering b_sigma, and the certified decay exponent.

All certificate evaluations use the unperturbed multiplier (the tilt enters
through the background shape only), which is the regime where the sign
conditions are meaningful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .background import SelfSimilarSolution, check_n, solve_background
from .gas import GasParams


class DegenerateShockError(RuntimeError):
    """The leading boundary coefficient B1 vanishes; the oblique-derivative
    reduction of the shock condition is undefined."""


#: piston speed from which the thin-layer sign checks are expected to hold
ASYMPTOTIC_B0 = 40.0


# ---------------------------------------------------------------------------
# closed-form constants: decay exponent, mu-window, tilt constant
# ---------------------------------------------------------------------------

def _closed_form(n: int, gamma: float):
    """(k, G, r) with k = n - 1, G = gamma + 1 for n=2 and gamma + 7 for
    n=3, and r = sqrt(G/2): every closed form below is built from these."""
    check_n(n)
    G = gamma + (1.0 if n == 2 else 7.0)
    return n - 1, G, np.sqrt(G / 2.0)


def decay_exponent(n: int, gamma: float) -> float:
    """Supremum of certified decay rates m0 for the perturbation potential.

    The multiplier argument yields decay t^(-m0) for every
    m0 < 5/4 - sqrt((gamma+1)/2)/4 in dimension 2 and
    m0 < 3/2 - sqrt((gamma+7)/2)/4 in dimension 3.
    """
    k, _, r = _closed_form(n, gamma)
    return (1.0 + 0.25 * k) - 0.25 * r


@dataclass(frozen=True)
class MuWindow:
    """Open interval of weight exponents for which the multiplier signs close."""

    lo: float
    hi: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, mu: float) -> bool:
        return bool(self.lo < mu < self.hi)


def admissible_mu(n: int, gamma: float) -> MuWindow:
    """Admissible open window for the weight exponent mu.

    n=3: (-4, -1 - sqrt((gamma+7)/2)/2);  n=2: (-3, -1/2 - sqrt((gamma+1)/2)/2).
    """
    k, _, r = _closed_form(n, gamma)
    return MuWindow(-(k + 2.0), -0.5 * k - 0.5 * r)


def multiplier_e(n: int, gamma: float) -> float:
    """Tilt constant in the radial weight b_sigma = s^2 (1 + (e/b0)(s - b0)).

    n=3: e = sqrt((gamma+7)/2)/2 - 1;  n=2: e = sqrt((gamma+1)/2)/2 - 1/2.
    The tilt makes the bulk quadratic form strictly definite inside the
    mu-window.
    """
    k, _, r = _closed_form(n, gamma)
    return 0.5 * r - 0.5 * k


def symbolic_conditions(n: int, gamma: float, mu: float, e: float) -> dict:
    """The three closed-form inequalities equivalent to the leading-order
    bulk sign pattern: K00 > 0, discriminant < 0, Knn > 0.

    n=3: 2+e-mu > 0, 2+e+mu < 0, gamma+7-2(e-mu)^2 < 0; for n=2 the same
    with 2 -> 1 and gamma+7 -> gamma+1.
    """
    k, G, _ = _closed_form(n, gamma)
    return {
        "k00_leading": k + e - mu,
        "knn_leading": -(k + e + mu),
        "disc_leading": -(G - 2.0 * (e - mu) ** 2),
    }


# ---------------------------------------------------------------------------
# multiplier weight
# ---------------------------------------------------------------------------

def _b_sigma(s, b0: float, e: float):
    """Radial weight b_sigma(s) = s^2 (1 + (e/b0)(s - b0)) of the multiplier
    B = t^(mu+1) b_sigma(r/t)."""
    s = np.asarray(s, dtype=float)
    return s ** 2 * (1.0 + (e / b0) * (s - b0))


def _db_sigma(s, b0: float, e: float):
    """d b_sigma / ds, the only weight derivative _k_samples takes."""
    s = np.asarray(s, dtype=float)
    return 2.0 * s * (1.0 + (e / b0) * (s - b0)) + s ** 2 * (e / b0)


# ---------------------------------------------------------------------------
# transport-coefficient polynomials of the background profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCoeffs:
    """First-order coefficient functions of the perturbation wave operator,
    sampled on the background range [b0, s0], plus the s-derivatives needed
    by the divergence computation."""

    s: np.ndarray
    P1: np.ndarray          # u
    P2: np.ndarray          # u^2 - c^2
    P3: np.ndarray          # c^2
    P4: np.ndarray          # (gamma-1)((n-1) u + s u')
    P5: np.ndarray          # (n-1)(gamma-1) u^2 - (n-1) c^2 - 2 s^2 u' + (gamma+1) s u u'
    dP1: np.ndarray
    dP2: np.ndarray
    dP3: np.ndarray
    n: int


def P_coeffs(sol: SelfSimilarSolution) -> PCoeffs:
    """Evaluate the wave-operator coefficient polynomials on [b0, s0].

    All derivatives come from the background ODE right-hand side (no finite
    differencing), so the samples are exact functionals of the profile.
    """
    g = sol.gas.gamma
    n = sol.n
    s, u, du, csq, dcsq = sol.s, sol.u, sol.du, sol.csq, sol.dcsq
    return PCoeffs(
        s=s,
        P1=u,
        P2=u ** 2 - csq,
        P3=csq,
        P4=(g - 1.0) * ((n - 1) * u + s * du),
        P5=(n - 1) * (g - 1.0) * u ** 2 - (n - 1) * csq - 2.0 * s ** 2 * du
        + (g + 1.0) * s * u * du,
        dP1=du,
        dP2=2.0 * u * du - dcsq,
        dP3=dcsq,
        n=n,
    )


# ---------------------------------------------------------------------------
# shock-boundary coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCoeffs:
    """Coefficients of the linearized shock condition at s0.

    The condition reduces to an oblique derivative dr phi + mu1 dt phi plus
    mu2 times the shock displacement; mu3 is the (negative) factor relating
    the potential trace to the displacement.
    """

    B1: float
    B2: float
    B3: float
    mu1: float
    mu2: float
    mu3: float


def boundary_coeffs(sol: SelfSimilarSolution) -> BoundaryCoeffs:
    """Evaluate the linearized shock-condition coefficients at s = s0.

    Raises DegenerateShockError if the leading coefficient B1 is numerically
    zero.  The signs mu1 > 0, mu2 < 0, which make the oblique boundary
    condition dissipative, are a check of K_coeffs, not of this evaluation.
    """
    gas = sol.gas
    u, rho, csq, du, drho = (float(x[-1]) for x in (sol.u, sol.rho, sol.csq, sol.du, sol.drho))
    # Bernoulli deficit across the layer: (1/2) u^2 - h(rho) + h(rho0), h = c^2/(gamma-1)
    q = 0.5 * u ** 2 - csq / (gas.gamma - 1.0) + gas.B0

    B1 = 2.0 * rho * u - (rho * u / csq) * q
    B2 = rho - gas.rho0 - (rho / csq) * q
    B3 = (
        2.0 * rho * u * du
        + drho * q
        - (rho - gas.rho0) * (u * du + (csq / rho) * drho)
    )
    if abs(B1) < 1e-10 * gas.rho0 * max(1.0, sol.b0):
        raise DegenerateShockError("leading shock-condition coefficient B1 ~ 0")
    mu1 = B2 / B1
    mu2 = B3 / B1
    mu3 = -u  # trace factor: minus the particle speed just behind the shock
    return BoundaryCoeffs(B1=B1, B2=B2, B3=B3, mu1=mu1, mu2=mu2, mu3=mu3)


def shock_flux_betas(sol: SelfSimilarSolution, bc: BoundaryCoeffs) -> dict:
    """Quadratic form of the multiplier energy flux through the shock surface.

    Combining the radial flux components with the surface motion gives, per
    unit surface measure at t = 1,

        beta11 (dt phi)^2 + beta12 dt phi dr phi + beta13 (dr phi)^2
        + beta14 |Z phi / r|^2,

    and eliminating dr phi through the oblique boundary condition
    (dr phi = -mu1 dt phi + ...) yields the hatted coefficients whose signs
    control whether the boundary terms are absorbable:
    beta_hat11 > 0, beta_hat13 < 0, beta_hat14 > 0.  The weight b_sigma
    enters, mu does not.
    """
    s0, b0 = sol.s0, sol.b0
    u, p0 = float(sol.u[-1]), float(sol.csq[-1])
    e = float(multiplier_e(sol.n, sol.gas.gamma))
    bs = float(_b_sigma(s0, b0, e))
    tilt = 0.5 * s0 * s0 * e * sol.delta / b0     # (bs - s0^2)/2, in delta = s0 - b0
    beta11 = s0 * float(sol.w[-1]) - tilt          # -bs/2 + u s0 - s0^2/2, in w+ = u - s0
    beta12 = s0 * (u ** 2 - p0 - bs)
    beta13 = bs * (0.5 * u ** 2 - 0.5 * p0 - s0 * u) + 0.5 * s0 ** 2 * (u ** 2 - p0)
    beta14 = p0 * tilt
    m1 = bc.mu1
    return {
        "beta11": beta11,
        "beta12": beta12,
        "beta13": beta13,
        "beta14": beta14,
        "beta_hat11": beta11 - m1 * beta12 + m1 ** 2 * beta13,
        "beta_hat12": beta12 - 2.0 * m1 * beta13,
        "beta_hat13": beta13,
        "beta_hat14": beta14,
    }


# ---------------------------------------------------------------------------
# bulk K-coefficient table
# ---------------------------------------------------------------------------

#: diagnostic for each failed profile check of a certificate
_PROFILE_CHECK_FAILURES = {
    "k00_positive": "K00 positivity fails on the profile",
    "disc_negative": "discriminant negativity fails on the profile",
    "knn_positive": "angular coefficient positivity fails on the profile",
    "boundary_pass": "shock-boundary flux signs fail",
}


@dataclass(frozen=True)
class MultiplierCertificate:
    """Result of evaluating every multiplier sign condition on a background.

    K-samples are given at t = 1; the exact time dependence of each is the
    common factor t^mu (Knn is reported against the scaled angular gradient
    Z phi / r, which restores the t^mu homogeneity of the raw table).
    ``checks`` holds the verdicts in the order they are reported:
    mu_in_window, symbolic_pass, k00_positive, disc_negative, knn_positive,
    boundary_pass.  n, gamma and b0 are the profile's, e the tilt constant
    multiplier_e(n, gamma).
    """

    n: int
    gamma: float
    b0: float
    mu: float
    e: float
    s: np.ndarray
    K00: np.ndarray
    K0r: np.ndarray
    Krr: np.ndarray
    Knn: np.ndarray
    discriminant: np.ndarray
    conditions: dict            # name -> value; all must be > 0
    betas: dict
    mu_window: MuWindow
    checks: dict                # name -> bool
    boundary: BoundaryCoeffs | None = None
    notes: tuple = field(default=())

    @property
    def in_asymptotic_regime(self) -> bool:
        return bool(self.b0 >= ASYMPTOTIC_B0)

    @property
    def status(self) -> str:
        """The verdict: "pass" when every check holds.  Below ASYMPTOTIC_B0
        the thin-layer sign checks need not hold, so a failure there reads
        "outside asymptotic regime" as long as the closed-form checks
        (mu_in_window, symbolic_pass) hold; any other failure is "fail"."""
        if all(self.checks.values()):
            return "pass"
        if not self.in_asymptotic_regime and self.checks["symbolic_pass"]:
            return "outside asymptotic regime"
        return "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def violated_condition(self) -> str:
        """Name the first failed check, for the diagnostic."""
        failed = next(name for name, ok in self.checks.items() if not ok)
        if failed == "mu_in_window":
            return (f"mu = {self.mu!r} outside the admissible window "
                    f"({float(self.mu_window.lo)!r}, {float(self.mu_window.hi)!r})")
        if failed == "symbolic_pass":
            name, value = next((name, value) for name, value in self.conditions.items()
                               if not value > 0.0)
            return f"symbolic condition {name} nonpositive ({float(value)!r})"
        return _PROFILE_CHECK_FAILURES[failed]

    def summary(self) -> dict:
        out = {
            "n": self.n,
            "gamma": self.gamma,
            "b0": self.b0,
            "mu": self.mu,
            "e": self.e,
            "mu_window": [float(self.mu_window.lo), float(self.mu_window.hi)],
            **self.checks,
            "conditions": {k: float(v) for k, v in self.conditions.items()},
            "K00_min": float(np.min(self.K00)),
            "discriminant_max": float(np.max(self.discriminant)),
            "Knn_min": float(np.min(self.Knn)),
            "betas": {k: float(v) for k, v in self.betas.items()},
            "in_asymptotic_regime": self.in_asymptotic_regime,
            "status": self.status,
            "notes": list(self.notes),
        }
        if self.boundary is not None:
            out["boundary"] = {k: float(v) for k, v in asdict(self.boundary).items()}
        return out


def _k_samples(pc: PCoeffs, b0: float, mu: float, e: float):
    """Pointwise divergence coefficients of the multiplier energy identity
    at t = 1.

    Each K is the coefficient of the corresponding quadratic gradient term
    after moving all derivatives of (A, B) onto the weights analytically;
    at time t the spatial profile multiplies the exact factor t^mu (Knn
    measured against |Z phi / r|^2 times r^2 / t^2, i.e. the s-scaled
    angular slot).
    """
    n = pc.n
    s = pc.s
    bs = _b_sigma(s, b0, e)
    dbs = _db_sigma(s, b0, e)
    P1, P2, P3, P4, P5 = pc.P1, pc.P2, pc.P3, pc.P4, pc.P5
    dP1, dP2, dP3 = pc.dP1, pc.dP2, pc.dP3

    k00 = (-0.5 * mu * s + 0.5 * dbs - (P1 + s * dP1) + P4
           + (n - 1) * bs / (2.0 * s) - (n - 1) * P1)
    k0r = (-((mu + 1.0) * bs - s * dbs) - (P2 + s * dP2) + P5
           + bs * P4 / s - (n - 1) * P2)
    krr = (-((mu + 1.0) * bs * P1 - s * (dbs * P1 + bs * dP1))
           + 0.5 * s * (mu * P2 - s * dP2)
           - 0.5 * (dbs * P2 + bs * dP2)
           + bs * P5 / s
           - (n - 1) * bs * P2 / (2.0 * s))
    knn = s ** 2 * (
        -(mu * P3 - s * dP3) / (2.0 * s)
        - 0.5 * ((dbs * P3 + bs * dP3) / s ** 2 - 2.0 * bs * P3 / s ** 3)
        - (n - 1) * bs * P3 / (2.0 * s ** 3)
    )
    return k00, k0r, krr, knn


def K_coeffs(sol: SelfSimilarSolution, mu: float) -> MultiplierCertificate:
    """Evaluate the full sign certificate for the weight exponent mu.

    Combines: the closed-form window/inequality checks on (mu, e); the
    pointwise bulk signs K00 > 0, K0r^2 - 4 K00 Krr < 0, Knn > 0 on
    s in [b0, s0]; and, in boundary_pass, the dissipative shock
    coefficients mu1 > 0, mu2 < 0 with the shock-flux coefficient signs
    beta_hat11 > 0 (vs the reference level (gamma-1) b0^2 / 8),
    beta_hat13 < 0 (vs -(gamma-1) b0^4 / 2), beta_hat14 > 0.  n, gamma,
    b0 and the tilt constant e come from the profile.
    """
    n, g = sol.n, sol.gas.gamma
    mu, e = float(mu), float(multiplier_e(n, g))
    pc = P_coeffs(sol)
    K00, K0r, Krr, Knn = _k_samples(pc, sol.b0, mu, e)
    disc = K0r ** 2 - 4.0 * K00 * Krr

    window = admissible_mu(n, g)
    conds = symbolic_conditions(n, g, mu, e)
    mu_ok = window.contains(mu)

    notes = []
    try:
        bc = boundary_coeffs(sol)
        betas = shock_flux_betas(sol, bc)
        ref11 = (g - 1.0) * sol.b0 ** 2 / 8.0
        ref13 = (g - 1.0) * sol.b0 ** 4 / 2.0
        dissipative = bc.mu1 > 0.0 and bc.mu2 < 0.0
        if not dissipative:
            notes.append(f"shock coefficients mu1={bc.mu1!r}, mu2={bc.mu2!r} break "
                         "the dissipative pattern mu1 > 0, mu2 < 0")
        boundary_pass = bool(
            dissipative
            and betas["beta_hat11"] > 0.0
            and 0.5 < betas["beta_hat11"] / ref11 < 2.0
            and betas["beta_hat13"] < 0.0
            and 0.5 < -betas["beta_hat13"] / ref13 < 2.0
            and betas["beta_hat14"] > 0.0
        )
    except DegenerateShockError as exc:
        bc = None
        betas = {}
        boundary_pass = False
        notes.append(str(exc))

    if sol.b0 < ASYMPTOTIC_B0:
        notes.append(f"b0 < {ASYMPTOTIC_B0:g}: sign checks reported outside "
                     "the asymptotic regime")

    return MultiplierCertificate(
        n=n,
        gamma=g,
        b0=sol.b0,
        mu=mu,
        e=e,
        s=pc.s,
        K00=K00,
        K0r=K0r,
        Krr=Krr,
        Knn=Knn,
        discriminant=disc,
        conditions=conds,
        betas=betas,
        mu_window=window,
        checks={
            "mu_in_window": mu_ok,
            "symbolic_pass": mu_ok and all(v > 0.0 for v in conds.values()),
            "k00_positive": bool(np.all(K00 > 0.0)),
            "disc_negative": bool(np.all(disc < 0.0)),
            "knn_positive": bool(np.all(Knn > 0.0)),
            "boundary_pass": boundary_pass,
        },
        boundary=bc,
        notes=tuple(notes),
    )


def certify(n: int, b0: float, mu: float, gas: GasParams,
            grid_size: int = 1024) -> MultiplierCertificate:
    """Solve the background and run the complete multiplier certificate."""
    sol = solve_background(b0, gas, n=n, grid_size=grid_size)
    return K_coeffs(sol, mu)
