"""Plain RK4 on the background's profile ODE: the independent reference for
the Taylor-series shots and profile of ``conicshock.background``.

The state is (d, w), with d = c^2 - c+^2 the squared sound speed as an
offset from its value behind the shock and w = u - s.  With a = c^2 u/(s
(w^2 - c^2)), d' = -(gamma-1)(n-1) w a and w' = (n-1) a - 1.  Only the jump
solve is shared with the package.
"""

from scipy.optimize import brentq

from conicshock.background import DenominatorSignError, shock_jump_from_speed


def rhs(s, d, w, csq, gas, n):
    """d', w' and the denominator w^2 - c^2 at s."""
    c = csq + d
    den = w * w - c
    a = c * (s + w) / (s * den)
    return -(gas.gamma - 1.0) * (n - 1) * w * a, (n - 1) * a - 1.0, den


def rk4_step(s, d, w, h, csq, gas, n):
    """One RK4 step of size h from (d, w) at s."""
    k1d, k1w, den = rhs(s, d, w, csq, gas, n)
    if den >= 0.0:
        raise DenominatorSignError(f"(s-u)^2 - c^2 >= 0 at s = {s}")
    k2d, k2w, _ = rhs(s + 0.5 * h, d + 0.5 * h * k1d, w + 0.5 * h * k1w, csq, gas, n)
    k3d, k3w, _ = rhs(s + 0.5 * h, d + 0.5 * h * k2d, w + 0.5 * h * k2w, csq, gas, n)
    k4d, k4w, _ = rhs(s + h, d + h * k3d, w + h * k3w, csq, gas, n)
    d1 = d + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    w1 = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return d1, w1


def post_shock(s0, gas):
    """(c+^2, w+) just behind a shock of speed s0."""
    rho_plus = shock_jump_from_speed(s0, gas).rho_plus
    return gas.A * gas.gamma * rho_plus ** (gas.gamma - 1.0), -s0 * gas.rho0 / rho_plus


def march(abscissas, csq, w, h, gas, n):
    """One step of size h from each abscissa in turn, from (0, w): the
    lists of d and w after each step."""
    d, ds, ws = 0.0, [], []
    for s in abscissas:
        d, w = rk4_step(s, d, w, h, csq, gas, n)
        ds.append(d)
        ws.append(w)
    return ds, ws


def shot(delta, b0, gas, n, steps):
    """(event - b0) of a shot of ``steps`` RK4 steps down from s0 = b0 +
    delta across [s0 - 2 delta, s0], or -delta with no event there.  The
    step from xi = k h starts at s0 + xi, and the event, where w reaches 0,
    is the root of the cubic Hermite interpolant of w on its step, to
    1e-15 of the step."""
    s0 = b0 + delta
    csq, w = post_shock(s0, gas)
    d, h = 0.0, -2.0 * delta / steps
    for k in range(steps):
        xi = k * h
        d1, w1 = rk4_step(s0 + xi, d, w, h, csq, gas, n)
        if w1 >= 0.0:
            dw_a = rhs(s0 + xi, d, w, csq, gas, n)[1]
            dw_b = rhs(s0 + xi + h, d1, w1, csq, gas, n)[1]

            def hermite(t):     # t in [0, 1] from xi to xi + h
                return ((1 + 2 * t) * (1 - t) ** 2 * w + t * (1 - t) ** 2 * h * dw_a
                        + t * t * (3 - 2 * t) * w1 + t * t * (t - 1) * h * dw_b)

            return delta + (xi + h * brentq(hermite, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16))
        d, w = d1, w1
    return -delta
