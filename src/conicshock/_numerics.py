"""Plain ports of the scipy routines on the package's import path.

Each repeats scipy's arithmetic operation for operation, in the same order,
so that its results are bitwise those of scipy (the tests compare them with
``==``).  With them, ``verify``, ``certify``, ``background`` and the
explicit ``simulate`` path load no scipy, which would dominate their
start-up; only an implicit ``simulate`` run loads it (``scipy.linalg``):

* ``brentq``: the C kernel behind ``scipy.optimize.brentq``, on floats;
* ``cumulative_simpson``: ``scipy.integrate.cumulative_simpson`` with ``x``
  given and ``initial=0.0``;
* ``CubicSpline``: ``scipy.interpolate.CubicSpline(x, y, bc_type="natural")``,
  its slope system solved as LAPACK ``dgtsv`` does and its pieces
  evaluated as ``PPoly`` does; the simulator samples the background
  through it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["ConvergenceError", "brentq", "cumulative_simpson", "CubicSpline"]


class ConvergenceError(RuntimeError):
    """An iterative solve reached its iteration limit without converging."""


def brentq(f, a: float, b: float, *, xtol: float = 2e-12,
           rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method, bitwise as scipy's brentq.

    Returns as soon as |x - root| <= xtol + rtol |x| is certain.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    ConvergenceError after maxiter iterations.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # signbit() on nonzero, non-NaN values
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {maxiter} iterations "
                           f"(last iterate {xcur!r})")


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through samples i, i+1, i+2,
    for unequal spacings dx."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples y over strictly increasing x, from 0 at
    x[0], bitwise as scipy's ``cumulative_simpson(y, x=x, initial=0.0)``
    for at least three samples.

    Each interval takes its parabola through the next two samples, the last
    one the parabola through the two before it.
    """
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    ahead = _simpson_first_halves(y, dx)
    behind = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(dx))
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def _dgtsv(dl: list, d: list, du: list, b: np.ndarray) -> np.ndarray:
    """Solution of the tridiagonal system with sub-, main and superdiagonal
    dl, d, du (float lists, overwritten) for each column of b, bitwise as
    LAPACK ``dgtsv``: Gaussian elimination with partial pivoting, where a row
    interchange fills a second superdiagonal du2.  As in LAPACK, each step of
    the factorization also eliminates in every column; the backward sweep
    then runs over each column's values in order.
    """
    n = len(d)
    du2 = [0.0] * (n - 2)
    cols = b.T.tolist()
    di = d[0]
    for i in range(n - 1):
        li = dl[i]
        if not abs(di) >= abs(li):
            fact = di / li
            d[i], d[i + 1], du[i] = li, du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            for bj in cols:
                bj[i], bj[i + 1] = bj[i + 1], bj[i] - fact * bj[i + 1]
        elif di == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        else:
            fact = li / di
            d[i + 1] = d[i + 1] - fact * du[i]
            for bj in cols:
                bj[i + 1] = bj[i + 1] - fact * bj[i]
        di = d[i + 1]
    if di == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    rows_up = (du[n - 3::-1], du2[::-1], d[n - 3::-1])
    s = []
    for bj in cols:
        x2 = bj[-1] / d[-1]
        x1 = (bj[-2] - du[-1] * x2) / d[-2]
        xs = [x2, x1]
        for bi, ui, u2i, dii in zip(bj[n - 3::-1], *rows_up):
            # the du2 term is kept where it is zero, so signed zeros come
            # out as in LAPACK
            x2, x1 = x1, (bi - ui * x1 - u2i * x2) / dii
            xs.append(x1)
        s.append(xs[::-1])
    return np.array(s).T


class CubicSpline:
    """Natural C2 cubic spline (zero second derivative at both ends) through
    (x[i], y[i]), bitwise as ``scipy.interpolate.CubicSpline(x, y,
    bc_type="natural")`` inside [x[0], x[-1]] for at least four samples.
    y has one column per interpolated quantity; outside the span the end
    pieces continue.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if len(x) < 4:
            raise ValueError("a spline needs at least 4 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline data must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        # slopes s from the tridiagonal system dl s[i-1] + d s[i] + du s[i+1] = b,
        # whose end rows state the natural end condition
        h = dx.tolist()
        d = [2 * h[0], *(2 * (dx[:-1] + dx[1:])).tolist(), 2 * h[-1]]
        du, dl = h[:1] + h[:-1], h[1:] + h[-1:]
        b = np.empty_like(y, dtype=float)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[0], b[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
        s = _dgtsv(dl, d, du, b)
        # Hermite pieces in PPoly's layout, highest power first
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        self.c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))

    def __call__(self, xv):
        """Values at xv, shape xv.shape + (columns,); each piece is a power
        sum in the offset from its left node, as PPoly evaluates it."""
        xv = np.asarray(xv, dtype=float)
        # piece i holds [x[i], x[i+1]), the last one also x[-1]
        i = np.searchsorted(self.x[1:-1], xv, side="right")
        z = (xv - self.x[i])[..., None]
        zz = z * z
        c = self.c[:, i]
        return c[3] + c[2] * z + c[1] * zz + c[0] * (zz * z)
