"""Truncated power series of normalized analytic functions on the unit disk.

A series here is f(z) = z + a_2 z^2 + ... + a_N z^N with a_1 = 1 pinned
(the usual normalization f(0) = 0, f'(0) = 1).  The module builds the
Poisson-weighted coefficient series

    z + sum_{n>=2} (n-1)**l * m**(n-1) / (n-1)! * exp(-m) * z**n,

applies the coefficient-wise (Hadamard) product, the convolution operator
built from that kernel, its integral transform (which divides the n-th
coefficient by n), and evaluates truncations and their first two derivatives
at points of the open disk, point by point (Horner) or a whole ring of
equally spaced points at a time (one inverse DFT).
"""

from __future__ import annotations

import io
import math
import numbers

import numpy as np

from .errors import InvalidOrder, OutOfDisk, ParameterError
from .moments import TouchardParams

#: Default truncation order.  Doubling it moves every criterion value
#: reported downstream by far less than 1e-12 for m <= 10 (the coefficients
#: decay factorially), which the test suite checks.
DEFAULT_ORDER = 64


class TruncatedSeries:
    """Coefficients a_1..a_N of a normalized series, a_1 = 1.

    ``coeffs[i]`` stores a_{i+1}.  Instances are immutable: the backing
    array is locked after construction and every operation returns a new
    object, so values can be shared freely across threads.

    ``nonneg`` records whether a_n >= 0 for all n >= 2 (membership of the
    positive-coefficient class the coefficient criteria apply to).  It is
    computed from the data unless explicitly overridden; overriding to True
    when a negative coefficient is present is an error, while overriding to
    False merely withholds the claim.
    """

    __slots__ = ("coeffs", "nonneg")

    def __init__(self, coeffs, nonneg: bool | None = None):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("coefficients must be a nonempty 1-d sequence a_1..a_N")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("coefficients must be finite")
        if arr[0] != 1.0:
            raise ParameterError(f"normalization requires a_1 = 1, got a_1 = {arr[0]!r}")
        actually_nonneg = bool(np.all(arr[1:] >= 0.0))
        if nonneg is None:
            nonneg = actually_nonneg
        elif nonneg and not actually_nonneg:
            raise ParameterError("nonneg flag set but a negative coefficient is present")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "nonneg", bool(nonneg))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        """Truncation order N (index of the last stored coefficient)."""
        return int(self.coeffs.size)

    def a(self, n: int) -> float:
        """Coefficient of z**n, 1 <= n <= order."""
        if not 1 <= n <= self.order:
            raise ParameterError(f"coefficient index {n} outside 1..{self.order}")
        return float(self.coeffs[n - 1])

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, nonneg={self.nonneg})"


def touchard_series(params: TouchardParams, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The normalized Poisson-weighted series for integer l >= 0, m > 0.

    a_1 = 1 and a_n = (n-1)**l * m**(n-1) / (n-1)! * exp(-m) for n >= 2.
    Consecutive coefficients differ by the ratio (n/(n-1))**l * m/n, which
    is how they are generated (no factorials); the exp(-m) factor is applied
    last so the intermediate terms stay well scaled.
    """
    l = params.integer_order
    m = params.m
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise InvalidOrder(f"truncation order must be an integer >= 2, got {order!r}")
    u = np.empty(order)
    u[0] = 1.0
    term = m  # n = 2 term before scaling: 1**l * m / 1!
    u[1] = term
    for n in range(2, order):
        # step from the coefficient of z**n to that of z**(n+1)
        term *= (n / (n - 1.0)) ** l * (m / n)
        u[n] = term
    u[1:] *= math.exp(-m)
    return TruncatedSeries(u, nonneg=True)


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise product, truncated at the shorter order.

    The series with all coefficients 1 (the geometric series z/(1-z)) is the
    identity for this product.
    """
    n = min(f.order, g.order)
    return TruncatedSeries(f.coeffs[:n] * g.coeffs[:n])


def apply_operator_I(params: TouchardParams, f: TruncatedSeries) -> TruncatedSeries:
    """Convolution operator: Hadamard product of ``f`` with the Poisson kernel series.

    The n-th coefficient of the result is
    (n-1)**l * m**(n-1)/(n-1)! * exp(-m) * a_n.
    """
    return hadamard(touchard_series(params, f.order), f)


def apply_operator_L(params: TouchardParams, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Integral transform of the kernel series: n-th coefficient divided by n.

    Termwise this is the antiderivative of (kernel series)/z from 0, i.e.
    integrating z**(n-1) to z**n / n; a_1 stays 1.
    """
    base = touchard_series(params, order)
    n = np.arange(1, order + 1, dtype=float)
    return TruncatedSeries(base.coeffs / n)


def _positive_int(value, what: str) -> int:
    """``value`` as an int; any integer type but bool, at least 1."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _power_coeffs(f: TruncatedSeries, order) -> np.ndarray:
    """Coefficients c_0, c_1, ... of z**0, z**1, ... in f, f' or f''."""
    n = np.arange(1, f.order + 1, dtype=float)
    if order == 0:
        return np.concatenate([[0.0], f.coeffs])  # 0, a_1 .. a_N
    if order == 1:
        return n * f.coeffs
    if order == 2:
        return ((n * (n - 1)) * f.coeffs)[1:]
    raise ParameterError(f"derivative order must be 0, 1 or 2, got {order!r}")


def evaluate(f: TruncatedSeries, z, order: int = 0):
    """Evaluate f, f' or f'' of the truncation at points with |z| < 1.

    ``z`` may be a complex scalar or an ndarray of points; the result matches
    the input shape.  Plain Horner evaluation of the truncated polynomial at
    each point: no tail estimate is attempted, callers keep |z| away from 1
    and the truncation order large instead.  The disk scans do not come
    here: they evaluate whole rings of equally spaced points with one
    inverse DFT through :func:`evaluate_rings`.
    """
    zs = np.asarray(z)
    if np.any(np.abs(zs) >= 1.0):
        raise OutOfDisk("evaluation points must satisfy |z| < 1")
    out = np.polyval(_power_coeffs(f, order)[::-1], zs.astype(complex))
    if np.isscalar(z) or zs.ndim == 0:
        return complex(out)
    return out


def evaluate_rings(f: TruncatedSeries, radii, angles: int, orders=(0,)) -> np.ndarray:
    """f, f' and/or f'' on rings of ``angles`` equally spaced points.

    Returns an array of shape (len(orders), len(radii), angles) whose entry
    [d, i, k] is the ``orders[d]``-th derivative at radii[i] * w**k with
    w = exp(2 pi i / angles): ring-major, then angle-major, the order of
    ``DiskGrid.points()``.  On one ring sum_j c_j r**j w**(j k) is an inverse
    DFT of the scaled coefficients c_j r**j, once powers j >= angles are
    folded onto j mod angles (exact, since w**angles = 1), so every ring and
    every requested order goes through a single FFT.  Values agree with
    :func:`evaluate` at ``DiskGrid.points()`` within
    8 (N + log2(angles) + 1) u sum_j |c_j| r**j for N coefficients c_j of
    the derivative, Horner's own error being of that order; no tail
    estimate is attempted.
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or np.any(np.abs(r) >= 1.0):
        raise OutOfDisk("ring radii must be a 1-d sequence with |r| < 1")
    k = _positive_int(angles, "angles per ring")
    width = -(-(f.order + 1) // k) * k  # powers 0..N padded to whole blocks of k
    c = np.zeros((len(orders), width))
    for row, d in zip(c, orders):
        p = _power_coeffs(f, d)
        row[:p.size] = p
    scaled = c[:, None, :] * r[:, None] ** np.arange(width)
    folded = scaled.reshape(len(orders), r.size, -1, k).sum(axis=2)
    return np.fft.ifft(folded, axis=-1, norm="forward")


def series_to_csv(f: TruncatedSeries) -> str:
    """Render the series as CSV lines ``n,a_n`` with a header row."""
    buf = io.StringIO()
    buf.write("n,a_n\n")
    for i, c in enumerate(f.coeffs, start=1):
        buf.write(f"{i},{float(c)!r}\n")
    return buf.getvalue()


def series_from_csv(text: str) -> TruncatedSeries:
    """Parse the ``n,a_n`` CSV format produced by :func:`series_to_csv`.

    Rows must carry consecutive n starting at 1, and a_1 must equal 1.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "n,a_n":
        raise ParameterError('series CSV must start with the header "n,a_n"')
    coeffs = []
    for expected, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParameterError(f"malformed series CSV row: {line!r}")
        try:
            n = int(parts[0])
            value = float(parts[1])
        except ValueError as exc:
            raise ParameterError(f"malformed series CSV row: {line!r}") from exc
        if n != expected:
            raise ParameterError(f"series CSV rows must run n = 1,2,...; saw n={n} where {expected} expected")
        coeffs.append(value)
    if not coeffs:
        raise ParameterError("series CSV carries no coefficient rows")
    return TruncatedSeries(coeffs)
