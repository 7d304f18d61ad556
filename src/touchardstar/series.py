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

import math

import numpy as np

from .errors import InvalidOrder, NumericFailure, OutOfDisk, ParameterError
from .formats import rows_csv
from .moments import DEFAULT_ORDER, L_MAX, SERIES_TERM_CAP, TouchardParams, _integer

#: Natural log of the largest float (709.78), less a margin for rounding.
_LOG_FLOAT_MAX = 700.0

# Row l holds (n/(n-1))**l for n = 2, 3, ..., as long as the longest
# truncation asked for.  A longer row replaces a shorter one and no row is
# mutated, so concurrent readers are safe.
_RATIO_POWERS: dict[int, np.ndarray] = {}


def _holds_bool(x, arr: np.ndarray) -> bool:
    """Whether ``x``, which numpy reads as ``arr``, is a sequence holding a
    bool at some depth, which numpy reads as a number ([1.0, True] as
    [1., 1.]).  An ndarray or a scalar says bool in its dtype, so it is not
    looked into (callers skip the call when ``x`` is ``arr``)."""
    if isinstance(x, np.ndarray) or arr.ndim == 0:
        return False
    return any(isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)


class TruncatedSeries:
    """Coefficients a_1..a_N of a normalized series, a_1 = 1.

    ``coeffs`` is a nonempty 1-d sequence of finite reals, one that numpy
    reads as an integer or float array (not bool, complex, text or
    objects) and, unless it is an ndarray, holding no bool element;
    ``coeffs[i]`` stores a_{i+1}.  Instances are immutable: the backing
    array is locked after construction and every operation returns a new
    object, so values can be shared freely across threads.

    ``nonneg`` records whether a_n >= 0 for all n >= 2, that is membership
    of the positive-coefficient class the coefficient criteria apply to.  It
    is read from the coefficients and cannot be set.
    """

    __slots__ = ("coeffs", "nonneg")

    def __init__(self, coeffs):
        arr = np.asarray(coeffs)
        if (arr.dtype.kind not in "iuf" or arr.ndim != 1 or arr.size < 1
                or (coeffs is not arr and _holds_bool(coeffs, arr))):
            raise ParameterError("coefficients must be a nonempty 1-d sequence of reals a_1..a_N")
        arr = arr.astype(float)  # a private copy, locked below
        lo = np.minimum.reduce(arr)  # NaN if any coefficient is NaN
        if not (-math.inf < lo and np.maximum.reduce(arr) < math.inf):
            raise ParameterError("coefficients must be finite")
        if arr[0] != 1.0:
            raise ParameterError(f"normalization requires a_1 = 1, got a_1 = {arr[0]!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "nonneg", bool(lo >= 0.0))  # a_1 = 1: lo is min(a_2..a_N)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        """Truncation order N (index of the last stored coefficient)."""
        return int(self.coeffs.size)

    def a(self, n: int) -> float:
        """Coefficient of z**n, 1 <= n <= order."""
        if _integer(n, 1, "coefficient index") > self.order:
            raise ParameterError(f"coefficient index {n} outside 1..{self.order}")
        return float(self.coeffs[n - 1])

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, nonneg={self.nonneg})"


def touchard_series(params: TouchardParams, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The normalized Poisson-weighted series for integer l >= 0, m > 0.

    a_1 = 1 and a_n = (n-1)**l * m**(n-1) / (n-1)! * exp(-m) for n >= 2.
    Consecutive coefficients differ by the ratio r_n = (n/(n-1))**l * (m/n),
    so a_2..a_N before scaling are one cumulative product of
    [m, r_2, ..., r_{N-1}] (no factorials), taken in the order the
    recurrence multiplies; the exp(-m) factor is applied last.  That order
    does not keep the terms well scaled: exp(-m) underflows to 0 past
    m = 745, zeroing every coefficient, and an unscaled term past the
    largest float (l = 64, m = 1000, N = 200, or l >= 1024 with N >= 3,
    where 2.0**l itself overflows) raises NumericFailure instead of coming
    back as inf or NaN.
    """
    return TruncatedSeries(_kernel(params, order))


def _kernel(params: TouchardParams, order) -> np.ndarray:
    """:func:`touchard_series`'s coefficients as a fresh unchecked array, to scale in place."""
    l, m = params.integer_order, params.m
    order = _integer(order, 2, "truncation order", InvalidOrder)
    if order > SERIES_TERM_CAP:
        raise InvalidOrder(f"truncation order must be at most {SERIES_TERM_CAP}, got {order}")
    u = np.empty(order)
    u[0] = 1.0
    terms = u[1:]
    k = order - 1
    # Every unscaled term j**l m**j / j!, j <= k, is at most k**l max(m, 1)**k.
    # Below the float range nothing can overflow, so the errstate guard
    # (about as dear as the product itself) is entered only past it.
    if l * math.log(k) + k * math.log(max(m, 1.0)) < _LOG_FLOAT_MAX:
        _unscaled_terms(terms, l, m)
    else:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                _unscaled_terms(terms, l, m)
        except OverflowError:  # (n/(n-1))**l itself
            terms[-1] = math.inf
        if not terms[-1] < math.inf:  # an overflow carries to the last term
            raise NumericFailure(f"kernel coefficients for l={l}, m={m} up to order {order} "
                                 "overflow a float")
    terms *= math.exp(-m)
    return u


def _unscaled_terms(v: np.ndarray, l: int, m: float) -> None:
    """Fill ``v`` with j**l m**j / j! for j = 1..v.size, in place: the
    cumulative product of m and the ratios r_n = (n/(n-1))**l * (m/n)."""
    v[0] = m
    r = v[1:]
    np.divide(m, np.arange(2.0, v.size + 1), out=r)
    r *= _ratio_powers(l, r.size)
    np.multiply.accumulate(v, out=v)


def _ratio_powers(l: int, count: int) -> np.ndarray:
    """(n/(n-1))**l for n = 2..count+1 by Python's ``**``, which numpy's
    power does not match bit for bit; cached by l <= L_MAX."""
    row = _RATIO_POWERS.get(l)
    if row is None or row.size < count:
        row = np.array([(n / (n - 1.0)) ** l for n in range(2, count + 2)])
        row.flags.writeable = False
        if l <= L_MAX:
            _RATIO_POWERS[l] = row
    return row[:count]


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
    u = _kernel(params, max(f.order, 2))[:f.order]
    return TruncatedSeries(np.multiply(u, f.coeffs, out=u))


def apply_operator_L(params: TouchardParams, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Integral transform of the kernel series: n-th coefficient divided by n.

    Termwise this is the antiderivative of (kernel series)/z from 0, i.e.
    integrating z**(n-1) to z**n / n; a_1 stays 1.
    """
    u = _kernel(params, order)
    return TruncatedSeries(np.divide(u, np.arange(1, u.size + 1, dtype=float), out=u))


def _power_coeffs(f: TruncatedSeries, order) -> np.ndarray:
    """Coefficients c_0, c_1, ... of z**0, z**1, ... in f, f' or f''."""
    if _integer(order, 0, "derivative order") > 2:
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {order!r}")
    n = np.arange(1, f.order + 1, dtype=float)
    if order == 0:
        return np.concatenate([[0.0], f.coeffs])  # 0, a_1 .. a_N
    if order == 1:
        return n * f.coeffs
    return ((n * (n - 1)) * f.coeffs)[1:]


def _in_disk(x, what: str, kinds: str = "iufc") -> np.ndarray:
    """``x`` as an ndarray of modulus < 1 whose dtype kind is in ``kinds``
    (integer, float, complex: never bool, text or object, nor a sequence
    holding a bool); NaN fails the modulus test too."""
    arr = np.asarray(x)
    if arr.dtype.kind not in kinds or (x is not arr and _holds_bool(x, arr)):
        raise ParameterError(f"{what} must be {'numbers' if 'c' in kinds else 'reals'}, "
                             f"got {x!r}")
    if not np.all(np.abs(arr) < 1.0):
        raise OutOfDisk(f"{what} must be finite with modulus < 1")
    return arr


def evaluate(f: TruncatedSeries, z, order: int = 0):
    """Evaluate f, f' or f'' of the truncation at points with |z| < 1.

    ``z`` may be a complex scalar or an ndarray of points; the result matches
    the input shape.  Plain Horner evaluation of the truncated polynomial at
    each point: no tail estimate is attempted, callers keep |z| away from 1
    and the truncation order large instead.  The disk scans do not come
    here: they evaluate whole rings of equally spaced points with one
    inverse DFT through :func:`evaluate_rings`.  A value past the largest
    float raises NumericFailure.
    """
    zs = _in_disk(z, "evaluation points")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are caught below
        out = np.polyval(_power_coeffs(f, order)[::-1], zs.astype(complex))
    if not np.isfinite(out).all():
        raise NumericFailure(f"values of a series of order {f.order} overflow a float")
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
    estimate is attempted.  A value past the largest float raises
    NumericFailure.  Disk scans run the same body on their grid's powers.
    """
    r = _in_disk(radii, "ring radii", "iuf").astype(float)
    if r.ndim != 1:
        raise OutOfDisk("ring radii must be a 1-d sequence with |r| < 1")
    k = _integer(angles, 1, "angles per ring")
    try:
        orders = tuple(orders)
    except TypeError:
        raise ParameterError(f"derivative orders must be a sequence, got {orders!r}") from None
    rows = _rings(f, lambda width: r[:, None] ** np.arange(width), k, orders)
    if not np.isfinite(rows.view(float)).all():
        raise NumericFailure(_ring_overflow(f))
    return rows.reshape(len(orders), r.size, k)


def _ring_overflow(f: TruncatedSeries) -> str:
    return f"ring values of a series of order {f.order} overflow a float"


def _rings(f: TruncatedSeries, powers, k: int, orders: tuple) -> np.ndarray:
    """evaluate_rings, a row per order, on checked arguments; powers(width)[i, j] = r_i**j.

    Unchecked: a row that overflows holds inf or NaN.  numpy transforms each
    row on its own, so a row is bit for bit the same whichever orders are
    computed with it (tests/test_disk.py checks this)."""
    width = -(-(f.order + 1) // k) * k  # powers 0..N padded to whole blocks of k
    c = np.zeros((len(orders), width))
    with np.errstate(over="ignore", invalid="ignore"):  # callers catch inf and NaN
        for row, d in zip(c, orders):
            p = _power_coeffs(f, d)
            row[:p.size] = p
        scaled = c[:, None, :] * powers(width)[:, :width]
        if width > k:
            scaled = scaled.reshape(*scaled.shape[:2], -1, k).sum(axis=2)
        out = np.fft.ifft(scaled, axis=-1, norm="forward")
    return out.reshape(len(orders), -1)


def series_to_csv(f: TruncatedSeries) -> str:
    """Render the series as CSV lines ``n,a_n`` with a header row."""
    return rows_csv(("n", "a_n"), ({"n": n, "a_n": c}
                                   for n, c in enumerate(f.coeffs.tolist(), start=1)))


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
