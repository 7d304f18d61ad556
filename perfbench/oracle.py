"""Reference values for the benchmark's correctness checks, computed apart from touchardstar.

Nothing here imports the library.  Touchard values T_l(m) are exact: integer
Stirling numbers of the second kind summed against the exact rational value
of the float m.  Exponentials, kernel coefficients and disk quotients are
evaluated with mpmath at 50 significant digits, far beyond double precision,
so each reference is exact to the last bit a double can hold.

Every tolerance below is an error bound for the library's own method
(rounding of its float arithmetic), scaled by the magnitudes that method
combines, so that a check fails only when a result is wrong, not noisy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

MP = mpmath.MPContext()
MP.dps = 50

#: Unit roundoff of IEEE double precision.
U = 2.0 ** -53
DBL_MAX = 1.7976931348623157e308

#: Library constants restated from its documented contract (README): the
#: slack on "value <= bound" and the disk violation margin.
TOL_EQ = 1e-12
TOL_V = 1e-9

#: Coefficient sums report no truncation bound, so they are held to this
#: share of the closed form's scale.  On the seeded coefficient points
#: (l <= 6, m <= 20) the true truncation error of an order-64 sum stays
#: below 1e-10 of that scale (see ``truncation_share``).
COEFF_SUM_REL = 1e-9


@lru_cache(maxsize=None)
def stirling_row(l: int) -> tuple:
    """S(l, 0..l) as exact ints, by the recurrence S(i,j) = j S(i-1,j) + S(i-1,j-1)."""
    row = [1]
    for i in range(1, l + 1):
        prev = row + [0]
        row = [0] + [j * prev[j] + prev[j - 1] for j in range(1, i + 1)]
    return tuple(row)


@lru_cache(maxsize=None)
def touchard(l: int, m: float):
    """T_l(m) = sum_k S(l,k) m^k, exactly, rounded once to 50 digits."""
    x = Fraction(m)
    exact = sum(Fraction(s) * x ** k for k, s in enumerate(stirling_row(l)) if s)
    return MP.mpf(exact.numerator) / exact.denominator


@lru_cache(maxsize=None)
def tail(l: int, m: float):
    """exp(-m) * sum_{n>=1} n^l m^n / n!: T_l(m) for l >= 1 and 1 - exp(-m) for l = 0."""
    if l == 0:
        return -MP.expm1(-MP.mpf(m))
    return touchard(l, m)


def _weights(which: str, lam: float, alpha: float):
    """Closed-form coefficients c_j of sum_j c_j tail(l+j) for a criterion.

    With k = n-1 the starlike weight is w(n) = (1-alpha*lam) k + (1-alpha),
    so sum_n w(n) a_n telescopes onto tail(l+1) and tail(l).  The convex
    weight n w(n) = (k+1) w(n) adds one more power of k.  The integral
    transform divides a_n by n, which cancels the convex weight's n and
    leaves the starlike weights.
    """
    lam, alpha = MP.mpf(lam), MP.mpf(alpha)
    c = 1 - alpha * lam
    if which in ("M", "integral", "rtau"):
        return (1 - alpha, c)
    if which == "N":
        return (1 - alpha, c + 1 - alpha, c)
    raise ValueError(f"unknown criterion {which!r}")


@lru_cache(maxsize=None)
def criterion(which: str, l: int, m: float, lam: float, alpha: float, gain: float = 1.0):
    """Exact criterion value and its scale (sum of the magnitudes it combines).

    ``gain`` is (A-B)|tau| for the rtau criterion and 1 otherwise.
    """
    cs = _weights(which, lam, alpha)
    tails = [tail(l + j, m) for j in range(len(cs))]
    value = MP.fsum(c * t for c, t in zip(cs, tails))
    # magnitudes of every product the float code forms, including
    # alpha*lam inside 1 - alpha*lam
    scale = MP.fsum((abs(c) + alpha * lam + 1) * t for c, t in zip(cs, tails))
    g = MP.mpf(gain)
    return g * value, g * scale


def closed_form_tol(l: int, scale: float) -> float:
    """Rounding bound of the library's closed form: exact Stirling sums,
    at most l+3 roundings per term (powers of m, the product, the int to
    float conversion), an exactly rounded sum, then a few products and sums.
    """
    return 4.0 * (l + 10) * U * scale


def coeff_sum_tol(scale: float) -> float:
    return COEFF_SUM_REL * scale


def value_ok(lib: float, ref, tol: float) -> bool:
    """A library float agrees with an exact reference within ``tol``.

    A reference beyond the double range is met only by the same-signed
    infinity; NaN never agrees.
    """
    if math.isnan(lib):
        return False
    if abs(ref) > DBL_MAX:
        return lib == float(ref)  # mpmath rounds past the range to +-inf
    return math.isfinite(lib) and abs(MP.mpf(lib) - ref) <= tol


def verdict_ok(member, value: float, bound: float, ref, tol: float) -> bool:
    """member is the library's own comparison, and matches the exact value
    wherever that value is farther from the bound than the rounding."""
    if member is not (value <= bound + TOL_EQ):
        return False
    gap = ref - MP.mpf(bound)
    if abs(gap) > tol + TOL_EQ:
        return member is (gap <= 0)
    return True


@lru_cache(maxsize=None)
def kernel(l: int, m: float, order: int) -> tuple:
    """a_1 = 1 and a_n = (n-1)^l m^(n-1) / (n-1)! exp(-m), n = 2..order, to 50 digits."""
    mm = MP.mpf(m)
    scale = MP.exp(-mm)
    out = [MP.mpf(1)]
    for k in range(1, order):
        out.append(MP.mpf(k) ** l * mm ** k / MP.factorial(k) * scale)
    return tuple(out)


def kernel_tol(l: int, n: int) -> float:
    """Relative bound for a coefficient built by n-2 ratio steps of about l+3 roundings each."""
    return 4.0 * n * (l + 3) * U


def coeffs_ok(lib, ref, l: int) -> bool:
    """Float coefficients agree with exact ones, each within its relative bound.

    Values below the normal double range need only round to within one
    smallest normal of the reference.
    """
    if len(lib) != len(ref):
        return False
    for n, (a, r) in enumerate(zip(lib, ref), start=1):
        a = float(a)
        if not math.isfinite(a):
            return False
        if abs(MP.mpf(a) - r) > kernel_tol(l, n) * abs(r) + 2.3e-308:
            return False
    return True


def truncation_share(which: str, l: int, m: float, lam: float, alpha: float, order: int) -> float:
    """|closed form - order-N coefficient sum| / scale, both exact."""
    ref, scale = criterion(which, l, m, lam, alpha)
    a = kernel(l, m, order)
    lam_, alpha_ = MP.mpf(lam), MP.mpf(alpha)
    total = MP.mpf(0)
    for n in range(2, order + 1):
        w = n - (1 + n * lam_ - lam_) * alpha_
        total += (n * w if which == "N" else w) * a[n - 1]
    return float(abs(ref - total) / scale)


@lru_cache(maxsize=None)
def quotient(kind: str, coeffs, z: complex, lam: float = 0.0, alpha: float = 0.0,
             tau: complex = 1.0, A: float = 1.0, B: float = -1.0):
    """The disk statistic at z for a truncated series, and a bound on the
    error of evaluating it by Horner's rule in doubles.

    kind "M": Re(z f' / ((1-lam) f + lam z f')); "N": Re((f' + z f'') / (f'
    + lam z f'')); "rtau": |(f'-1) / ((A-B) tau - B (f'-1))|.  Returns
    (statistic, tolerance); the statistic is None where the denominator is
    zero.
    """
    zz = MP.mpc(z)
    r = abs(zz)
    zp, rp = [MP.mpc(1)], [MP.mpf(1)]
    for _ in coeffs:
        zp.append(zp[-1] * zz)
        rp.append(rp[-1] * r)
    f = f1 = f2 = MP.mpc(0)
    s0 = s1 = s2 = MP.mpf(0)
    for n, a in enumerate(coeffs, start=1):
        a = MP.mpf(a)
        f += a * zp[n]
        f1 += n * a * zp[n - 1]
        s0 += abs(a) * rp[n]
        s1 += n * abs(a) * rp[n - 1]
        if n >= 2:
            f2 += n * (n - 1) * a * zp[n - 2]
            s2 += n * (n - 1) * abs(a) * rp[n - 2]
    lam_ = MP.mpf(lam)
    if kind == "M":
        num, den = zz * f1, (1 - lam_) * f + lam_ * zz * f1
        num_abs, den_abs = r * s1, (1 - lam_) * s0 + lam_ * r * s1
    elif kind == "N":
        num, den = f1 + zz * f2, f1 + lam_ * zz * f2
        num_abs, den_abs = s1 + r * s2, s1 + lam_ * r * s2
    elif kind == "rtau":
        w = f1 - 1
        t = (MP.mpf(A) - MP.mpf(B)) * MP.mpc(tau)
        num, den = w, t - MP.mpf(B) * w
        num_abs, den_abs = s1 + 1, abs(t) + abs(MP.mpf(B)) * (s1 + 1)
    else:
        raise ValueError(f"unknown disk statistic {kind!r}")
    if den == 0:
        return None, 0.0
    q = num / den
    stat = abs(q) if kind == "rtau" else q.real
    # Horner in doubles errs by at most ~2N u times the absolute sums, and
    # coefficients built by the library carry up to kernel_tol(l, N); the
    # factor 16 covers l + 3 for every order the workloads use.
    gamma = 4.0 * len(coeffs) * 16 * U
    tol = 8 * gamma * (num_abs + abs(q) * den_abs) / abs(den)
    return float(stat), float(tol) + 1e-13
