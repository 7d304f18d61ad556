"""Coefficient-sum membership criteria and their closed forms.

Two families of positive-coefficient analytic functions are handled, both
parametrized by 0 <= lambda < 1 and an order 1 < alpha <= 4/3:

* starlike type: Re( z f'(z) / ((1-lambda) f(z) + lambda z f'(z)) ) < alpha,
* convex type:   Re( (f'(z) + z f''(z)) / (f'(z) + lambda z f''(z)) ) < alpha.

For a series with nonnegative coefficients, membership is equivalent to a
weighted coefficient sum staying below alpha - 1.  The weight is

    w(n) = n - (1 + n*lambda - lambda) * alpha

for the starlike type and n * w(n) for the convex type.  Beware that w(n)
can be negative when alpha*lambda approaches 1; the sums are computed as
written, with no clamping, and the report flags when a negative weight
actually contributed, because a verdict resting on negative weights no
longer dominates the analytic condition (the disk sampler demonstrates
this; see the test suite).

When the series is the Poisson-weighted kernel, the sums telescope into
shifted-moment tails, giving closed forms that need no truncation at all.
The convolution operator applied to a function whose derivative satisfies a
bounded Moebius-type distortion (the (tau, A, B) class, with the sharp
coefficient bound (A-B)|tau|/n) scales the starlike-type closed form by
(A-B)|tau|: the 1/n of the bound cancels the extra n of the convex-type
weight.  The same cancellation makes the integral transform's convex-type
criterion identical to the kernel's starlike-type criterion.  The closed
forms are listed once, in :data:`CRITERIA`, which every caller reads.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import NegativeCoefficient, NumericFailure, OrderTooLarge, ParameterError
from .moments import (
    DEFAULT_ORDER,
    L_MAX,
    METHOD_CLOSED,
    TouchardParams,
    _as_integer_order,
    _check_m,
    _integer,
    _real,
    _real_check,
    tail_kernel,
)

if TYPE_CHECKING:
    from .series import TruncatedSeries

#: Slack used on the "value <= bound" comparison so boundary cases where the
#: sum equals alpha - 1 exactly are not flipped by the last rounding.
TOL_EQ = 1e-12

METHOD_COEFF = "coefficient_sum"

ALPHA_MAX = 4.0 / 3.0


class Criterion(NamedTuple):
    """A closed-form criterion: its threshold-result label, its report
    ``detail``, the :mod:`disk` function sampling its analytic condition
    ("" for none), whether it takes (tau, A, B) and the largest l it takes
    (it reads moments up to order l + 1, N up to l + 2, of at most L_MAX)."""

    label: str
    detail: str
    disk: str = ""
    needs_rtau: bool = False
    max_l: int = L_MAX - 1


_TAILS = "closed form via shifted moment tails"

#: The closed-form criteria by name, in the order the command line lists them.
CRITERIA = {
    "M": Criterion("M_theorem", _TAILS, "verify_M"),
    "N": Criterion("N_theorem", _TAILS, "verify_N", max_l=L_MAX - 2),
    "rtau": Criterion(
        "rtau",
        "sufficient condition: (A-B)|tau| times the starlike-type closed form "
        "(the 1/n of the sharp coefficient bound cancels the n of the convex-type weight)",
        "verify_rtau", needs_rtau=True),
    "integral": Criterion(
        "integral",
        "1/n coefficient of the integral transform cancels the n of the convex-type weight; "
        "value identical to the starlike-type criterion"),
}


def _criterion(which) -> Criterion:
    try:
        return CRITERIA[which]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable, such as a list
        raise ParameterError(
            f"unknown criterion {which!r}; expected one of {', '.join(CRITERIA)}") from None


_check_lam = _real_check(lambda lam: 0 <= lam < 1, "lambda must lie in [0, 1)")
_check_alpha = _real_check(lambda alpha: 1 < alpha <= ALPHA_MAX, "alpha must lie in (1, 4/3]")


@dataclass(frozen=True)
class ClassParams:
    """Shared class parameters: 0 <= lam < 1 and 1 < alpha <= 4/3."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _check_lam(self.lam))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    @property
    def bound(self) -> float:
        """Right-hand side of every membership inequality: alpha - 1."""
        return self.alpha - 1.0

    def weight(self, n):
        """Starlike-type coefficient weight w(n) = n - (1 + n*lam - lam)*alpha.

        Accepts a scalar or an ndarray of indices.
        """
        return n - (1.0 + n * self.lam - self.lam) * self.alpha


def _complex(x) -> complex:
    """tau as a complex: a number other than a bool as it is, a string such
    as "1 + 2j" with its spaces removed; anything else is a ParameterError."""
    try:
        if isinstance(x, str):
            return complex(x.replace(" ", ""))
        if not isinstance(x, bool) and isinstance(x, numbers.Number):
            return complex(x)
    except (ValueError, OverflowError):  # malformed text, an int too large for a float
        pass
    raise ParameterError(f"tau must be a complex number such as 1, -0.5 or 1+2j, got {x!r}")


@dataclass(frozen=True)
class RTauParams:
    """Parameters (tau, A, B) of the derivative-distortion class: tau != 0, -1 <= B < A <= 1."""

    tau: complex
    A: float
    B: float

    def __post_init__(self) -> None:
        tau = _complex(self.tau)
        if tau == 0 or not cmath.isfinite(tau):
            raise ParameterError(f"tau must be a nonzero finite complex number, got {self.tau!r}")
        A, B = _real(self.A), _real(self.B)
        if not -1 <= B < A <= 1:
            raise ParameterError(f"need -1 <= B < A <= 1, got A={self.A!r}, B={self.B!r}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def gain(self) -> float:
        """(A - B) * |tau|, the factor the sharp coefficient bound carries."""
        return (self.A - self.B) * abs(self.tau)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of one membership test.

    ``member`` is exactly ``criterion_value <= bound + TOL_EQ``; the raw
    value is carried so callers may apply a stricter policy.  ``method``
    says how the value was obtained and ``detail`` records anything a reader
    of a sweep row would want to know (in particular whether negative
    weights contributed).
    """

    criterion_value: float
    bound: float
    member: bool
    method: str
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _finite(value: float, detail: str) -> float:
    """``value`` if it is finite, else NumericFailure naming the criterion's ``detail``."""
    if not math.isfinite(value):
        raise NumericFailure(f"criterion value {value!r} is not finite ({detail})")
    return value


def _verdict(value: float, p: ClassParams, method: str, detail: str) -> MembershipReport:
    value, bound = float(_finite(value, detail)), p.bound
    report = object.__new__(MembershipReport)  # filled at once, not by a setattr per field
    object.__setattr__(report, "__dict__", {
        "criterion_value": value, "bound": bound, "member": value <= bound + TOL_EQ,
        "method": method, "detail": detail})
    return report


def _coefficient_sum(f: TruncatedSeries, p: ClassParams, convex: bool) -> MembershipReport:
    import numpy as np

    if not f.nonneg:
        raise NegativeCoefficient(
            "coefficient criteria need nonnegative coefficients a_n for n >= 2"
        )
    n = np.arange(2, f.order + 1, dtype=float)
    w = p.weight(n)
    if convex:
        w = n * w
    terms = w * f.coeffs[1:]
    value = math.fsum(terms.tolist())
    negative = n[(w < 0) & (f.coeffs[1:] > 0)]
    detail = "coefficient sum over n = 2..%d" % f.order
    if negative.size:
        lo, hi = int(negative[0]), int(negative[-1])
        detail += (
            f"; negative weights contributed for n in {lo}..{hi}"
            " (verdict does not dominate the analytic condition)"
        )
    return _verdict(value, p, METHOD_COEFF, detail)


def lemma_sum_M(f: TruncatedSeries, p: ClassParams) -> MembershipReport:
    """Starlike-type coefficient test: sum of w(n) * a_n over n >= 2 against alpha - 1."""
    return _coefficient_sum(f, p, convex=False)


def lemma_sum_N(f: TruncatedSeries, p: ClassParams) -> MembershipReport:
    """Convex-type coefficient test: sum of n * w(n) * a_n over n >= 2 against alpha - 1."""
    return _coefficient_sum(f, p, convex=True)


def closed_form(which: str, l: int, m, lam, alpha, gain=1.0):
    """Closed-form value of criterion ``which`` (M, N, integral or rtau).

    ``l`` is a validated order; ``m``, ``lam``, ``alpha`` and ``gain`` are
    valid scalars or ndarrays that broadcast together.  The coefficient sums
    telescope into shifted moment tails (sums over n >= 1): M is
    (1 - alpha*lam) tail(l+1) + (1 - alpha) tail(l), N is (1 - alpha*lam)
    tail(l+2) + (2 - alpha*lam - alpha) tail(l+1) + (1 - alpha) tail(l).
    tail(0, m) = 1 - exp(-m) and tail(l, m) = mu_l for l >= 1, so l = 0
    needs no branch.  integral equals M and rtau is gain = (A-B)|tau| times M
    (M and integral take gain 1, which changes no bit).  The theorem
    functions below report a value that is not finite (overflow) as a
    NumericFailure.
    """
    if which == "N":
        return ((1.0 - alpha * lam) * tail_kernel(l + 2, m)
                + (2.0 - alpha * lam - alpha) * tail_kernel(l + 1, m)
                + (1.0 - alpha) * tail_kernel(l, m))
    return gain * ((1.0 - alpha * lam) * tail_kernel(l + 1, m) + (1.0 - alpha) * tail_kernel(l, m))


def _check_criterion(which: str, l, rtau: RTauParams | None) -> tuple:
    """(order, gain) for criterion ``which`` at order ``l``, the arguments
    :func:`closed_form` takes besides m, lambda and alpha; checks the name,
    (tau, A, B), l, then l's cap."""
    c = _criterion(which)
    if c.needs_rtau and rtau is None:
        raise ParameterError(f"criterion {which!r} needs (tau, A, B) parameters")
    order = _as_integer_order(l)
    if order > c.max_l:
        raise OrderTooLarge(f"order l={order} exceeds {c.max_l}, the largest criterion {which!r} "
                            f"takes (it reads moments of order l+{L_MAX - c.max_l} <= {L_MAX})")
    return order, rtau.gain if c.needs_rtau else 1.0


def _closed(which: str, l, m, p: ClassParams, rtau: RTauParams | None = None) -> MembershipReport:
    """Criterion ``which`` at one point; checks as :func:`_check_criterion`, then m."""
    order, gain = _check_criterion(which, l, rtau)
    value = closed_form(which, order, _check_m(m), p.lam, p.alpha, gain)
    return _verdict(value, p, METHOD_CLOSED, CRITERIA[which].detail)


def theorem_M_lhs(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Closed form of the starlike-type criterion for the Poisson-weighted kernel."""
    return _closed("M", tp.l, tp.m, p)


def theorem_N_lhs(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Closed form of the convex-type criterion for the Poisson-weighted kernel."""
    return _closed("N", tp.l, tp.m, p)


def rtau_coeff_bound(n: int, r: RTauParams) -> float:
    """Sharp bound (A-B)|tau|/n on |a_n| for the derivative-distortion class."""
    return r.gain / _integer(n, 2, "coefficient index")


def theorem_rtau_inclusion(
    tp: TouchardParams, p: ClassParams, r: RTauParams
) -> MembershipReport:
    """Sufficient condition for the convolution operator to land in the convex-type class.

    Feeding the sharp bound (A-B)|tau|/n into the convex-type sum cancels
    the extra factor n in its weight, leaving (A-B)|tau| times the kernel's
    starlike-type criterion.  Only sufficiency is claimed: the bound is an
    upper envelope, so the extremal coefficient sequence need not belong to
    the class itself.
    """
    return _closed("rtau", tp.l, tp.m, p, r)


def theorem_integral_operator(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Convex-type criterion for the integral transform of the kernel.

    The transform divides the n-th coefficient by n, which cancels the n in
    the convex-type weight, so the value (and the verdict) is identical to
    the kernel's starlike-type criterion.
    """
    return _closed("integral", tp.l, tp.m, p)


def brute_force_M(tp: TouchardParams, p: ClassParams,
                  order: int = DEFAULT_ORDER) -> MembershipReport:
    """Truncated coefficient-sum counterpart of :func:`theorem_M_lhs`."""
    from .series import touchard_series  # numpy-backed, so loaded on first use

    return lemma_sum_M(touchard_series(tp, order), p)


def brute_force_N(tp: TouchardParams, p: ClassParams,
                  order: int = DEFAULT_ORDER) -> MembershipReport:
    """Truncated coefficient-sum counterpart of :func:`theorem_N_lhs`."""
    from .series import touchard_series  # numpy-backed, so loaded on first use

    return lemma_sum_N(touchard_series(tp, order), p)
