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
criterion identical to the kernel's starlike-type criterion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NegativeCoefficient, NumericFailure, ParameterError
from .moments import TouchardParams, tail_kernel

if TYPE_CHECKING:
    from .series import TruncatedSeries

#: Slack used on the "value <= bound" comparison so boundary cases where the
#: sum equals alpha - 1 exactly are not flipped by the last rounding.
TOL_EQ = 1e-12

METHOD_CLOSED = "closed_form"
METHOD_COEFF = "coefficient_sum"
METHOD_DISK = "disk_sampled"

ALPHA_MAX = 4.0 / 3.0


@dataclass(frozen=True)
class ClassParams:
    """Shared class parameters: 0 <= lam < 1 and 1 < alpha <= 4/3."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        if not (isinstance(self.lam, (int, float)) and 0 <= self.lam < 1):
            raise ParameterError(f"lambda must lie in [0, 1), got {self.lam!r}")
        if not (isinstance(self.alpha, (int, float)) and 1 < self.alpha <= ALPHA_MAX):
            raise ParameterError(f"alpha must lie in (1, 4/3], got {self.alpha!r}")

    @property
    def bound(self) -> float:
        """Right-hand side of every membership inequality: alpha - 1."""
        return self.alpha - 1.0

    def weight(self, n):
        """Starlike-type coefficient weight w(n) = n - (1 + n*lam - lam)*alpha.

        Accepts a scalar or an ndarray of indices.
        """
        import numpy as np

        n = np.asarray(n, dtype=float)
        w = n - (1.0 + n * self.lam - self.lam) * self.alpha
        return w if w.ndim else float(w)


@dataclass(frozen=True)
class RTauParams:
    """Parameters (tau, A, B) of the derivative-distortion class: tau != 0, -1 <= B < A <= 1."""

    tau: complex
    A: float
    B: float

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        if tau == 0 or not (cmath.isfinite(tau)):
            raise ParameterError(f"tau must be a nonzero finite complex number, got {self.tau!r}")
        object.__setattr__(self, "tau", tau)
        if not (-1 <= self.B < self.A <= 1):
            raise ParameterError(f"need -1 <= B < A <= 1, got A={self.A!r}, B={self.B!r}")

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
        return {
            "criterion_value": self.criterion_value,
            "bound": self.bound,
            "member": self.member,
            "method": self.method,
            "detail": self.detail,
        }

    @staticmethod
    def csv_fields() -> list[str]:
        return ["criterion_value", "bound", "member", "method", "detail"]


def _verdict(value: float, p: ClassParams, method: str, detail: str) -> MembershipReport:
    if not math.isfinite(value):
        raise NumericFailure(f"criterion value {value!r} is not finite ({detail})")
    return MembershipReport(
        criterion_value=float(value),
        bound=p.bound,
        member=bool(value <= p.bound + TOL_EQ),
        method=method,
        detail=detail,
    )


def _coefficient_sum(f: TruncatedSeries, p: ClassParams, convex: bool) -> MembershipReport:
    import numpy as np

    if not f.nonneg:
        raise NegativeCoefficient(
            "coefficient criteria apply to series flagged nonnegative from n = 2 on"
        )
    n = np.arange(2, f.order + 1, dtype=float)
    w = p.weight(n)
    if convex:
        w = n * w
    terms = w * f.coeffs[1:]
    value = math.fsum(terms)
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
    needs no branch.  integral equals M and rtau is gain = (A-B)|tau| times M.
    The theorem functions below report a value that is not finite (overflow)
    as a NumericFailure.
    """
    if which == "N":
        return ((1.0 - alpha * lam) * tail_kernel(l + 2, m)
                + (2.0 - alpha * lam - alpha) * tail_kernel(l + 1, m)
                + (1.0 - alpha) * tail_kernel(l, m))
    value = (1.0 - alpha * lam) * tail_kernel(l + 1, m) + (1.0 - alpha) * tail_kernel(l, m)
    return gain * value if which == "rtau" else value


def theorem_M_lhs(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Closed form of the starlike-type criterion for the Poisson-weighted kernel."""
    value = closed_form("M", tp.integer_order, float(tp.m), p.lam, p.alpha)
    return _verdict(value, p, METHOD_CLOSED, "closed form via shifted moment tails")


def theorem_N_lhs(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Closed form of the convex-type criterion for the Poisson-weighted kernel."""
    value = closed_form("N", tp.integer_order, float(tp.m), p.lam, p.alpha)
    return _verdict(value, p, METHOD_CLOSED, "closed form via shifted moment tails")


def rtau_coeff_bound(n: int, r: RTauParams) -> float:
    """Sharp bound (A-B)|tau|/n on |a_n| for the derivative-distortion class."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ParameterError(f"coefficient index must be an integer >= 2, got {n!r}")
    return r.gain / n


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
    value = closed_form("rtau", tp.integer_order, float(tp.m), p.lam, p.alpha, r.gain)
    return _verdict(
        value,
        p,
        METHOD_CLOSED,
        "sufficient condition: (A-B)|tau| times the starlike-type closed form "
        "(the 1/n of the sharp coefficient bound cancels the n of the convex-type weight)",
    )


def theorem_integral_operator(tp: TouchardParams, p: ClassParams) -> MembershipReport:
    """Convex-type criterion for the integral transform of the kernel.

    The transform divides the n-th coefficient by n, which cancels the n in
    the convex-type weight, so the value (and the verdict) is identical to
    the kernel's starlike-type criterion.
    """
    return _verdict(
        closed_form("integral", tp.integer_order, float(tp.m), p.lam, p.alpha),
        p,
        METHOD_CLOSED,
        "1/n coefficient of the integral transform cancels the n of the convex-type weight; "
        "value identical to the starlike-type criterion",
    )


def brute_force_M(tp: TouchardParams, p: ClassParams, order: int = 64) -> MembershipReport:
    """Truncated coefficient-sum counterpart of :func:`theorem_M_lhs`."""
    from .series import touchard_series  # numpy-backed, so loaded on first use

    return lemma_sum_M(touchard_series(tp, order), p)


def brute_force_N(tp: TouchardParams, p: ClassParams, order: int = 64) -> MembershipReport:
    """Truncated coefficient-sum counterpart of :func:`theorem_N_lhs`."""
    from .series import touchard_series  # numpy-backed, so loaded on first use

    return lemma_sum_N(touchard_series(tp, order), p)
