"""Stirling numbers, Touchard polynomial values and Poisson raw moments.

The l-th raw moment of a Poisson(m) variable,

    mu_l = exp(-m) * sum_{n>=0} n**l * m**n / n!,

equals the Touchard (Bell / exponential) polynomial T_l(m).  Two independent
evaluation routes are provided:

* :func:`poisson_moment_closed` evaluates T_l(m) = sum_k S(l,k) m**k by
  Horner's rule over Stirling numbers of the second kind (integer l only).
* :func:`poisson_moment_series` sums the defining series directly with
  compensated summation and a certified tail bound (any real l >= 0; the
  non-integer case is an experimental extension, reachable only here).

:func:`tail_moment` is the same sum restricted to n >= 1.  For l >= 1 it
equals mu_l (the n = 0 term vanishes); for l = 0 it equals 1 - exp(-m).
Dropping the n = 0 term in a single formula is what lets the membership
criteria downstream avoid a special case at l = 0.  :func:`tail_kernel`
evaluates both, for a float or an ndarray m.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

from .errors import InvalidIndex, NoConvergence, NumericFailure, OrderTooLarge, ParameterError

#: Largest moment order kept in the exact Stirling table.  Values for l <= 64
#: fit comfortably in Python integers; the cap exists so a typo cannot demand
#: a gigantic triangle.
L_MAX = 64

#: Hard cap on the terms a moment series sums and on a kernel's truncation order.
SERIES_TERM_CAP = 10_000

#: Hard cap on the samples of a disk grid (rings times angles per ring).
GRID_SAMPLE_CAP = 2**20

#: Default truncation order of a kernel series.  Doubling it moves every
#: criterion value reported downstream by far less than 1e-12 for m <= 10
#: (the coefficients decay factorially), which the test suite checks.
DEFAULT_ORDER = 64

METHOD_CLOSED = "closed_form"
METHOD_SERIES = "series"


@dataclass(frozen=True)
class TouchardParams:
    """Moment order ``l`` and Poisson parameter ``m`` of the coefficient kernel.

    ``l`` must be a nonnegative integer for every closed-form code path;
    the direct-summation path also accepts nonnegative real ``l``.
    """

    l: float
    m: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_m(self.m))
        _check_real_order(self.l)

    @property
    def integer_order(self) -> int:
        """``l`` as an int; raises if the order is not integer-valued."""
        return _as_integer_order(self.l)


@dataclass(frozen=True)
class MomentValue:
    """A computed raw moment plus provenance.

    ``truncation_terms`` counts the series terms accumulated (0 for the
    closed form).  ``tail_bound`` is a rigorous bound on the neglected tail;
    on success it is below the tolerance that was requested.
    """

    value: float
    method: str
    truncation_terms: int = 0
    tail_bound: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _real(x) -> float:
    """``x`` as a float if it is a finite ``numbers.Real`` but not a bool
    (numpy scalars count; an int too large for a float does not), else NaN,
    which fails every range check.  A finite value of exact type float skips
    the checks, which would return it as it is; all else goes through them."""
    if type(x) is float and -math.inf < x < math.inf:
        return x
    # int and float first: the numbers.Real (ABC) check is the slow one
    if isinstance(x, bool) or not isinstance(x, (int, float, numbers.Real)):
        return math.nan
    try:
        x = float(x)
    except OverflowError:  # an int too large for a float
        return math.nan
    return x if math.isfinite(x) else math.nan


def _integer(x, low: int, what: str, error: type = ParameterError) -> int:
    """``x`` as an int if it is an integer (any ``numbers.Integral`` but bool)
    of at least ``low`` that :func:`_real` accepts; otherwise ``error``."""
    if not isinstance(x, (int, numbers.Integral)) or not _real(x) >= low:
        raise error(f"{what} must be an integer >= {low}, got {x!r}")
    return int(x)


def _real_check(ok, what: str):
    """A validator: its argument as a float if :func:`_real` accepts it and
    ``ok`` holds for the value, else ParameterError("<what>, got <argument>")."""
    def check(x) -> float:
        value = _real(x)
        if not ok(value):
            raise ParameterError(f"{what}, got {x!r}")
        return value
    return check


_check_real_order = _real_check(lambda l: l >= 0,
                                "moment order l must be a nonnegative finite real")
_check_m = _real_check(lambda m: m > 0, "Poisson parameter m must be a positive finite real")
_check_tol = _real_check(lambda tol: tol > 0, "tolerance must be a positive finite real")


def _as_integer_order(l) -> int:
    """``l`` as an int, else ParameterError; an int (exact type) in 0..L_MAX skips the checks."""
    if type(l) is int and 0 <= l <= L_MAX:
        return l
    if not _check_real_order(l).is_integer():
        raise ParameterError(
            f"closed-form path takes integer moment orders only, got l={l!r} "
            "(use the series path for real orders)"
        )
    return int(l)


# Triangular table of Stirling numbers of the second kind, grown on demand.
# Row l holds S(l, 0..l) as exact Python ints.  Rows are appended once and
# never mutated afterwards, so concurrent readers are safe.
_STIRLING_ROWS: list[list[int]] = [[1]]
# Row l as floats for Horner, highest power first: S(l, l), (S(l, l-1), ..., S(l, 0)).
_HORNER_ROWS: dict[int, tuple] = {}


def stirling2(l: int, k: int) -> int:
    """Stirling number of the second kind S(l, k), exactly.

    S(l, k) counts the partitions of an l-element set into k nonempty
    blocks.  Computed by the recurrence S(l,k) = k*S(l-1,k) + S(l-1,k-1)
    with S(0,0) = 1 and S(l,0) = 0 for l >= 1, in exact integer arithmetic.
    """
    l = _integer(l, 0, "Stirling index l", InvalidIndex)
    k = _integer(k, 0, "Stirling index k", InvalidIndex)
    if l > L_MAX:
        raise OrderTooLarge(f"order l={l} exceeds the exact-arithmetic cap {L_MAX}")
    if k > l:
        raise InvalidIndex(f"k={k} exceeds l={l}")
    while len(_STIRLING_ROWS) <= l:
        prev = _STIRLING_ROWS[-1]
        i = len(_STIRLING_ROWS)
        row = [0] * (i + 1)
        for j in range(1, i):
            row[j] = j * prev[j] + prev[j - 1]
        row[i] = 1
        _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[l][k]


def tail_kernel(l: int, m):
    """The moment sum over n >= 1 for an integer order 0 <= l <= L_MAX.

    ``m`` is a positive float or an ndarray of them, not validated here.
    l >= 1 gives T_l(m) by Horner's rule over the float Stirling row, l = 0
    gives 1 - exp(-m) by ``math.expm1``, elementwise for an array.  A float
    m gives a float, and each element of an array result is bit for bit the
    scalar result for that m.  Past L_MAX :func:`stirling2` raises OrderTooLarge.
    """
    if l == 0:
        if isinstance(m, (float, int)):
            return -math.expm1(-m)
        import numpy as np  # only array callers reach this, and they have numpy loaded

        tails = map(math.expm1, (-m).ravel().tolist())
        return -np.fromiter(tails, float, m.size).reshape(m.shape)
    if l not in _HORNER_ROWS:
        row = tuple(float(stirling2(l, k)) for k in range(l, -1, -1))
        _HORNER_ROWS[l] = row[0], row[1:]
    value, rest = _HORNER_ROWS[l]
    for c in rest:
        value *= m  # in place once value is an array: the fresh result of 1.0 * m
        value += c
    return value


def poisson_moment_closed(l: int, m: float) -> MomentValue:
    """Raw Poisson moment by the Touchard polynomial T_l(m) = sum_k S(l,k) m**k.

    Horner's rule over the Stirling coefficients rounded to floats; none is
    negative and m > 0, so the relative error is at most (2l+1)u/(1-(2l+1)u),
    u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 5.1,
    plus the coefficient rounding).  mu_0 = 1 for every m.  A value past the
    largest float raises NumericFailure.
    """
    l = _as_integer_order(l)
    m = _check_m(m)
    value = _closed_tail(l, m) if l else 1.0
    return MomentValue(value=value, method=METHOD_CLOSED)


def _closed_tail(l: int, m: float) -> float:
    """:func:`tail_kernel` at a float m, or NumericFailure past the largest float."""
    value = tail_kernel(l, m)
    if not value < math.inf:
        raise NumericFailure(f"closed-form moment of order {l} at m={m} overflows a float")
    return value


def poisson_moment_series(
    l: float, m: float, tol: float = 1e-12, *, term_cap: int = SERIES_TERM_CAP
) -> MomentValue:
    """Raw Poisson moment by direct summation of exp(-m) * sum n**l m**n / n!.

    Accepts any real l >= 0 (the only route for non-integer orders).  Terms
    are generated from their predecessor by the ratio
    ((n+1)/n)**l * m/(n+1), multiplied in as term * ((n+1)/n)**l * (m/(n+1)),
    so no factorial is ever formed, and accumulated with Kahan compensation.
    Summation stops once the next term t, with all later term ratios bounded
    by some rho < 1/2, certifies a geometric tail t/(1-rho) below ``tol``;
    that bound is reported.  Each step's rho is the next step's ratio, so
    its two factors are carried over and a step raises one power, not two.
    A power, a term or the sum that overflows a float raises
    NumericFailure; NoConvergence means the term cap ran out first.

    The n = 0 term uses the 0**0 = 1 convention, so it contributes exp(-m)
    when l = 0 and nothing when l > 0.
    """
    m = _check_m(m)
    l = _check_real_order(l)
    tol = _check_tol(tol)
    term_cap = _integer(term_cap, 1, "term_cap")
    scale = math.exp(-m)
    if scale == 0.0:
        raise NoConvergence(f"exp(-m) underflows for m={m}; series path unusable this far out")

    total = scale if l == 0 else 0.0
    terms = 1 if l == 0 else 0
    comp = 0.0  # Kahan carry
    term = scale * m  # n = 1 term: 1**l * m**1 / 1!
    n = 1
    try:
        pw, q = 2.0 ** l, m / 2.0  # the two factors of the ratio from n = 1 to n = 2
        while n <= term_cap:
            # add `term` (index n) with compensation
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            terms += 1
            nxt = term * pw * q
            if not nxt < math.inf:
                raise OverflowError
            # the ratio from n + 1 to n + 2: rho now, the next step's factors after
            pw, q = ((n + 2.0) / (n + 1.0)) ** l, m / (n + 2.0)
            rho = pw * q
            if rho < 0.5:
                bound = nxt / (1.0 - rho)
                if bound < tol:
                    if not total < math.inf:  # finite terms whose sum overflows
                        raise OverflowError
                    return MomentValue(
                        value=total, method=METHOD_SERIES, truncation_terms=terms, tail_bound=bound
                    )
            term = nxt
            n += 1
    except OverflowError:  # a power, a term or the sum past the largest float
        raise NumericFailure(f"moment series for l={l}, m={m} overflows a float") from None
    raise NoConvergence(
        f"series for l={l}, m={m} did not certify tail < {tol} within {term_cap} terms"
    )


def tail_moment(l: int, m: float) -> float:
    """The moment sum restricted to n >= 1: exp(-m) * sum_{n>=1} n**l m**n / n!.

    Equals mu_l for l >= 1 and 1 - exp(-m) for l = 0.  The membership
    criteria are all linear combinations of these tails, which is what makes
    one formula cover both the l = 0 and l >= 1 cases.  A value past the
    largest float raises NumericFailure.
    """
    return float(_closed_tail(_as_integer_order(l), _check_m(m)))
