"""Parameter-space exploration: membership thresholds in m, and sweep tables.

Every closed-form criterion reduces to rho(m) = P(m)/Q(m) <= c, with
c = (alpha - 1)/(1 - alpha*lambda) and P, Q free of (lambda, alpha): for the
moment tails A, B, C of orders l+1, l, l+2, P/Q is A/(B+1) for M and
integral, (C+A)/(A+B+1) for N and gain*A/(gain*B+1) for rtau.  The threshold
m*, where rho(m*) = c, is unique.  For l >= 1, P - cQ is a polynomial whose
constant term -c is negative, whose leading term is positive and whose middle
coefficients a_k - c b_k change sign at most once, since a_k/b_k rises
strictly in k (checked for every l the criteria take), so by Descartes' rule
it has one positive root; for l = 0, rho is strictly increasing.  A solve
refines the bracket of :func:`_bracket` by ITP and plugs m* back in.

Sweeps evaluate one criterion over a cartesian parameter grid in array
calls, one per moment order, never aborting on a bad point (errors become
row status codes, ``invalid_params`` exactly where :func:`criterion_value`
raises ParameterError).  Output is deterministic to the byte.  Criterion
names, labels and the (tau, A, B) requirement come from
:data:`criteria.CRITERIA`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

from .criteria import (
    CRITERIA,
    TOL_EQ,
    ClassParams,
    MembershipReport,
    RTauParams,
    _check_alpha,
    _check_criterion,
    _check_lam,
    _closed,
    _complex,
    _criterion,
    closed_form,
)
from .errors import NoThreshold, NumericFailure, ParameterError, finite
from .formats import rows_csv
from .moments import _as_integer_order, _check_m, _check_tol, tail_kernel


def criterion_value(which: str, l: int, m: float, p: ClassParams,
                    rtau: RTauParams | None = None) -> MembershipReport:
    """Closed-form membership report for one criterion at one parameter point."""
    return _closed(which, l, m, p, rtau)


@dataclass(frozen=True)
class ThresholdResult:
    """Converged membership threshold in m.

    The bracket satisfies criterion(m_lo) <= alpha - 1 < criterion(m_hi)
    and is no wider than ``tol_m``, or two adjacent floats; ``iterations``
    counts the criterion evaluations that refined it; ``residual`` is the
    criterion value at m_star minus the bound (self-certification: plug the
    root back in).  ``all_brackets`` holds the one starting bracket from
    :func:`_bracket`: the root is unique.
    """

    m_star: float
    bracket: tuple
    residual: float
    iterations: int
    criterion: str
    all_brackets: tuple = field(default=())

    def to_dict(self) -> dict:
        return dict(asdict(self), bracket=list(self.bracket),
                    all_brackets=[list(b) for b in self.all_brackets])


def find_threshold(which: str, l: int, p: ClassParams, rtau: RTauParams | None = None,
                   tol_m: float = 1e-10) -> ThresholdResult:
    """Locate the m where the chosen criterion first crosses alpha - 1.

    A bad criterion, order or (tau, A, B) raises ParameterError, checked
    once before anything is evaluated.  With 1 - alpha*lambda <= 0 every
    term of the criterion is nonpositive, and so is its value: no threshold
    exists (NoThreshold), as when the upper end of :func:`_bracket`
    overflows.  Bracket ends that fail g(lo) <= 0 < g(hi), for
    g(m) = criterion(m) - (alpha - 1), raise NumericFailure.  ITP
    (:func:`_itp`) then refines the bracket until it is no wider than
    ``tol_m`` or is two adjacent floats.  Every evaluation is one call to
    :func:`criteria.closed_form`, whose value is what :func:`criterion_value`
    reports at that m, bit for bit; one that is not finite raises the
    NumericFailure :func:`criterion_value` would.
    """
    tol_m = _check_tol(tol_m)
    order, gain = _check_criterion(which, l, rtau)
    if 1.0 - p.alpha * p.lam <= 0:
        raise NoThreshold(f"1 - alpha*lambda = {1.0 - p.alpha * p.lam!r} <= 0: criterion stays "
                          "below the bound for every m, no threshold exists")
    lam, alpha, bound = p.lam, p.alpha, p.bound
    start = lo, hi = _bracket(which, order, bound / (1.0 - alpha * lam), gain)
    if hi == math.inf:
        raise NoThreshold(f"the bracket of criterion {which!r} at l={l}, lambda={lam}, "
                          f"alpha={alpha} ends past the largest float")

    def g(m: float) -> float:
        value = closed_form(which, order, m, lam, alpha, gain)
        return finite(value, "the criterion value") - bound

    g_lo, g_hi = g(lo), g(hi)
    if not g_lo <= 0.0 < g_hi:
        raise NumericFailure(f"no sign change on the bracket of criterion {which!r} at l={l}, "
                             f"lambda={lam}, alpha={alpha}: the criterion minus the bound is "
                             f"{g_lo!r} at {lo!r} and {g_hi!r} at {hi!r}")
    lo, hi, iterations = _itp(g, (lo, g_lo), (hi, g_hi), tol_m)
    m_star = lo + 0.5 * (hi - lo)
    return ThresholdResult(m_star=m_star, bracket=(lo, hi), residual=g(m_star),
                           iterations=iterations, criterion=CRITERIA[which].label,
                           all_brackets=(start,))


def _bracket(which: str, l: int, c: float, gain: float) -> tuple:
    """(lo, hi) holding the root of rho(m) = c (module docstring) for
    criterion ``which`` of validated order ``l``, each end widened by a
    relative 2**-20 so that rounding cannot hide the sign change.  For the
    Touchard polynomials T_j (:func:`moments.tail_kernel`):

    * T_{l+1} = m (T_l + T_l') and 1 <= T_l' <= l T_l / m (l >= 1) give
      m <= rho <= m + l for M, m <= rho <= m + l + 1 for N, m/2 <= rho <= m
      for M at l = 0 and m min(1, gain)/2 <= rho <= m + max(l, 1) for rtau,
      whose rho >= min(gain m^(l+1), m)/2 is tighter for a small gain.
    * Q >= 1 and T_j(m) <= m T_j(1) for m <= 1 give rho <= k m there, so
      m* >= min(1, c/k) > 0.  A gain of 0 (an underflow) leaves hi inf.
    """
    t = tail_kernel(l + 1, 1.0)
    if which == "N":
        span, k, hi = l + 1, tail_kernel(l + 2, 1.0) + t, c
    elif which == "rtau":
        x = 2.0 * c / min(gain, 1.0) if gain else math.inf
        span, k, hi = max(l, 1), gain * t, min(x, max(2.0 * c, x ** (1.0 / (l + 1))))
    else:
        span, k, hi = l, t, c if l else 2.0 * c
    lo = max(c - span, c / max(k, c))  # min(1, c/k), with no division by k = 0
    return lo * (1.0 - 2.0 ** -20), hi * (1.0 + 2.0 ** -20)


def _itp(g, a: tuple, b: tuple, tol_m: float) -> tuple:
    """Refine the bracket a = (lo, g(lo)), b = (hi, g(hi)), g(lo) <= 0 < g(hi),
    by ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020); return (lo, hi, steps).

    Each step takes the regula falsi point, truncates it toward the midpoint
    by kappa1 * width**2 (kappa1 = 10 / width0, kappa2 = 2) and projects it
    into the interval about the midpoint that leaves a bracket no wider
    than tol_m * 2**(n - step), n = ceil(log2(width0 / tol_m)): ITP with
    n0 = 1, so at most n + 1 steps (one more than bisection) up to
    rounding; that width starts below 2 * width0, so it cannot overflow.  A
    point that is not strictly inside the bracket becomes the midpoint, and
    a bracket of two adjacent floats ends the refinement.  A step with
    g <= 0 moves lo.
    """
    (lo, g_lo), (hi, g_hi) = a, b
    width0 = hi - lo
    bits = math.log2(width0) - math.log2(tol_m)
    allowed = width0 * 2.0 ** (math.ceil(bits) - bits)  # widest bracket after this step
    steps = 0
    while hi - lo > tol_m:
        width = hi - lo
        mid = lo + 0.5 * width
        if not lo < mid < hi:
            break
        x = lo + width * (g_lo / (g_lo - g_hi))
        toward = math.copysign(1.0, mid - x)
        cut = 10.0 * width * (width / width0)
        x = x + toward * cut if cut <= abs(mid - x) else mid
        radius = allowed - 0.5 * width
        if not abs(x - mid) <= radius:
            x = mid - toward * radius
        if not lo < x < hi:
            x = mid
        y = g(x)
        if y <= 0.0:
            lo, g_lo = x, y
        else:
            hi, g_hi = x, y
        allowed *= 0.5
        steps += 1
    return lo, hi, steps


# Parameter columns in their fixed sweep order.
_PARAM_ORDER = ("l", "m", "lambda", "alpha", "tau", "A", "B")
_RESULT_COLUMNS = ("criterion_value", "bound", "member", "status")


@dataclass(frozen=True)
class SweepTable:
    """Rows of a criterion sweep, in grid order, plus the column schema."""

    criterion: str
    columns: tuple
    rows: tuple  # of dicts keyed by `columns`

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
        }

    def to_csv(self) -> str:
        return rows_csv(self.columns, self.rows)


def _checked(make, axes, trailing=0):
    """``make(*point)`` over the product of ``axes`` as an ndarray shaped like
    that product plus ``trailing`` unit axes; NaN where ``make`` rejects the
    point."""
    import numpy as np

    out = []
    for point in itertools.product(*axes):
        try:
            out.append(make(*point))
        except ParameterError:
            out.append(np.nan)
    return np.array(out, dtype=float).reshape([len(a) for a in axes] + [1] * trailing)


def _axis(name: str, values) -> list:
    """A sweep axis as a list; a string or a single value is not an axis."""
    if not isinstance(values, (str, bytes)):
        try:
            return list(values)
        except TypeError:  # not iterable
            pass
    raise ParameterError(f"sweep axis {name!r} must be a list of values, got {values!r}")


def _tau_cell(t) -> str:
    """tau in canonical complex form (safe in CSV and JSON, parses back to the
    same value), or as given when it does not parse."""
    try:
        return repr(_complex(t))
    except ParameterError:
        return str(t)


def sweep(which: str, grid: dict) -> SweepTable:
    """Evaluate one criterion over a cartesian grid of parameter lists.

    ``grid`` maps parameter names (l, m, lambda, alpha and, for the rtau
    criterion, tau, A, B) to value lists.  Rows appear in lexicographic
    grid order (outermost parameter first, each list in its given order).
    A parameter or numeric error at one point becomes that row's status
    code; the sweep itself never aborts.  An empty list anywhere yields a
    header-only table.

    Each axis value (each (tau, A, B) triple for rtau) is validated once and
    each l is evaluated over its whole block of the other axes in one array
    call to the closed form the scalar criteria use, so every row holds what
    :func:`criterion_value` returns or raises at its point, bit for bit.
    """
    import numpy as np

    needs_rtau = _criterion(which).needs_rtau
    param_names = _PARAM_ORDER if needs_rtau else _PARAM_ORDER[:4]
    if set(grid) != set(param_names):
        raise ParameterError(f"sweep grid for {which!r} takes the lists {', '.join(param_names)}, "
                             f"got {', '.join(map(str, grid))}")

    axes = [_axis(n, grid[n]) for n in param_names]
    # one l's block: m, lambda, alpha (and tau, A, B), each along its own axis
    dims = len(axes) - 1
    m = _checked(_check_m, axes[1:2], dims - 1)
    lam = _checked(_check_lam, axes[2:3], dims - 2)
    alpha = _checked(_check_alpha, axes[3:4], dims - 3)
    gain = 1.0
    if needs_rtau:
        axes[4] = [_tau_cell(t) for t in axes[4]]
        gain = _checked(lambda t, a, b: RTauParams(t, a, b).gain, axes[4:])
    bad = np.isnan(m) | np.isnan(lam) | np.isnan(alpha) | np.isnan(gain)
    value = np.full((len(axes[0]),) + bad.shape, np.nan)
    invalid = np.broadcast_to(bad, value.shape).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i, l in enumerate(axes[0]):
            try:
                value[i] = closed_form(which, _as_integer_order(l), m, lam, alpha, gain)
            except ParameterError:  # a bad l, or l past the exact Stirling cap
                invalid[i] = True
    bound = alpha - 1.0
    status = np.where(invalid, "invalid_params",
                      np.where(np.isfinite(value), "ok", "numeric_failure"))
    columns = param_names + _RESULT_COLUMNS
    cells = zip(itertools.product(*axes),
                *(np.broadcast_to(a, value.shape).ravel().tolist()
                  for a in (value, bound, value <= bound + TOL_EQ, status)))
    return SweepTable(
        criterion=which,
        columns=columns,
        rows=tuple(dict(zip(columns, point + ((v, b, mem, st) if st == "ok" else
                                              (None, None, None, st))))
                   for point, v, b, mem, st in cells),
    )
