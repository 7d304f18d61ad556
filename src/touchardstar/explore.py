"""Parameter-space exploration: membership thresholds in m, and sweep tables.

For fixed (l, lambda, alpha) the closed-form criteria are continuous in the
Poisson parameter m, vanish as m -> 0 and, whenever 1 - alpha*lambda > 0,
grow without bound as m -> infinity, so a finite threshold m* separates
members from non-members.  Monotonicity in m is NOT assumed (the criterion
carries a negative term): the scan walks a geometric ladder, records every
sign change, refines the first bracket by ITP (interpolate, truncate,
project) and reports the rest alongside a warning.  A root the ladder misses
(alpha -> 1+ puts it below the ladder, alpha*lambda -> 1- above) is found by
walking on outward one power of 2 at a time.  A solve checks its criterion,
order and (tau, A, B) once, as :func:`criterion_value` would, and then
evaluates :func:`criteria.closed_form` directly at every m it tries, with
the same finiteness check.

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
    _finite,
    closed_form,
)
from .errors import NoThreshold, ParameterError
from .formats import rows_csv
from .moments import _as_integer_order, _check_m, _check_tol

#: Geometric scan ladder: m = 2**k for k in this inclusive range.  It holds
#: the threshold for most parameters, but not all: as alpha -> 1+ the
#: threshold falls below 2^-10 (5e-4 at l = 1, lambda = 0, alpha = 1.0005),
#: and as alpha*lambda -> 1- it rises past 2^10 (5000 at l = 0,
#: lambda = 0.7499, alpha = 4/3).  When the ladder shows no sign change,
#: :func:`find_threshold` walks on outward, up to the powers of 2 in
#: :data:`_FLOAT_EXPONENTS`.
LADDER_EXPONENTS = (-10, 10)

#: The smallest and the largest power of 2 a float holds.
_FLOAT_EXPONENTS = (-1074, 1023)


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
    root back in).  ``all_brackets`` lists every sign change seen on the
    scan ladder (or the one the outward walk found); more than one triggers
    a non-monotonicity warning.
    """

    m_star: float
    bracket: tuple
    residual: float
    iterations: int
    criterion: str
    warnings: tuple = field(default=())
    all_brackets: tuple = field(default=())

    def to_dict(self) -> dict:
        return dict(asdict(self), bracket=list(self.bracket), warnings=list(self.warnings),
                    all_brackets=[list(b) for b in self.all_brackets])


def find_threshold(which: str, l: int, p: ClassParams, rtau: RTauParams | None = None,
                   tol_m: float = 1e-10) -> ThresholdResult:
    """Locate the m where the chosen criterion first crosses alpha - 1.

    A bad criterion, order or (tau, A, B) raises ParameterError, checked
    once before anything is evaluated.  Then 1 - alpha*lambda > 0 is
    required; otherwise the criterion value stays nonpositive for every m
    (each term is then nonpositive) and no threshold exists (NoThreshold).  Scans m = 2**k over
    the ladder for sign changes of g(m) = criterion(m) - (alpha - 1).  With
    none there, it walks on one power of 2 at a time: down from the low end
    if g > 0 there, up from the high end if g <= 0 there, to the ends of the
    float range (NoThreshold if g never changes sign).  It then refines the
    first bracket by ITP (see :func:`_itp`) until it is no wider than
    ``tol_m`` or is two adjacent floats, in at most
    ceil(log2(width0 / tol_m)) + 1 evaluations for a bracket of width
    width0.  The sign of an exact zero counts as negative, matching the
    bracket invariant value(m_lo) <= bound < value(m_hi).  Every evaluation
    is one call to :func:`criteria.closed_form`, whose value is what
    :func:`criterion_value` reports at that m, bit for bit; one that is not
    finite raises the NumericFailure :func:`criterion_value` would.
    """
    tol_m = _check_tol(tol_m)
    order, gain = _check_criterion(which, l, rtau)
    if 1.0 - p.alpha * p.lam <= 0:
        raise NoThreshold(
            f"1 - alpha*lambda = {1.0 - p.alpha * p.lam!r} <= 0: criterion stays below the "
            "bound for every m, no threshold exists"
        )
    lam, alpha, bound, detail = p.lam, p.alpha, p.bound, CRITERIA[which].detail

    def g(m: float) -> float:
        return _finite(closed_form(which, order, m, lam, alpha, gain), detail) - bound

    k_lo, k_hi = LADDER_EXPONENTS
    rungs = [(m, g(m)) for m in (2.0 ** k for k in range(k_lo, k_hi + 1))]  # (m, g(m)) pairs
    brackets = [(a, b) for a, b in zip(rungs, rungs[1:]) if (a[1] > 0.0) != (b[1] > 0.0)]
    if not brackets:
        # g keeps one sign on the whole ladder: the root lies below it if
        # g > 0 there, above it if g <= 0 there
        down = rungs[0][1] > 0.0
        crossing = _walk(g, k_lo, rungs[0][1], -1) if down else _walk(g, k_hi, rungs[-1][1], 1)
        if crossing is None:
            low, high = (_FLOAT_EXPONENTS[0], k_hi) if down else (k_lo, _FLOAT_EXPONENTS[1])
            raise NoThreshold(
                f"no sign change of criterion {which!r} on "
                f"[2^{low}, 2^{high}] for l={l}, lambda={p.lam}, alpha={p.alpha}"
            )
        brackets = [crossing]
    warnings = ()
    if len(brackets) > 1:
        warnings = (f"non-monotone: {len(brackets)} sign changes on the scan ladder",)

    lo, hi, iterations = _itp(g, *brackets[0], tol_m)
    m_star = lo + 0.5 * (hi - lo)
    return ThresholdResult(
        m_star=m_star,
        bracket=(lo, hi),
        residual=g(m_star),
        iterations=iterations,
        criterion=CRITERIA[which].label,
        warnings=warnings,
        all_brackets=tuple((a[0], b[0]) for a, b in brackets),
    )


def _walk(g, k: int, g_k: float, step: int):
    """From m = 2**k, where g is ``g_k``, evaluate g at 2**(k + step),
    2**(k + 2 step), ... until its sign changes; return that crossing as a
    pair of (m, g(m)) in increasing m, or None at the end of the float range."""
    while k != _FLOAT_EXPONENTS[step > 0]:
        k += step
        g_next = g(2.0 ** k)
        if (g_next > 0.0) != (g_k > 0.0):
            return ((2.0 ** (k - step), g_k), (2.0 ** k, g_next))[::step]
        g_k = g_next
    return None


def _itp(g, a: tuple, b: tuple, tol_m: float) -> tuple:
    """Refine the bracket a = (lo, g(lo)), b = (hi, g(hi)), g(lo) <= 0 < g(hi),
    by ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020); return (lo, hi, steps).

    Each step takes the regula falsi point, truncates it toward the midpoint
    by kappa1 * width**2 (kappa1 = 0.2 / width0, kappa2 = 2) and projects it
    into the interval about the midpoint that leaves a bracket no wider
    than tol_m * 2**(n - step), n = ceil(log2(width0 / tol_m)): ITP with
    n0 = 1, so at most n + 1 steps (one more than bisection) up to
    rounding.  That width starts at width0 * 2**(n - log2(width0 / tol_m)),
    below 2 * width0, so it cannot overflow however small tol_m is.  A point
    that is not strictly inside the bracket becomes the midpoint, and a
    bracket of two adjacent floats ends the refinement.  A step with g <= 0
    moves lo.
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
        cut = 0.2 * width * (width / width0)
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
