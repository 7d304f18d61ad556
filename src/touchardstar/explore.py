"""Parameter-space exploration: membership thresholds in m, and sweep tables.

For fixed (l, lambda, alpha) the closed-form criteria are continuous in the
Poisson parameter m, vanish as m -> 0 and, whenever 1 - alpha*lambda > 0,
grow without bound as m -> infinity, so a finite threshold m* separates
members from non-members.  Monotonicity in m is NOT assumed (the criterion
carries a negative term): the scan walks a geometric ladder, records every
sign change, bisects the first bracket and reports the rest alongside a
warning.

Sweeps evaluate one criterion over a cartesian parameter grid in array
calls, one per moment order, never aborting on a bad point (errors become
row status codes).  Output is deterministic to the byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .criteria import (
    ALPHA_MAX,
    TOL_EQ,
    ClassParams,
    MembershipReport,
    RTauParams,
    closed_form,
    theorem_M_lhs,
    theorem_N_lhs,
    theorem_integral_operator,
    theorem_rtau_inclusion,
)
from .errors import NoThreshold, ParameterError
from .moments import TouchardParams

#: Geometric scan ladder: m = 2**k for k in this inclusive range.  The upper
#: end is far beyond the interesting regime (criteria are astronomically
#: past the bound by m ~ 100); the lower end is small enough that every
#: criterion in the supported alpha range is still below its bound.
LADDER_EXPONENTS = (-10, 10)

CRITERION_NAMES = {
    "M": "M_theorem",
    "N": "N_theorem",
    "rtau": "rtau",
    "integral": "integral",
}


def criterion_value(which: str, l: int, m: float, p: ClassParams,
                    rtau: RTauParams | None = None) -> MembershipReport:
    """Closed-form membership report for one criterion at one parameter point."""
    tp = TouchardParams(l, m)
    if which == "M":
        return theorem_M_lhs(tp, p)
    if which == "N":
        return theorem_N_lhs(tp, p)
    if which == "integral":
        return theorem_integral_operator(tp, p)
    if which == "rtau":
        if rtau is None:
            raise ParameterError("criterion 'rtau' needs (tau, A, B) parameters")
        return theorem_rtau_inclusion(tp, p, rtau)
    raise ParameterError(f"unknown criterion {which!r}; expected M, N, rtau or integral")


@dataclass(frozen=True)
class ThresholdResult:
    """Converged membership threshold in m.

    The bracket satisfies criterion(m_lo) <= alpha - 1 < criterion(m_hi)
    and is narrower than the requested tolerance; ``residual`` is the
    criterion value at m_star minus the bound (self-certification: plug the
    root back in).  ``all_brackets`` lists every sign change seen on the
    scan ladder; more than one triggers a non-monotonicity warning.
    """

    m_star: float
    bracket: tuple
    residual: float
    iterations: int
    criterion: str
    warnings: tuple = field(default=())
    all_brackets: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "m_star": self.m_star,
            "bracket": list(self.bracket),
            "residual": self.residual,
            "iterations": self.iterations,
            "criterion": self.criterion,
            "warnings": list(self.warnings),
            "all_brackets": [list(b) for b in self.all_brackets],
        }


def find_threshold(which: str, l: int, p: ClassParams, rtau: RTauParams | None = None,
                   tol_m: float = 1e-10,
                   ladder_exponents: tuple = LADDER_EXPONENTS) -> ThresholdResult:
    """Locate the m where the chosen criterion first crosses alpha - 1.

    Requires 1 - alpha*lambda > 0; otherwise the criterion value stays
    nonpositive for every m (each term is then nonpositive) and no
    threshold exists.  Scans m = 2**k over the ladder for sign changes of
    criterion(m) - (alpha - 1), then bisects the first bracket down to
    ``tol_m``.  The sign of an exact zero counts as negative, matching the
    bracket invariant value(m_lo) <= bound < value(m_hi).
    """
    if not (tol_m > 0):
        raise ParameterError(f"tol_m must be positive, got {tol_m!r}")
    if 1.0 - p.alpha * p.lam <= 0:
        raise NoThreshold(
            f"1 - alpha*lambda = {1.0 - p.alpha * p.lam!r} <= 0: criterion stays below the "
            "bound for every m, no threshold exists"
        )

    def g(m: float) -> float:
        return criterion_value(which, l, m, p, rtau).criterion_value - p.bound

    k_lo, k_hi = ladder_exponents
    ladder = [2.0 ** k for k in range(k_lo, k_hi + 1)]
    values = [g(m) for m in ladder]
    brackets = [
        (ladder[i], ladder[i + 1])
        for i in range(len(ladder) - 1)
        if (values[i] <= 0.0) != (values[i + 1] <= 0.0)
    ]
    if not brackets:
        raise NoThreshold(
            f"no sign change of criterion {which!r} on the ladder "
            f"[2^{k_lo}, 2^{k_hi}] for l={l}, lambda={p.lam}, alpha={p.alpha}"
        )
    warnings = ()
    if len(brackets) > 1:
        warnings = (f"non-monotone: {len(brackets)} sign changes on the scan ladder",)

    lo, hi = brackets[0]
    iterations = 0
    while hi - lo > tol_m:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    m_star = 0.5 * (lo + hi)
    return ThresholdResult(
        m_star=m_star,
        bracket=(lo, hi),
        residual=g(m_star),
        iterations=iterations,
        criterion=CRITERION_NAMES[which],
        warnings=warnings,
        all_brackets=tuple(brackets),
    )


# Parameter columns in their fixed sweep order.
_PARAM_ORDER = ("l", "m", "lambda", "alpha", "tau", "A", "B")
_RESULT_COLUMNS = ("criterion_value", "bound", "member", "status")
_BAD_PARAMS = (ParameterError, ValueError, TypeError, OverflowError)  # an int past float range


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
        from .formats import rows_csv  # the CLI's renderer, loaded only when asked for
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
        except _BAD_PARAMS:
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
        return repr(complex(str(t).replace(" ", ""))).replace(" ", "")
    except ValueError:
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

    if not isinstance(which, str) or which not in CRITERION_NAMES:
        raise ParameterError(f"unknown criterion {which!r}; expected M, N, rtau or integral")
    needs_rtau = which == "rtau"
    param_names = [n for n in _PARAM_ORDER if n in ("l", "m", "lambda", "alpha")
                   or (needs_rtau and n in ("tau", "A", "B"))]
    missing = [n for n in param_names if n not in grid]
    if missing:
        raise ParameterError(f"sweep grid missing parameter lists: {', '.join(missing)}")
    unknown = sorted(set(grid) - set(param_names))
    if unknown:
        raise ParameterError(f"sweep grid has unexpected keys: {', '.join(unknown)}")

    axes = [_axis(n, grid[n]) for n in param_names]
    # one l's block: m, lambda, alpha (and tau, A, B), each along its own axis
    dims = len(axes) - 1
    m = _checked(lambda m: TouchardParams(0, m).m, axes[1:2], dims - 1)
    lam = _checked(lambda v: ClassParams(float(v), ALPHA_MAX).lam, axes[2:3], dims - 2)
    alpha = _checked(lambda v: ClassParams(0.0, float(v)).alpha, axes[3:4], dims - 3)
    gain = 1.0
    if needs_rtau:
        axes[4] = [_tau_cell(t) for t in axes[4]]
        gain = _checked(lambda t, a, b: RTauParams(complex(t), float(a), float(b)).gain,
                        axes[4:])
    bad = np.isnan(m) | np.isnan(lam) | np.isnan(alpha) | np.isnan(gain)
    value = np.full((len(axes[0]),) + bad.shape, np.nan)
    invalid = np.broadcast_to(bad, value.shape).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i, l in enumerate(axes[0]):
            try:
                value[i] = closed_form(which, TouchardParams(l, 1.0).integer_order,
                                       m, lam, alpha, gain)
            except _BAD_PARAMS:  # a bad l, or l past the exact Stirling cap
                invalid[i] = True
    bound = alpha - 1.0
    status = np.where(invalid, "invalid_params",
                      np.where(np.isfinite(value), "ok", "numeric_failure"))
    columns = tuple(param_names) + _RESULT_COLUMNS
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
