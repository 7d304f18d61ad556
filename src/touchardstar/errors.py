"""Exception types shared across the package, and its one overflow gate.

Two families matter to callers: :class:`ParameterError` for inputs that are
outside a function's domain (rejected before any numerics run), and
:class:`NumericFailure` for computations that started but could not finish
(a series that will not converge, a root scan that finds no bracket, a
value that overflows a float).
The command-line front end maps the families to exit codes 2 and 3.

Validated inputs are finite, so a value past the float range (inf, or the
NaN of inf - inf) comes from an overflow, and :func:`finite`, the one gate,
turns it into a NumericFailure: no result carries inf or NaN, and no
overflow is reported as a bad parameter.  Numpy code that may overflow runs
under np.errstate, or :func:`guarded`, so that no warning escapes.
"""

import math


class TouchardStarError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TouchardStarError, ValueError):
    """An argument is outside the documented domain."""


class OrderTooLarge(ParameterError):
    """Moment order exceeds the exact-arithmetic cap."""


class InvalidIndex(ParameterError):
    """Stirling index k is outside 0 <= k <= l."""


class InvalidOrder(ParameterError):
    """Series truncation order outside 2..SERIES_TERM_CAP."""


class OutOfDisk(ParameterError):
    """Evaluation point has modulus >= 1."""


class NegativeCoefficient(ParameterError):
    """Coefficient-sum test requires nonnegative coefficients a_n for n >= 2."""


class NumericFailure(TouchardStarError, RuntimeError):
    """A numeric procedure could not reach its target."""


class NoConvergence(NumericFailure):
    """Series summation hit the term cap before the tail bound cleared."""


class NoThreshold(NumericFailure):
    """No membership threshold exists, or none within the float range."""


def finite(value, what: str):
    """``value``, a number or an ndarray, if it is finite throughout, else
    NumericFailure("<what> overflows a float").  A float takes the math
    route, so the closed forms never load numpy."""
    if isinstance(value, float):  # numpy's float64 too
        ok = math.isfinite(value)
    else:
        import numpy as np

        ok = np.count_nonzero(np.isfinite(value)) == np.size(value)
    if not ok:
        raise NumericFailure(f"{what} overflows a float")
    return value


def guarded(what: str, fn, *args):
    """``fn(*args)``, an ndarray, with numpy's warnings silenced and the result
    through :func:`finite`.  Callers come here only when a magnitude bound
    says ``fn`` may overflow: otherwise neither is needed, and both cost
    more than a short product."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return finite(fn(*args), what)
