"""Exception types shared across the package.

Two families matter to callers: :class:`ParameterError` for inputs that are
outside a function's domain (rejected before any numerics run), and
:class:`NumericFailure` for computations that started but could not finish
(a series that will not converge, a root scan that finds no bracket, a
value that overflows a float).
The command-line front end maps the families to exit codes 2 and 3.
"""


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
