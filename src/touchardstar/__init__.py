"""Poisson-moment kernels and membership criteria for positive-coefficient
starlike and convex function classes on the unit disk.

The package computes raw Poisson moments (Touchard polynomial values) by two
independent routes, builds the normalized series whose coefficients are
Poisson-weighted, applies Hadamard convolution and integral operators to it,
and decides class membership three ways: closed forms, truncated coefficient
sums, and direct sampling of the defining analytic conditions on the disk.
A threshold finder and sweep harness cover parameter-space exploration.
"""

from .criteria import (
    ClassParams,
    MembershipReport,
    RTauParams,
    TOL_EQ,
    brute_force_M,
    brute_force_N,
    lemma_sum_M,
    lemma_sum_N,
    rtau_coeff_bound,
    theorem_M_lhs,
    theorem_N_lhs,
    theorem_integral_operator,
    theorem_rtau_inclusion,
)
from .disk import DiskGrid, VerificationReport, samples_to_csv, verify_M, verify_N, verify_rtau
from .errors import (
    InvalidIndex,
    InvalidOrder,
    NegativeCoefficient,
    NoConvergence,
    NoThreshold,
    NumericFailure,
    OrderTooLarge,
    OutOfDisk,
    ParameterError,
    TouchardStarError,
)
from .explore import SweepTable, ThresholdResult, criterion_value, find_threshold, sweep
from .moments import (
    L_MAX,
    MomentValue,
    TouchardParams,
    poisson_moment_closed,
    poisson_moment_series,
    stirling2,
    tail_moment,
)
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    apply_operator_I,
    apply_operator_L,
    evaluate,
    evaluate_rings,
    hadamard,
    series_from_csv,
    series_to_csv,
    touchard_series,
)

__version__ = "0.1.0"

__all__ = [
    "ClassParams",
    "DEFAULT_ORDER",
    "DiskGrid",
    "InvalidIndex",
    "InvalidOrder",
    "L_MAX",
    "MembershipReport",
    "MomentValue",
    "NegativeCoefficient",
    "NoConvergence",
    "NoThreshold",
    "NumericFailure",
    "OrderTooLarge",
    "OutOfDisk",
    "ParameterError",
    "RTauParams",
    "SweepTable",
    "TOL_EQ",
    "ThresholdResult",
    "TouchardParams",
    "TouchardStarError",
    "TruncatedSeries",
    "VerificationReport",
    "apply_operator_I",
    "apply_operator_L",
    "brute_force_M",
    "brute_force_N",
    "criterion_value",
    "evaluate",
    "evaluate_rings",
    "find_threshold",
    "hadamard",
    "lemma_sum_M",
    "lemma_sum_N",
    "poisson_moment_closed",
    "poisson_moment_series",
    "rtau_coeff_bound",
    "samples_to_csv",
    "series_from_csv",
    "series_to_csv",
    "stirling2",
    "sweep",
    "tail_moment",
    "theorem_M_lhs",
    "theorem_N_lhs",
    "theorem_integral_operator",
    "theorem_rtau_inclusion",
    "touchard_series",
    "verify_M",
    "verify_N",
    "verify_rtau",
]
