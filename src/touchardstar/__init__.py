"""Poisson-moment kernels and membership criteria for positive-coefficient
starlike and convex function classes on the unit disk.

The package computes raw Poisson moments (Touchard polynomial values) by two
independent routes, builds the normalized series whose coefficients are
Poisson-weighted, applies Hadamard convolution and integral operators to it,
and decides class membership three ways: closed forms, truncated coefficient
sums, and direct sampling of the defining analytic conditions on the disk.
A threshold finder and sweep harness cover parameter-space exploration.

Every exported name loads its submodule on first use, so importing the
package, or running a closed-form subcommand of the CLI, needs only the
standard library; numpy is imported by the array and series code that uses it.
"""

import importlib

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("ClassParams", "MembershipReport", "RTauParams", "TOL_EQ", "brute_force_M",
         "brute_force_N", "lemma_sum_M", "lemma_sum_N", "rtau_coeff_bound", "theorem_M_lhs",
         "theorem_N_lhs", "theorem_integral_operator", "theorem_rtau_inclusion"),
        "criteria"),
    **dict.fromkeys(
        ("DiskGrid", "VerificationReport", "samples_to_csv", "verify_M", "verify_N",
         "verify_rtau"),
        "disk"),
    **dict.fromkeys(
        ("InvalidIndex", "InvalidOrder", "NegativeCoefficient", "NoConvergence", "NoThreshold",
         "NumericFailure", "OrderTooLarge", "OutOfDisk", "ParameterError", "TouchardStarError"),
        "errors"),
    **dict.fromkeys(
        ("SweepTable", "ThresholdResult", "criterion_value", "find_threshold", "sweep"),
        "explore"),
    **dict.fromkeys(
        ("L_MAX", "MomentValue", "TouchardParams", "poisson_moment_closed",
         "poisson_moment_series", "stirling2", "tail_moment"),
        "moments"),
    **dict.fromkeys(
        ("DEFAULT_ORDER", "TruncatedSeries", "apply_operator_I", "apply_operator_L", "evaluate",
         "evaluate_rings", "hadamard", "series_from_csv", "series_to_csv", "touchard_series"),
        "series"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # read from the submodule at every access, so the package name always
    # matches the submodule attribute (a patched one included)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
