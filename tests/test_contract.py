"""The north-star contract over the public numeric surface.

Every public numeric name, called on inputs inside its documented domain
that mix ordinary values with float extremes (5e-324, 1e-300, 745.2, 2**32,
1e300, 1.7e308, orders up to each cap, series holding 1e308), returns a
value that is finite all the way down (dataclass fields, arrays, dicts,
sequences), or raises NumericFailure.  A ParameterError is the right family
only where the table names the domain rule a generated input may break.  No
warning escapes: every call runs with warnings turned into errors.

The CLI twin runs every subcommand on the same extremes in a child process:
it exits 0, 2 or 3, writes stdout that parses in the chosen format, and
prints no traceback and no warning on stderr.
"""

import csv
import dataclasses
import io
import json
import math
import numbers
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import touchardstar
from touchardstar import (
    ClassParams,
    DiskGrid,
    NegativeCoefficient,
    NumericFailure,
    ParameterError,
    RTauParams,
    TouchardParams,
    TruncatedSeries,
)
from touchardstar.criteria import CRITERIA
from touchardstar.moments import L_MAX, SERIES_TERM_CAP

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"

EXTREMES = (5e-324, 1e-300, 745.2, 2.0**32, 1e300, 1.7e308)


def mixed(ordinary, extremes=EXTREMES):
    """``ordinary`` values with the extremes mixed in about half the time."""
    return st.sampled_from(extremes) | ordinary


#: Every positive finite real, the domain of m, tol and tol_m.
POSITIVE = mixed(st.floats(2.0**-10, 2.0**10))
#: Moment orders: the closed forms take integers up to L_MAX, the series any real.
CLOSED_L = st.integers(0, L_MAX)
REAL_L = mixed(st.floats(0.0, 64.0)) | CLOSED_L
#: Kernel orders l (integers without a cap) and truncation orders up to SERIES_TERM_CAP.
KERNEL_L = st.sampled_from((1100, 2**32)) | CLOSED_L
TRUNCATION = st.sampled_from((2, 3, 64, SERIES_TERM_CAP)) | st.integers(2, 200)
LAM = st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53)) | st.floats(0.0, 0.99)
ALPHA = st.sampled_from((1.0 + 2.0**-52, 1.2, 4.0 / 3.0)) | st.floats(1.01, 4.0 / 3.0)
CLASS = st.builds(ClassParams, LAM, ALPHA)
UNIT = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)) | st.floats(-1.0, 1.0)
TAU = st.builds(complex, mixed(st.floats(-2.0, 2.0), EXTREMES + (-1.7e308,)),
                mixed(st.floats(-2.0, 2.0), EXTREMES + (-1.7e308,))).filter(bool)
RTAU = st.tuples(TAU, UNIT, UNIT).filter(lambda t: t[1] != t[2]).map(
    lambda t: RTauParams(t[0], max(t[1:]), min(t[1:])))
SIGNED = mixed(st.floats(-2.0, 2.0),
               tuple(s * x for x in EXTREMES + (1e308,) for s in (1, -1)) + (0.0,))
SERIES = st.lists(SIGNED, max_size=7).map(lambda c: TruncatedSeries([1.0] + c))
NONNEG_SERIES = st.lists(SIGNED.map(abs), max_size=7).map(lambda c: TruncatedSeries([1.0] + c))
#: Radii and points of modulus < 1, the extremes next to 0 and next to 1.
RADIUS = st.sampled_from((5e-324, 1e-300, 0.5, 1.0 - 2.0**-53)) | st.floats(0.01, 0.99)
POINT = st.builds(lambda r, turn: r * complex(math.cos(turn), math.sin(turn)), RADIUS,
                  st.floats(0.0, 2.0 * math.pi)).filter(lambda z: np.abs(z) < 1.0)
GRID = st.none() | st.builds(DiskGrid, st.lists(RADIUS, min_size=1, max_size=3).map(tuple),
                             st.integers(1, 8))
KERNEL = st.builds(TouchardParams, KERNEL_L, POSITIVE)


def theorem_params(which):
    return st.builds(TouchardParams, st.integers(0, CRITERIA[which].max_l), POSITIVE)


def criterion_args(draw, which):
    rtau = draw(RTAU) if CRITERIA[which].needs_rtau else None
    return which, draw(st.integers(0, CRITERIA[which].max_l)), rtau


@st.composite
def criterion_value_args(draw):
    which, l, rtau = criterion_args(draw, draw(st.sampled_from(tuple(CRITERIA))))
    return which, l, draw(POSITIVE), draw(CLASS), rtau


@st.composite
def threshold_args(draw):
    which, l, rtau = criterion_args(draw, draw(st.sampled_from(tuple(CRITERIA))))
    return which, l, draw(CLASS), rtau, draw(POSITIVE)


@st.composite
def sweep_args(draw):
    which = draw(st.sampled_from(tuple(CRITERIA)))
    axes = {"l": [draw(st.integers(0, CRITERIA[which].max_l))],
            "m": draw(st.lists(POSITIVE, min_size=1, max_size=3)),
            "lambda": [draw(LAM)], "alpha": [draw(ALPHA)]}
    if CRITERIA[which].needs_rtau:
        r = draw(RTAU)
        axes.update(tau=[r.tau], A=[r.A], B=[r.B])
    return which, axes


@st.composite
def stirling_args(draw):
    l = draw(CLOSED_L)
    return l, draw(st.integers(0, l))


HUGE = TruncatedSeries([1.0, 1e308])
HUGE_TAU = RTauParams(complex(1.7e308, 1.7e308), 1.0, -1.0)  # |tau| past the largest float

#: Overflows that each broke the contract once (a traceback, a warning, or
#: an overflow reported as a ParameterError), as (name, arguments) by id.
OVERFLOWS = {
    # finite terms whose weighted sum overflows inside math.fsum
    "sum-M": ("lemma_sum_M", (TruncatedSeries([1.0, 1.7e308, 0.9e308]), ClassParams(0.0, 1.2))),
    # a weighted term past the float range
    "sum-N": ("lemma_sum_N", (TruncatedSeries([1.0, 0.0, 1e308]), ClassParams(0.5, 1.2))),
    # a weight n w(n) near 4e8 takes a coefficient far below the float range past it
    "sum-N-long": ("lemma_sum_N", (TruncatedSeries([1.0] + [0.0] * 19998 + [9e299]),
                                   ClassParams(0.0, 1.2))),
    "hadamard": ("hadamard", (HUGE, HUGE)),
    "operator-I": ("apply_operator_I", (TouchardParams(20, 60.0),
                                        TruncatedSeries([1.0] + [1e300] * 99))),
    "rtau-theorem": ("theorem_rtau_inclusion", (TouchardParams(0, 2.0), ClassParams(0.0, 1.2),
                                                HUGE_TAU)),
    "rtau-bound": ("rtau_coeff_bound", (2, HUGE_TAU)),
}

#: name -> (strategy of argument tuples, the ParameterError subclasses a
#: generated input may rightly raise, explicit examples).  The examples, and
#: OVERFLOWS, pin paths the strategies reach only by luck.
CONTRACT = {
    "poisson_moment_closed": (st.tuples(CLOSED_L, POSITIVE), (), [(64, 1.7e308)]),
    "poisson_moment_series": (st.tuples(REAL_L, POSITIVE, POSITIVE), (),
                              [(1.7e308, 1.0, 1e-12), (171.8, 20.0, 1e-12)]),
    "tail_moment": (st.tuples(CLOSED_L, POSITIVE), (), [(2, 1e300)]),
    "stirling2": (stirling_args(), (), [(L_MAX, 32)]),
    "touchard_series": (st.tuples(KERNEL, TRUNCATION), (),
                        [(TouchardParams(64, 1000.0), 200)]),
    "apply_operator_L": (st.tuples(KERNEL, TRUNCATION), (), [(TouchardParams(1100, 1e-3), 64)]),
    "apply_operator_I": (st.tuples(KERNEL, SERIES), (), []),
    "hadamard": (st.tuples(SERIES, SERIES), (), []),
    "evaluate": (st.tuples(SERIES, POINT, st.integers(0, 2)), (),
                 [(TruncatedSeries([1.0, 0.0, 1e308]), 0.9, 2)]),
    "evaluate_rings": (st.tuples(SERIES, st.lists(RADIUS, min_size=1, max_size=3),
                                 st.integers(1, 8), st.sampled_from([(0,), (1, 2), (0, 1, 2)])),
                       (), [(HUGE, [0.5], 8, (1,))]),
    "lemma_sum_M": (st.tuples(SERIES, CLASS), (NegativeCoefficient,), []),
    "lemma_sum_N": (st.tuples(NONNEG_SERIES, CLASS), (), []),
    "brute_force_M": (st.tuples(KERNEL, CLASS, TRUNCATION), (), []),
    "brute_force_N": (st.tuples(KERNEL, CLASS, TRUNCATION), (), []),
    "theorem_M_lhs": (st.tuples(theorem_params("M"), CLASS), (), []),
    "theorem_N_lhs": (st.tuples(theorem_params("N"), CLASS), (), []),
    "theorem_integral_operator": (st.tuples(theorem_params("integral"), CLASS), (), []),
    "theorem_rtau_inclusion": (st.tuples(theorem_params("rtau"), CLASS, RTAU), (), []),
    "rtau_coeff_bound": (st.tuples(st.integers(2, 2**32), RTAU), (), []),
    "criterion_value": (criterion_value_args(), (), []),
    "find_threshold": (threshold_args(), (), []),
    "sweep": (sweep_args(), (), []),
    "verify_M": (st.tuples(SERIES, CLASS, GRID), (), [(HUGE, ClassParams(0.5, 1.2), None)]),
    "verify_N": (st.tuples(SERIES, CLASS, GRID), (), []),
    "verify_rtau": (st.tuples(SERIES, RTAU, GRID), (), []),
}


def test_table_covers_every_public_numeric_function():
    # classes are reached through the calls; the CSV helpers read or write text
    functions = {name for name in touchardstar.__all__
                 if callable(getattr(touchardstar, name)) and name[0].islower()}
    assert functions - {"samples_to_csv", "series_from_csv", "series_to_csv"} == set(CONTRACT)


def assert_finite(value, where="result"):
    """Every number in ``value`` is finite, through dataclasses, arrays, dicts and sequences."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_finite(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, TruncatedSeries):
        assert_finite(value.coeffs, f"{where}.coeffs")
    elif isinstance(value, np.ndarray):
        assert np.isfinite(value).all(), where
    elif isinstance(value, dict):
        for k, v in value.items():
            assert_finite(v, f"{where}[{k!r}]")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            assert_finite(v, f"{where}[{i}]")
    elif isinstance(value, numbers.Complex) and not isinstance(value, numbers.Integral):
        assert math.isfinite(value.real) and math.isfinite(value.imag), (where, value)


def check(name, args):
    domain = CONTRACT[name][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(touchardstar, name)(*args)
        except NumericFailure:
            return
        except ParameterError as exc:
            assert isinstance(exc, domain), f"{name}{args!r} raised {exc!r}"
            return
    assert_finite(result, name)


def contract_test(name):
    strategy, _, examples = CONTRACT[name]
    test = given(args=strategy)(lambda args: check(name, args))
    for args in examples:
        test = example(args=args)(test)
    return test


@pytest.mark.parametrize("name", list(CONTRACT))
def test_contract(name):
    contract_test(name)()


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_overflow_is_a_numeric_failure(case):
    name, args = OVERFLOWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="overflows a float") as info:
            getattr(touchardstar, name)(*args)
    assert type(info.value) is NumericFailure


def child(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "touchardstar", *argv], capture_output=True,
                          text=True, env=env, timeout=60, cwd=cwd)


def parses(text, fmt):
    if fmt == "json":
        json.loads(text)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)
    else:
        assert text.endswith("\n") and all(": " in ln or "=" in ln or "," in ln
                                           for ln in text.splitlines())


CLASS_FLAGS = ["--lambda", "0.5", "--alpha", "1.2"]
RTAU_FLAGS = ["--tau", "1.7e308+1.7e308j", "--A", "1", "--B", "-1"]
SWEEP = {"criterion": "rtau", "l": [0, 63], "m": list(EXTREMES), "lambda": [0.0, 5e-324],
         "alpha": [1.2], "tau": ["1.7e308+1.7e308j", "1"], "A": [1.0], "B": [-1.0]}

CLI_CASES = {
    "moment-series": ["moment", "--series", "--l", "1.7e308", "--m", "1", "--format", "csv"],
    "moment-series-tiny": ["moment", "--series", "--l", "0", "--m", "5e-324", "--tol", "5e-324",
                           "--format", "human"],
    "coeffs-underflow": ["coeffs", "--l", "0", "--m", "745.2", "--format", "json"],
    "check-class-sum": ["check-class", "--class", "Mstar", "--lambda", "0", "--alpha", "1.2",
                        "--series", "{data}/overflow_sum.csv"],
    "check-class-term": ["check-class", "--class", "Nstar", *CLASS_FLAGS,
                         "--series", "{data}/overflow_term.csv", "--format", "csv"],
    "check-theorem": ["check-theorem", "--which", "rtau", "--l", "0", "--m", "2", *CLASS_FLAGS,
                      *RTAU_FLAGS],
    "threshold": ["threshold", "--which", "rtau", "--l", "63", *CLASS_FLAGS, *RTAU_FLAGS,
                  "--tol-m", "5e-324"],
    "verify-disk": ["verify-disk", "--which", "N", *CLASS_FLAGS,
                    "--series", "{data}/overflow_term.csv", "--rmax", "0.9999999999999999"],
    "verify-disk-rtau": ["verify-disk", "--which", "rtau", *RTAU_FLAGS, "--touchard", "0",
                         "745.2", "--rings", "2", "--angles", "4", "--format", "csv"],
    "sweep": ["sweep", "--spec", "{tmp}/sweep.json", "--format", "json"],
}


@pytest.mark.parametrize("argv", list(CLI_CASES.values()), ids=list(CLI_CASES))
def test_cli_contract(argv, tmp_path):
    (tmp_path / "sweep.json").write_text(json.dumps(SWEEP), encoding="utf-8")
    argv = [a.replace("{data}", str(DATA)).replace("{tmp}", str(tmp_path)) for a in argv]
    proc = child(*argv, cwd=tmp_path)
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    if proc.returncode:
        assert proc.stdout == ""
        assert proc.stderr.startswith({2: "error: ", 3: "numeric failure: "}[proc.returncode])
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else \
            "csv" if argv[0] in ("coeffs", "sweep") else "json"
        parses(proc.stdout, fmt)
