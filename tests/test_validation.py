"""One validation rule across the library, the sweep and the CLI.

A real parameter is any ``numbers.Real`` but bool (numpy scalars included)
that is finite; an integer parameter is any ``numbers.Integral`` but bool.
Strings are not numbers, except tau, which parses as a complex number.
Whatever the library rejects, a sweep row reports as ``invalid_params``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from touchardstar import (
    ClassParams,
    InvalidOrder,
    NoThreshold,
    ParameterError,
    RTauParams,
    TouchardParams,
    criterion_value,
    find_threshold,
    rtau_coeff_bound,
    stirling2,
    sweep,
    touchard_series,
)
from touchardstar import disk
from touchardstar.criteria import CRITERIA

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = {"l": [2], "m": [0.5], "lambda": [0.25], "alpha": [1.2]}
RTAU = {"tau": ["1+1j"], "A": [1.0], "B": [-1.0]}


def statuses(which, **axes):
    grid = {**GRID, **(RTAU if which == "rtau" else {}), **axes}
    return [row["status"] for row in sweep(which, grid).rows]


class TestSweepFollowsTheLibrary:
    @pytest.mark.parametrize("which, axes", [
        ("M", {"lambda": ["0.5"]}),
        ("M", {"alpha": ["1.2"]}),
        ("M", {"lambda": [False]}),
        ("M", {"m": [True]}),
        ("N", {"l": [True]}),
        ("rtau", {"A": ["0.5"]}),
        ("rtau", {"B": [None]}),
    ], ids=["lambda-str", "alpha-str", "lambda-bool", "m-bool", "l-bool", "A-str", "B-none"])
    def test_rejected_values_are_invalid_rows(self, which, axes):
        assert statuses(which, **axes) == ["invalid_params"]

    def test_tau_strings_accepted(self):
        rows = sweep("rtau", {**GRID, **RTAU, "tau": ["1+1j", "1 + 1j", "0.5"]}).rows
        assert [(r["tau"], r["status"]) for r in rows] == \
            [("(1+1j)", "ok"), ("(1+1j)", "ok"), ("(0.5+0j)", "ok")]

    def test_numpy_axes(self):
        grid = {"l": np.arange(0, 2), "m": np.arange(1, 3), "lambda": np.array([0.25]),
                "alpha": [np.float32(1.25)]}
        rows = sweep("M", grid).rows
        assert [r["status"] for r in rows] == ["ok"] * 4
        p = ClassParams(0.25, float(np.float32(1.25)))
        assert [r["criterion_value"] for r in rows] == \
            [criterion_value("M", l, m, p).criterion_value for l in (0, 1) for m in (1, 2)]


class TestLibraryParameters:
    @pytest.mark.parametrize("args", [(1, "0.5", -1), (1, 0.5, None), (True, 0.5, -0.5),
                                      ("x", 0.5, -0.5), (10**400, 0.5, -0.5)])
    def test_rtau_params(self, args):
        with pytest.raises(ParameterError):
            RTauParams(*args)

    @pytest.mark.parametrize("args", [(False, 1.2), (0.25, True), ("0.25", 1.2), (0.25, None)])
    def test_class_params(self, args):
        with pytest.raises(ParameterError):
            ClassParams(*args)

    def test_numpy_scalars_accepted(self):
        r = RTauParams(np.complex128(1 + 1j), np.float32(0.5), np.int64(-1))
        assert r.gain == 1.5 * abs(1 + 1j) and type(r.gain) is float
        p = ClassParams(np.float64(0.25), np.float32(1.25))
        assert (p.lam, p.alpha) == (0.25, 1.25) and type(p.bound) is float
        assert type(TouchardParams(1, np.int64(2)).m) is float
        report = criterion_value("rtau", np.int64(2), np.float32(0.5), p, r)
        assert report == criterion_value("rtau", 2, 0.5, ClassParams(0.25, 1.25),
                                         RTauParams(1 + 1j, 0.5, -1.0))
        assert touchard_series(TouchardParams(1, 0.5), np.int64(8)).order == 8
        assert rtau_coeff_bound(np.int64(3), RTauParams(1.0, 1.0, -1.0)) == 2 / 3
        assert stirling2(np.int64(3), np.uint8(1)) == 1

    def test_integer_arguments(self):
        with pytest.raises(InvalidOrder):
            touchard_series(TouchardParams(1, 0.5), True)
        with pytest.raises(ParameterError):
            rtau_coeff_bound(2.0, RTauParams(1.0, 1.0, -1.0))
        with pytest.raises(ParameterError):
            stirling2(3, False)

    def test_every_disk_entry_names_a_verifier(self):
        assert [w for w, c in CRITERIA.items() if c.disk] == ["M", "N", "rtau"]
        assert all(callable(getattr(disk, c.disk)) for c in CRITERIA.values() if c.disk)


class TestThresholdParameterErrors:
    """A bad criterion, order or (tau, A, B) is a ParameterError even where no
    threshold would exist (1 - alpha*lambda <= 0)."""

    NONE = ClassParams(0.75, 4.0 / 3.0)

    @pytest.mark.parametrize("which, l", [("M", 3.5), ("bogus", 0), ("rtau", 0), ("N", -1),
                                          ("N", 63)])
    def test_parameter_error_first(self, which, l):
        with pytest.raises(ParameterError):
            find_threshold(which, l, self.NONE)

    def test_no_threshold_for_valid_parameters(self):
        with pytest.raises(NoThreshold):
            find_threshold("rtau", 3.0, self.NONE, RTauParams(1.0, 1.0, -1.0))


def child(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "touchardstar", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv", [
    ["moment", "--l", "inf", "--m", "1", "--series"],
    ["moment", "--l", "nan", "--m", "1", "--series"],
    ["moment", "--l", "inf", "--m", "1"],
    ["threshold", "--which", "M", "--l", "3.5", "--lambda", "0.75", "--alpha", "4/3"],
], ids=["inf-series", "nan-series", "inf-closed", "threshold-non-integer"])
def test_cli_exits_two_without_traceback(argv):
    proc = child(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
