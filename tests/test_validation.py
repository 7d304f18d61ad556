"""One validation rule across the library, the sweep and the CLI.

A real parameter is any ``numbers.Real`` but bool (numpy scalars included)
that is finite; an integer parameter is any ``numbers.Integral`` but bool.
Strings are not numbers, except tau, which parses as a complex number.
Whatever the library rejects, a sweep row reports as ``invalid_params``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from touchardstar import (
    ClassParams,
    DiskGrid,
    InvalidOrder,
    NoThreshold,
    NumericFailure,
    ParameterError,
    RTauParams,
    TouchardParams,
    TruncatedSeries,
    apply_operator_L,
    criterion_value,
    evaluate,
    evaluate_rings,
    find_threshold,
    poisson_moment_closed,
    poisson_moment_series,
    rtau_coeff_bound,
    series_from_csv,
    stirling2,
    sweep,
    tail_moment,
    touchard_series,
    verify_M,
    verify_N,
    verify_rtau,
)
from touchardstar import disk, explore
from touchardstar.cli import main
from touchardstar.criteria import CRITERIA
from touchardstar.moments import SERIES_TERM_CAP

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


@pytest.mark.parametrize("argv, code", [
    (["moment", "--l", "inf", "--m", "1", "--series"], 2),
    (["moment", "--l", "nan", "--m", "1", "--series"], 2),
    (["moment", "--l", "inf", "--m", "1"], 2),
    (["threshold", "--which", "M", "--l", "3.5", "--lambda", "0.75", "--alpha", "4/3"], 2),
    (["coeffs", "--l", "3", "--m", "1", "--order", "100000000000"], 2),
    (["check-class", "--class", "Mstar", "--lambda", "0", "--alpha", "1.2",
      "--touchard", "3", "1", "--order", "100000000000"], 2),
    (["verify-disk", "--which", "M", "--lambda", "0", "--alpha", "1.2",
      "--touchard", "3", "1", "--order", "100000000000"], 2),
    # f' = 1 + 2e308 z: the derivative coefficient overflows a float
    (["verify-disk", "--which", "M", "--lambda", "0.5", "--alpha", "1.2",
      "--series", str(Path(__file__).parent / "data" / "overflow_series.csv")], 3),
], ids=["inf-series", "nan-series", "inf-closed", "threshold-non-integer", "coeffs-order",
        "check-class-order", "verify-disk-order", "verify-disk-overflow"])
def test_cli_exits_without_traceback(argv, code):
    proc = child(*argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith({2: "error: ", 3: "numeric failure: "}[code])
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


F = TruncatedSeries([1.0, 0.5])
P = ClassParams(0.1, 1.2)

#: Every numeric argument of the public API, as a call taking that argument.
NUMERIC_ARGUMENTS = {
    "TouchardParams.l": lambda v: TouchardParams(v, 0.5),
    "TouchardParams.m": lambda v: TouchardParams(2, v),
    "ClassParams.lam": lambda v: ClassParams(v, 1.2),
    "ClassParams.alpha": lambda v: ClassParams(0.1, v),
    "RTauParams.A": lambda v: RTauParams(1.0, v, -1.0),
    "RTauParams.B": lambda v: RTauParams(1.0, 0.5, v),
    "DiskGrid.radii": lambda v: DiskGrid((v,), 4),
    "DiskGrid.angles_per_ring": lambda v: DiskGrid((0.5,), v),
    "DiskGrid.uniform.r_max": lambda v: DiskGrid.uniform(v),
    "DiskGrid.uniform.rings": lambda v: DiskGrid.uniform(0.5, v),
    "DiskGrid.uniform.angles": lambda v: DiskGrid.uniform(0.5, 4, v),
    "poisson_moment_closed.l": lambda v: poisson_moment_closed(v, 0.5),
    "poisson_moment_closed.m": lambda v: poisson_moment_closed(2, v),
    "poisson_moment_series.l": lambda v: poisson_moment_series(v, 0.5),
    "poisson_moment_series.m": lambda v: poisson_moment_series(2, v),
    "poisson_moment_series.tol": lambda v: poisson_moment_series(2, 0.5, v),
    "poisson_moment_series.term_cap": lambda v: poisson_moment_series(2, 0.5, term_cap=v),
    "tail_moment.l": lambda v: tail_moment(v, 0.5),
    "tail_moment.m": lambda v: tail_moment(2, v),
    "criterion_value.l": lambda v: criterion_value("M", v, 0.5, P),
    "criterion_value.m": lambda v: criterion_value("M", 2, v, P),
    "find_threshold.l": lambda v: find_threshold("M", v, P),
    "find_threshold.tol_m": lambda v: find_threshold("M", 1, P, None, v),
    "touchard_series.order": lambda v: touchard_series(TouchardParams(1, 0.5), v),
    "stirling2.l": lambda v: stirling2(v, 1),
    "stirling2.k": lambda v: stirling2(3, v),
    "rtau_coeff_bound.n": lambda v: rtau_coeff_bound(v, RTauParams(1.0, 1.0, -1.0)),
    "TruncatedSeries.a.n": lambda v: F.a(v),
    "evaluate.z": lambda v: evaluate(F, v),
    "evaluate.order": lambda v: evaluate(F, 0.1, v),
    "evaluate_rings.radii": lambda v: evaluate_rings(F, (v,), 4),
    "evaluate_rings.orders": lambda v: evaluate_rings(F, (0.5,), 4, (v,)),
    "evaluate_rings.angles": lambda v: evaluate_rings(F, (0.5,), v),
}
BAD_NUMBERS = {"str": "0.5", "bool": True, "nan": math.nan, "inf": math.inf,
               "int-past-float": 10**400}


@pytest.mark.parametrize("value", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
@pytest.mark.parametrize("argument", list(NUMERIC_ARGUMENTS))
def test_one_rule_for_every_numeric_argument(argument, value):
    with pytest.raises(ParameterError):
        NUMERIC_ARGUMENTS[argument](value)


#: Arguments of the wrong shape or element kind, as calls.
MALFORMED_ARGUMENTS = {
    "TruncatedSeries-text": lambda: TruncatedSeries("abc"),
    "TruncatedSeries-text-entry": lambda: TruncatedSeries([1, "x"]),
    "TruncatedSeries-numeric-text-entry": lambda: TruncatedSeries([1, "0.5"]),
    "TruncatedSeries-complex-entry": lambda: TruncatedSeries([1, 1j]),
    "TruncatedSeries-int-past-float": lambda: TruncatedSeries([1, 10**400]),
    "TruncatedSeries-bool-entry": lambda: TruncatedSeries([1.0, True]),
    "evaluate-bool-point": lambda: evaluate(F, [0.1, False]),
    "evaluate_rings-scalar-orders": lambda: evaluate_rings(F, (0.5,), 4, orders=1),
    "DiskGrid-scalar-radii": lambda: DiskGrid(0.5, 4),
}


@pytest.mark.parametrize("call", list(MALFORMED_ARGUMENTS.values()), ids=list(MALFORMED_ARGUMENTS))
def test_malformed_arguments(call):
    with pytest.raises(ParameterError):
        call()


class TestTruncationOrderCap:
    """A kernel series holds at most SERIES_TERM_CAP coefficients; a larger
    order is refused before anything is allocated."""

    TP = TouchardParams(3, 1.0)

    def test_cap_is_accepted(self):
        assert touchard_series(self.TP, SERIES_TERM_CAP).order == SERIES_TERM_CAP

    @pytest.mark.parametrize("order", [SERIES_TERM_CAP + 1, 10**11])
    def test_past_the_cap(self, order, capsys):
        with pytest.raises(InvalidOrder, match=f"at most {SERIES_TERM_CAP}, got {order}$"):
            touchard_series(self.TP, order)
        with pytest.raises(InvalidOrder):
            apply_operator_L(self.TP, order)
        assert main(["coeffs", "--l", "3", "--m", "1", "--order", str(order)]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", [True, math.nan, complex(math.inf, 1), 10**400, 0, "0j", None,
                                   b"1", "bogus", "1 + 2"],
                         ids=["bool", "nan", "inf", "int-past-float", "zero", "zero-str", "none",
                              "bytes", "bogus", "bogus-spaces"])
def test_tau_rule(value):
    # tau is the one parameter that also takes a string
    with pytest.raises(ParameterError):
        RTauParams(value, 1.0, -1.0)


def test_numpy_radii_and_tolerances_accepted():
    grid = DiskGrid((np.float32(0.5),), np.int64(4))
    assert grid.radii == (0.5,) and DiskGrid.uniform(np.float64(0.5), 2).radii == (0.25, 0.5)
    mv = poisson_moment_series(2, 0.5, np.float64(1e-12), term_cap=np.int64(100))
    assert mv == poisson_moment_series(2, 0.5)


class TestFlagsAndOrders:
    """A bool or a float is not a derivative order, and keep_samples takes a bool."""

    @pytest.mark.parametrize("order", [1.0, np.float64(1.0), 3, -1])
    def test_evaluate(self, order):
        with pytest.raises(ParameterError):
            evaluate(F, 0.1, order)
        with pytest.raises(ParameterError):
            evaluate_rings(F, (0.5,), 4, (order,))

    def test_numpy_integer_order(self):
        assert evaluate(F, 0.1, np.int64(1)) == evaluate(F, 0.1, 1)

    @pytest.mark.parametrize("flag", ["no", 1, np.float64(0.0), None])
    @pytest.mark.parametrize("verify, params", [
        (verify_M, P), (verify_N, P), (verify_rtau, RTauParams(1.0, 0.5, -0.5))])
    def test_keep_samples_flag(self, verify, params, flag):
        with pytest.raises(ParameterError, match="keep_samples"):
            verify(F, params, DiskGrid((0.5,), 4), keep_samples=flag)


class TestPointsAndRadii:
    """Points and ring radii: finite numbers of modulus < 1, negative radii allowed."""

    @pytest.mark.parametrize("points", [np.array([0.5, complex(math.nan, 0)]), ["0.5"],
                                        [0.1, None]])
    def test_evaluate_rejects(self, points):
        with pytest.raises(ParameterError):
            evaluate(F, points)

    @pytest.mark.parametrize("radii", [(0.5, math.nan), ("0.5",), (0.5, "0.5"), (0.5j,),
                                       (None,), (0.5, True)])
    def test_evaluate_rings_rejects(self, radii):
        with pytest.raises(ParameterError):
            evaluate_rings(F, radii, 4)

    def test_negative_and_integer_radii_accepted(self):
        got = evaluate_rings(F, (-0.5, 0), 2)
        assert got[0, :, 0].tolist() == [evaluate(F, -0.5), evaluate(F, 0)]


class TestTau:
    """tau is parsed by one function: the library, the sweep and the CLI agree."""

    def test_spaces_in_library(self):
        assert RTauParams("1 + 2j", 1, -1) == RTauParams(1 + 2j, 1, -1)
        assert RTauParams(" ( 1 - 2j ) ", 1, -1).tau == 1 - 2j

    def test_sweep_row_equals_library(self):
        rows = sweep("rtau", {**GRID, "tau": ["1 + 2j"], "A": [0.5], "B": [-0.5]}).rows
        report = criterion_value("rtau", 2, 0.5, ClassParams(0.25, 1.2),
                                 RTauParams("1 + 2j", 0.5, -0.5))
        assert rows[0]["tau"] == "(1+2j)" and rows[0]["status"] == "ok"
        assert (rows[0]["criterion_value"], rows[0]["member"]) == \
            (report.criterion_value, report.member)

    def test_cli_spaces(self, capsys):
        argv = ["check-theorem", "--which", "rtau", "--l", "0", "--m", "0.5", "--lambda", "0",
                "--alpha", "1.2", "--A", "0.5", "--B", "-0.5", "--tau"]
        assert main(argv + ["1+1j"]) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["1 + 1j"]) == 0
        assert capsys.readouterr().out == plain

    def test_cli_bogus_tau_exits_two(self):
        proc = child("check-theorem", "--which", "rtau", "--l", "0", "--m", "0.5", "--lambda",
                     "0", "--alpha", "1.2", "--A", "0.5", "--B", "-0.5", "--tau", "bogus")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "--tau" in proc.stderr and "Traceback" not in proc.stderr


class TestUnreachedBranches:
    """Branches no other test reaches."""

    def test_all_degenerate_scan(self):
        # f' = 1 - 2z vanishes at the only sample, z = 0.5, and lambda = 0
        report = verify_N(TruncatedSeries([1.0, -1.0]), ClassParams(0, 1.2), DiskGrid((0.5,), 1))
        assert (report.max_real_part, report.arg_of_max, report.violations) == (None, None, 0)
        assert (report.samples, report.degenerate_samples) == (1, 1)

    def test_all_degenerate_scan_cli(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("n,a_n\n1,1.0\n2,-1.0\n", encoding="utf-8")
        code = main(["verify-disk", "--which", "N", "--series", str(path), "--lambda", "0",
                     "--alpha", "1.2", "--rmax", "0.5", "--rings", "1", "--angles", "1",
                     "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == ",,,0,1,1"

    def test_threshold_without_sign_change(self, monkeypatch):
        def below(which, l, m, lam, alpha, gain):
            return 0.0

        # the bracket proves a sign change, so its absence is a numeric failure
        monkeypatch.setattr(explore, "closed_form", below)
        with pytest.raises(NumericFailure, match="no sign change") as info:
            explore.find_threshold("M", 0, ClassParams(0.0, 1.2))
        assert type(info.value) is NumericFailure

    def test_cli_malformed_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-theorem", "--which", "M", "--l", "0", "--m", "0.5", "--lambda", "0",
                  "--alpha", "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "alpha must be a decimal" in captured.err

    def test_series_csv_row_with_three_fields(self):
        with pytest.raises(ParameterError, match="malformed series CSV row"):
            series_from_csv("n,a_n\n1,1.0,2\n")
