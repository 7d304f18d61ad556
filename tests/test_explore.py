"""Threshold finding and sweep tables."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import touchardstar.explore as explore
from touchardstar import (
    ClassParams,
    MembershipReport,
    NoThreshold,
    NumericFailure,
    ParameterError,
    RTauParams,
    TouchardParams,
    brute_force_M,
    criterion_value,
    find_threshold,
    sweep,
    theorem_M_lhs,
)

ACCEPT_COMBOS = [
    (l, lam, alpha)
    for l in (0, 1, 2)
    for lam in (0.0, 0.5)
    for alpha in (1.2, 4.0 / 3.0)
]


class TestCriterionValue:
    def test_dispatch(self):
        p = ClassParams(0.0, 1.2)
        assert criterion_value("M", 0, 0.5, p).criterion_value == pytest.approx(
            theorem_M_lhs(TouchardParams(0, 0.5), p).criterion_value
        )
        assert criterion_value("integral", 0, 0.5, p).member == criterion_value(
            "M", 0, 0.5, p
        ).member

    def test_rtau_needs_parameters(self):
        with pytest.raises(ParameterError):
            criterion_value("rtau", 0, 0.5, ClassParams(0.0, 1.2))

    def test_unknown_criterion(self):
        with pytest.raises(ParameterError):
            criterion_value("X", 0, 0.5, ClassParams(0.0, 1.2))


class TestFindThreshold:
    def test_reference_case(self):
        # l = 0, lambda = 0, alpha = 4/3: the threshold solves
        # m - (1/3)(1 - e^-m) = 1/3
        p = ClassParams(0.0, 4.0 / 3.0)
        result = find_threshold("M", 0, p)
        assert abs(result.residual) < 1e-9
        root_eq = result.m_star - (1.0 / 3.0) * (1 - math.exp(-result.m_star))
        assert root_eq == pytest.approx(1.0 / 3.0, abs=1e-9)
        # brute-force coefficient sums straddle the bound around m*
        below = brute_force_M(TouchardParams(0, result.m_star - 1e-6), p)
        above = brute_force_M(TouchardParams(0, result.m_star + 1e-6), p)
        assert below.criterion_value <= p.bound < above.criterion_value

    @pytest.mark.parametrize("l,lam,alpha", ACCEPT_COMBOS)
    def test_ladder_start_below_bound(self, l, lam, alpha):
        p = ClassParams(lam, alpha)
        report = criterion_value("M", l, 2.0**-10, p)
        assert report.criterion_value < p.bound

    def test_bracket_invariant_and_iteration_bound(self):
        p = ClassParams(0.5, 1.2)
        result = find_threshold("N", 1, p, tol_m=1e-10)
        lo, hi = result.bracket
        assert hi - lo <= 1e-10
        g_lo = criterion_value("N", 1, lo, p).criterion_value - p.bound
        g_hi = criterion_value("N", 1, hi, p).criterion_value - p.bound
        assert g_lo <= 0.0 < g_hi
        width0 = 2.0 * lo - lo  # ladder brackets are (2^k, 2^(k+1))
        assert result.iterations <= math.ceil(math.log2(width0 / 1e-10)) + 2

    def test_no_threshold_when_leading_term_vanishes(self):
        # alpha * lambda >= 1 makes every term of the criterion nonpositive
        with pytest.raises(NoThreshold):
            find_threshold("M", 0, ClassParams(0.75, 4.0 / 3.0))

    def test_rtau_threshold_scales_inverse_to_gain(self):
        p = ClassParams(0.0, 1.2)
        r_small = RTauParams(1.0, 0.5, -0.5)  # gain 1
        r_big = RTauParams(1.0, 1.0, -1.0)  # gain 2
        t_small = find_threshold("rtau", 0, p, r_small)
        t_big = find_threshold("rtau", 0, p, r_big)
        assert t_big.m_star < t_small.m_star
        assert t_small.criterion == "rtau"

    def test_integral_threshold_equals_starlike_threshold(self):
        p = ClassParams(0.0, 4.0 / 3.0)
        a = find_threshold("M", 1, p)
        b = find_threshold("integral", 1, p)
        assert a.m_star == b.m_star

    def test_non_monotone_criterion_reports_all_brackets(self, monkeypatch):
        # synthetic criterion with three ladder crossings at 0.3, 3 and 30
        def fake(which, l, m, p, rtau=None):
            value = p.bound + (m - 0.3) * (m - 3.0) * (m - 30.0) / 1000.0
            return MembershipReport(value, p.bound, value <= p.bound, "closed_form", "")

        monkeypatch.setattr(explore, "criterion_value", fake)
        result = explore.find_threshold("M", 0, ClassParams(0.0, 1.2))
        assert len(result.all_brackets) == 3
        assert result.warnings and "non-monotone" in result.warnings[0]
        assert result.m_star == pytest.approx(0.3, abs=1e-9)

    def test_tolerance_validation(self):
        with pytest.raises(ParameterError):
            find_threshold("M", 0, ClassParams(0.0, 1.2), tol_m=0.0)

    def test_result_dict(self):
        d = find_threshold("M", 0, ClassParams(0.0, 1.2)).to_dict()
        assert set(d) == {
            "m_star",
            "bracket",
            "residual",
            "iterations",
            "criterion",
            "warnings",
            "all_brackets",
        }
        assert d["criterion"] == "M_theorem"


class TestSweep:
    def test_single_point_matches_report(self):
        p = ClassParams(0.25, 1.2)
        table = sweep("N", {"l": [1], "m": [0.8], "lambda": [0.25], "alpha": [1.2]})
        assert len(table.rows) == 1
        row = table.rows[0]
        report = criterion_value("N", 1, 0.8, p)
        assert row["criterion_value"] == report.criterion_value
        assert row["bound"] == report.bound
        assert row["member"] == report.member
        assert row["status"] == "ok"

    def test_member_flips_once_across_m(self):
        p = ClassParams(0.0, 4.0 / 3.0)
        t = find_threshold("M", 0, p)
        assert not t.warnings
        ms = [0.05 * k for k in range(1, 20)]
        table = sweep("M", {"l": [0], "m": ms, "lambda": [0.0], "alpha": [4.0 / 3.0]})
        members = [row["member"] for row in table.rows]
        flips = sum(1 for a, b in zip(members, members[1:]) if a != b)
        assert flips == 1
        last_member_m = ms[max(i for i, ok in enumerate(members) if ok)]
        assert last_member_m < t.m_star < last_member_m + 0.05

    def test_row_order_is_lexicographic(self):
        table = sweep(
            "M", {"l": [0, 1], "m": [0.5, 1.0], "lambda": [0.0], "alpha": [1.2]}
        )
        keys = [(row["l"], row["m"]) for row in table.rows]
        assert keys == [(0, 0.5), (0, 1.0), (1, 0.5), (1, 1.0)]

    def test_empty_grid_gives_header_only(self):
        table = sweep("M", {"l": [], "m": [1.0], "lambda": [0.0], "alpha": [1.2]})
        assert table.rows == ()
        assert table.to_csv() == ",".join(table.columns) + "\n"

    def test_error_rows_do_not_abort(self):
        table = sweep(
            "M",
            {"l": [0, 0.5], "m": [1.0, -1.0], "lambda": [0.0], "alpha": [1.2]},
        )
        status = {(row["l"], row["m"]): row["status"] for row in table.rows}
        assert status[(0, 1.0)] == "ok"
        assert status[(0, -1.0)] == "invalid_params"
        assert status[(0.5, 1.0)] == "invalid_params"
        bad = next(r for r in table.rows if r["status"] != "ok")
        assert bad["criterion_value"] is None

    @pytest.mark.parametrize("axis", ["l", "m", "lambda", "alpha", "tau", "A", "B"])
    def test_int_too_large_for_a_float_becomes_status_row(self, axis):
        grid = {"l": [1], "m": [0.5], "lambda": [0.0], "alpha": [1.2],
                "tau": [1.0], "A": [1.0], "B": [-1.0]}
        grid[axis] = [10**400] + grid[axis]
        which = "rtau" if axis in ("tau", "A", "B") else "M"
        if which == "M":
            for key in ("tau", "A", "B"):
                del grid[key]
        statuses = [row["status"] for row in sweep(which, grid).rows]
        assert statuses == ["invalid_params", "ok"]

    def test_malformed_tau_becomes_status_row(self):
        table = sweep(
            "rtau",
            {
                "l": [0],
                "m": [0.5],
                "lambda": [0.0],
                "alpha": [1.2],
                "tau": ["not-a-number", 1.0],
                "A": [1.0],
                "B": [-1.0],
            },
        )
        statuses = [row["status"] for row in table.rows]
        assert statuses == ["invalid_params", "ok"]
        table.to_csv()  # malformed cell must still render

    def test_rtau_grid(self):
        table = sweep(
            "rtau",
            {
                "l": [0],
                "m": [0.5],
                "lambda": [0.0],
                "alpha": [1.2],
                "tau": [1.0, "1+1j"],
                "A": [1.0],
                "B": [-1.0],
            },
        )
        assert len(table.rows) == 2
        assert table.columns[:7] == ("l", "m", "lambda", "alpha", "tau", "A", "B")
        assert table.rows[0]["tau"] == "(1+0j)"
        assert all(row["status"] == "ok" for row in table.rows)

    def test_grid_key_validation(self):
        with pytest.raises(ParameterError):
            sweep("M", {"l": [0], "m": [1.0], "lambda": [0.0]})  # alpha missing
        with pytest.raises(ParameterError):
            sweep("M", {"l": [0], "m": [1.0], "lambda": [0.0], "alpha": [1.2], "tau": [1]})
        with pytest.raises(ParameterError):
            sweep("bogus", {"l": [0], "m": [1.0], "lambda": [0.0], "alpha": [1.2]})

    def test_bit_identical_across_runs(self):
        grid = {"l": [0, 1], "m": [0.5, 1.0, 2.0], "lambda": [0.0, 0.5], "alpha": [1.2]}
        assert sweep("N", grid).to_csv() == sweep("N", grid).to_csv()
        assert sweep("N", grid).to_dict() == sweep("N", grid).to_dict()


def reference_rows(which, grid):
    """Sweep rows computed one point at a time through criterion_value."""
    names = [n for n in ("l", "m", "lambda", "alpha", "tau", "A", "B") if n in grid]
    rows = []
    for values in itertools.product(*(grid[n] for n in names)):
        point = dict(zip(names, values))
        row = dict(point)
        try:
            rt = None
            if which == "rtau":
                row["tau"] = str(point["tau"])
                tau = complex(str(point["tau"]).replace(" ", ""))
                row["tau"] = repr(tau).replace(" ", "")
                rt = RTauParams(tau, float(point["A"]), float(point["B"]))
            p = ClassParams(float(point["lambda"]), float(point["alpha"]))
            report = criterion_value(which, point["l"], point["m"], p, rt)
            row.update(criterion_value=report.criterion_value, bound=report.bound,
                       member=report.member, status="ok")
        except (ParameterError, ValueError, TypeError):
            row.update(criterion_value=None, bound=None, member=None, status="invalid_params")
        except NumericFailure:
            row.update(criterion_value=None, bound=None, member=None, status="numeric_failure")
        rows.append(row)
    return rows


def axis(values, bad):
    """One to three axis values, about one in three of them from ``bad``."""
    value = st.tuples(st.integers(0, 2), values, st.sampled_from(bad)).map(
        lambda t: t[2] if t[0] == 0 else t[1])
    return st.lists(value, min_size=1, max_size=3)


GRIDS = st.fixed_dictionaries({
    # orders up to 63 and m past 2^10 reach overflow, numeric_failure rows
    "l": axis(st.one_of(st.integers(0, 12), st.sampled_from([30, 60, 62, 63])),
              [64, 65, -1, 1.5, 2.0, np.int64(3), True, "2"]),
    "m": axis(st.one_of(st.floats(2.0**-10, 2.0**10), st.sampled_from([1e7, 2.0**32])),
              [0.0, -1.0, math.nan, math.inf, "1", 2]),
    "lambda": axis(st.floats(0.0, 0.99), [0.75, -0.1, 1.0, math.nan, "0.5", "x"]),
    "alpha": axis(st.floats(1.0, 4.0 / 3.0), [4.0 / 3.0, 0.9, 1.5, math.nan]),
})
RTAU_AXES = st.fixed_dictionaries({
    "tau": axis(st.complex_numbers(max_magnitude=3.0),
                ["1+1j", "1 + 1j", "not-a-number", 0, "0j", 1e308, "(1+0j)"]),
    "A": axis(st.floats(-1.2, 1.2), [1.0, "1"]),
    "B": axis(st.floats(-1.2, 1.2), [-1.0, math.nan]),
})


class TestSweepMatchesScalarPath:
    """Every sweep row is what criterion_value returns or raises at its point."""

    @given(which=st.sampled_from(["M", "N", "integral"]), grid=GRIDS)
    def test_random_grids(self, which, grid):
        table = sweep(which, grid)
        assert repr(table.rows) == repr(tuple(reference_rows(which, grid)))

    @given(grid=GRIDS, rtau=RTAU_AXES)
    def test_random_rtau_grids(self, grid, rtau):
        grid = {**grid, **rtau}
        table = sweep("rtau", grid)
        assert repr(table.rows) == repr(tuple(reference_rows("rtau", grid)))

    @pytest.mark.parametrize("which", ["M", "N", "integral", "rtau"])
    def test_overflow_rows_are_numeric_failures(self, which):
        grid = {"l": [30, 60], "m": [2.0**k for k in range(10, 35)],
                "lambda": [0.25], "alpha": [1.2]}
        if which == "rtau":
            grid.update(tau=[1.0], A=[1.0], B=[-1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sweep(which, grid)
        ok = [r["criterion_value"] for r in table.rows if r["status"] == "ok"]
        assert all(math.isfinite(v) for v in ok)
        assert {r["status"] for r in table.rows} == {"ok", "numeric_failure"}
        assert repr(table.rows) == repr(tuple(reference_rows(which, grid)))

    @pytest.mark.parametrize("which", ["M", "N", "integral", "rtau"])
    def test_numpy_integer_orders(self, which):
        rest = {"m": [0.5, 2.0], "lambda": [0.25], "alpha": [1.2]}
        if which == "rtau":
            rest.update(tau=[1.0], A=[1.0], B=[-1.0])
        arange = sweep(which, {"l": np.arange(0, 4), **rest})
        plain = sweep(which, {"l": [0, 1, 2, 3], **rest})
        assert all(r["status"] == "ok" for r in arange.rows)
        assert [r["criterion_value"] for r in arange.rows] == \
            [r["criterion_value"] for r in plain.rows]


class TestMalformedSweepSpec:
    GRID = {"l": [0, 3], "m": [1.0], "lambda": [0.1], "alpha": [1.2]}

    @pytest.mark.parametrize("which", [["M"], None, 3, b"M"])
    def test_criterion_that_is_not_a_string(self, which):
        with pytest.raises(ParameterError, match="unknown criterion"):
            sweep(which, self.GRID)

    @pytest.mark.parametrize("values", [3, 1.5, None, "03", b"03", "l"])
    @pytest.mark.parametrize("name", ["l", "m", "lambda", "alpha"])
    def test_axis_that_is_not_a_list(self, name, values):
        with pytest.raises(ParameterError, match=f"sweep axis '{name}'"):
            sweep("M", {**self.GRID, name: values})

    def test_rtau_axis_that_is_not_a_list(self):
        grid = {**self.GRID, "tau": "1+1j", "A": [1.0], "B": [-1.0]}
        with pytest.raises(ParameterError, match="sweep axis 'tau'"):
            sweep("rtau", grid)

    @pytest.mark.parametrize("l", [(0, 3), range(0, 4, 3), np.array([0, 3]), [0, 3]])
    def test_sequences_accepted(self, l):
        rows = sweep("M", {**self.GRID, "l": l}).rows
        assert [r["l"] for r in rows] == [0, 3]
        assert [r["status"] for r in rows] == ["ok", "ok"]
