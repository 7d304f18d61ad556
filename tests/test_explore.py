"""Threshold finding and sweep tables."""

import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import touchardstar.explore as explore
from touchardstar import (
    ClassParams,
    NoThreshold,
    NumericFailure,
    OrderTooLarge,
    ParameterError,
    RTauParams,
    TouchardParams,
    brute_force_M,
    criterion_value,
    find_threshold,
    sweep,
    theorem_M_lhs,
)
from touchardstar.criteria import _check_criterion, closed_form
from touchardstar.moments import stirling2

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

    @pytest.mark.parametrize("which", ["M", "N", "rtau", "integral"])
    @pytest.mark.parametrize("l,lam,alpha", ACCEPT_COMBOS)
    def test_bracket_ends_straddle_bound(self, which, l, lam, alpha):
        p = ClassParams(lam, alpha)
        rtau = RTauParams(1.0, 0.5, -0.5) if which == "rtau" else None
        lo, hi = explore._bracket(which, l, p.bound / (1.0 - alpha * lam),
                                  rtau.gain if rtau else 1.0)
        assert 0 < lo < hi
        assert criterion_value(which, l, lo, p, rtau).criterion_value <= p.bound
        assert criterion_value(which, l, hi, p, rtau).criterion_value > p.bound
        assert find_threshold(which, l, p, rtau).all_brackets == ((lo, hi),)

    def test_bracket_invariant_and_iteration_bound(self):
        p = ClassParams(0.5, 1.2)
        result = find_threshold("N", 1, p, tol_m=1e-10)
        lo, hi = result.bracket
        assert hi - lo <= 1e-10
        g_lo = criterion_value("N", 1, lo, p).criterion_value - p.bound
        g_hi = criterion_value("N", 1, hi, p).criterion_value - p.bound
        assert g_lo <= 0.0 < g_hi
        (start, end), = result.all_brackets
        width0 = end - start
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
            "all_brackets",
        }
        assert d["criterion"] == "M_theorem"


def counting(monkeypatch, cap=None):
    """Route explore.closed_form through a wrapper that counts its calls
    and raises once there are more than ``cap``."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        if cap is not None and len(calls) > cap:
            raise RuntimeError(f"more than {cap} criterion evaluations")
        return closed_form(*args)

    monkeypatch.setattr(explore, "closed_form", wrapper)
    return calls


def exact_g(which, l, p, gain):
    """criterion - bound at m in mpmath, from the exact Stirling rows, with
    lambda, alpha and gain taken as the exact binary values they hold."""
    lam, alpha, gain = mpmath.mpf(p.lam), mpmath.mpf(p.alpha), mpmath.mpf(gain)

    def tail(k, m):  # the moment sum over n >= 1
        return -mpmath.expm1(-m) if k == 0 else \
            mpmath.fsum(stirling2(k, j) * m**j for j in range(1, k + 1))

    def g(m):
        if which == "N":
            value = ((1 - alpha * lam) * tail(l + 2, m) + (2 - alpha * lam - alpha) * tail(l + 1, m)
                     + (1 - alpha) * tail(l, m))
        else:
            value = gain * ((1 - alpha * lam) * tail(l + 1, m) + (1 - alpha) * tail(l, m))
        return value - (alpha - 1)

    return g


#: The fixed grid of the refinement count test: 4 criteria x 5 orders x 4 lambdas x 3 alphas.
SOLVE_GRID = list(itertools.product(("M", "N", "rtau", "integral"), (0, 3, 6, 9, 12),
                                    (0.0, 0.25, 0.5, 0.7), (1.05, 1.2, 4.0 / 3.0)))
#: Evaluations a solve makes before refining: g at the two bracket ends.
BRACKET_ENDS = 2


class TestThresholdRefinement:
    """ITP refinement of the certified bracket, and roots far from m = 1."""

    @given(
        which=st.sampled_from(["M", "N", "rtau", "integral"]),
        l=st.integers(0, 12),
        lam=st.floats(0.0, 0.99),
        alpha=st.floats(1.001, 4.0 / 3.0),
        tau=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
        ab=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
            lambda ab: abs(ab[0] - ab[1]) >= 0.01),
        tol_m=st.sampled_from([1e-12, 1e-10, 1e-7, 1e-4]),
    )
    def test_bracket_and_root_against_mpmath(self, which, l, lam, alpha, tau, ab, tol_m):
        # 1 - alpha*lambda and alpha - 1 at least 1e-3: the rounding of the
        # closed form's coefficients (relative u / 1e-3) then moves the float
        # criterion's root by well under 1e-12 m* from the exact one
        assume(1.0 - alpha * lam >= 1e-3)
        p = ClassParams(lam, alpha)
        rtau = RTauParams(tau, max(ab), min(ab)) if which == "rtau" else None
        result = find_threshold(which, l, p, rtau, tol_m)
        lo, hi = result.bracket
        assert criterion_value(which, l, lo, p, rtau).criterion_value <= p.bound
        assert criterion_value(which, l, hi, p, rtau).criterion_value > p.bound
        assert 0 < hi - lo and (hi - lo <= tol_m or math.nextafter(lo, hi) == hi)
        assert lo <= result.m_star <= hi
        start, end = result.all_brackets[0]
        assert result.iterations <= max(0, math.ceil(math.log2((end - start) / tol_m))) + 2
        with mpmath.workdps(50):
            g = exact_g(which, l, p, rtau.gain if rtau else 1.0)
            root = mpmath.findroot(g, (mpmath.mpf(lo) * (1 - 1e-9), mpmath.mpf(hi) * (1 + 1e-9)),
                                   solver="anderson")
            assert abs(result.m_star - root) <= max(tol_m, hi - lo) + 1e-12 * result.m_star

    def test_mean_evaluations_on_fixed_grid(self, monkeypatch):
        calls = counting(monkeypatch)
        rtau = RTauParams(1.0, 0.5, -0.5)
        evaluations = []
        for which, l, lam, alpha in SOLVE_GRID:
            before = len(calls)
            result = explore.find_threshold(which, l, ClassParams(lam, alpha),
                                            rtau if which == "rtau" else None)
            # the bracket ends, the refinement and the residual, and nothing
            # else: the values at the bracket ends are not evaluated again
            assert len(calls) - before == BRACKET_ENDS + result.iterations + 1
            start, end = result.all_brackets[0]
            assert result.iterations <= math.ceil(math.log2((end - start) / 1e-10)) + 2
            evaluations.append(len(calls) - before)
        assert len(evaluations) == 240 and sum(evaluations) / len(evaluations) <= 17

    @pytest.mark.parametrize("tol_m", [1e-17, 5e-324])
    def test_tolerance_below_float_spacing_ends_at_adjacent_floats(self, monkeypatch, tol_m):
        calls = counting(monkeypatch, cap=200)
        p = ClassParams(0.3, 1.2)
        result = explore.find_threshold("M", 1, p, tol_m=tol_m)
        lo, hi = result.bracket
        assert math.nextafter(lo, hi) == hi and result.m_star in (lo, hi)
        assert criterion_value("M", 1, lo, p).criterion_value <= p.bound
        assert criterion_value("M", 1, hi, p).criterion_value > p.bound
        assert len(calls) == BRACKET_ENDS + result.iterations + 1

    @pytest.mark.parametrize("lam, alpha, l, root, allowance, ends", [
        # M at l = 1 is rho = T_2 / (T_1 + 1) = m, so m* = c in [c/2, c]
        (0.0, 1.0005, 1, 5e-4, 0.0, (0.5, 1.0)),
        # 1 - alpha*lambda = 1/7500 carries a rounding of relative 4e-13,
        # which moves the root of the float criterion by about 2e-9; at
        # l = 0, rho is about m/2 here, so m* is just below 2c
        (0.7499, 4.0 / 3.0, 0, 5000.0, 1e-12 * 5000.0, (1.0, 2.0)),
    ], ids=["below-ladder", "above-ladder"])
    def test_root_off_the_ladder(self, lam, alpha, l, root, allowance, ends):
        p = ClassParams(lam, alpha)
        result = find_threshold("M", l, p)
        lo, hi = result.bracket
        assert abs(result.m_star - root) <= 1e-10 + allowance
        assert criterion_value("M", l, lo, p).criterion_value <= p.bound
        assert criterion_value("M", l, hi, p).criterion_value > p.bound
        c = p.bound / (1.0 - alpha * lam)
        assert result.all_brackets == ((ends[0] * c * (1.0 - 2.0 ** -20),
                                        ends[1] * c * (1.0 + 2.0 ** -20)),)

    @pytest.mark.parametrize("which, l", [("M", 0), ("M", 63), ("N", 62), ("rtau", 63),
                                          ("integral", 1)])
    def test_alpha_next_to_one_gives_a_positive_bracket(self, which, l):
        p = ClassParams(0.5, math.nextafter(1.0, 2.0))
        rtau = RTauParams(1.0, 0.5, -0.5) if which == "rtau" else None
        result = find_threshold(which, l, p, rtau)
        (lo, hi), = result.all_brackets
        assert 0 < lo <= result.m_star <= hi
        assert criterion_value(which, l, lo, p, rtau).criterion_value <= p.bound
        assert criterion_value(which, l, hi, p, rtau).criterion_value > p.bound

    @pytest.mark.parametrize("A, B, gain", [(0.5, -0.5, 5e-324), (0.25, 0.0, 0.0)],
                             ids=["gain-5e-324", "gain-0"])
    def test_bracket_past_the_float_range_is_no_threshold(self, A, B, gain):
        # rho >= m gain / 2 gives hi = 2c / gain, which overflows; (A-B)|tau|
        # = 0.25 * 5e-324 rounds to 0 in the second case
        rtau = RTauParams(5e-324, A, B)
        assert rtau.gain == gain
        with pytest.raises(NoThreshold, match="ends past the largest float"):
            find_threshold("rtau", 0, ClassParams(0.0, 1.2), rtau)

    @pytest.mark.parametrize("l", [1, 30, 63])
    def test_small_gain_bracket_stays_evaluable(self, l):
        # 2c / gain = 4e19 overflows T_31 and T_64; rho >= gain m^(l+1) / 2
        # gives an upper end where the closed form is finite
        p, rtau = ClassParams(0.0, 1.2), RTauParams(1e-20, 0.5, -0.5)
        result = find_threshold("rtau", l, p, rtau)
        (start, end), = result.all_brackets
        assert start <= result.m_star <= end < 2.0 * 0.2 / rtau.gain
        lo, hi = result.bracket
        assert criterion_value("rtau", l, lo, p, rtau).criterion_value <= p.bound
        assert criterion_value("rtau", l, hi, p, rtau).criterion_value > p.bound


class TestBracketUniqueness:
    """For l >= 1, rho(m) = c has one positive root because P - cQ has one
    sign change in its coefficients: its constant term is -c, its leading
    term positive, and the ratios a_k/b_k of its middle coefficients
    a_k - c b_k rise strictly with k.  The order caps make the domain
    finite, so checking every l in exact integers is the proof."""

    @staticmethod
    def rising(a, b):
        return all(a[k] * b[k + 1] < a[k + 1] * b[k] for k in range(len(a) - 1))

    @staticmethod
    def S(n, k):
        return stirling2(n, k) if k <= n else 0

    @pytest.mark.parametrize("which", ["M", "integral", "rtau"])
    def test_starlike_ratios_rise(self, which):
        assert explore.CRITERIA[which].max_l == 63
        for l in range(1, 64):
            ks = range(1, l + 1)
            assert self.rising([self.S(l + 1, k) for k in ks], [self.S(l, k) for k in ks])

    def test_convex_ratios_rise(self):
        assert explore.CRITERIA["N"].max_l == 62
        for l in range(1, 63):
            ks = range(1, l + 2)
            assert self.rising([self.S(l + 2, k) + self.S(l + 1, k) for k in ks],
                               [self.S(l + 1, k) + self.S(l, k) for k in ks])


class TestThresholdValidatesOnce:
    """A solve checks its parameters once, then evaluates the closed form
    directly; errors are the ones criterion_value raises."""

    def test_one_check_per_solve(self, monkeypatch):
        checks = []

        def wrapper(*args):
            checks.append(args)
            return _check_criterion(*args)

        monkeypatch.setattr(explore, "_check_criterion", wrapper)
        explore.find_threshold("rtau", 3, ClassParams(0.25, 1.2), RTauParams(1.0, 0.5, -0.5))
        assert len(checks) == 1

    def test_overflow_at_the_bracket_ends(self):
        # 1 - alpha*lambda is about 1.3e-9, so c is about 2.6e8: at both
        # bracket ends the order-63 and order-64 moments overflow, inf - inf
        with pytest.raises(NumericFailure) as info:
            find_threshold("M", 63, ClassParams(0.749999999, 4.0 / 3.0))
        assert type(info.value) is NumericFailure
        assert str(info.value) == "the criterion value overflows a float"

    @pytest.mark.parametrize("which, l, error, message", [
        ("M", 3.5, ParameterError, "closed-form path takes integer moment orders only, "
                                   "got l=3.5 (use the series path for real orders)"),
        ("bogus", 0, ParameterError, "unknown criterion 'bogus'; expected one of M, N, rtau, "
                                     "integral"),
        ("rtau", 0, ParameterError, "criterion 'rtau' needs (tau, A, B) parameters"),
        ("N", -1, ParameterError, "moment order l must be a nonnegative finite real, got -1"),
        ("N", 63, OrderTooLarge, "order l=63 exceeds 62, the largest criterion 'N' takes "
                                 "(it reads moments of order l+2 <= 64)"),
    ])
    def test_parameter_errors_before_no_threshold(self, which, l, error, message):
        # 1 - alpha*lambda = 0: no threshold exists, but the parameters are checked first
        with pytest.raises(ParameterError) as info:
            find_threshold(which, l, ClassParams(0.75, 4.0 / 3.0))
        assert (type(info.value), str(info.value)) == (error, message)
        with pytest.raises(error, match=re.escape(message)):
            criterion_value(which, l, 1.0, ClassParams(0.75, 4.0 / 3.0))


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
                rt = RTauParams(tau, point["A"], point["B"])
            p = ClassParams(point["lambda"], point["alpha"])
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
