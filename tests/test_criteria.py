"""Membership criteria: coefficient sums, closed forms and their agreement.

The independent oracle for the closed forms is the weighted coefficient sum
computed with plain factorial arithmetic (no Stirling table, no term-ratio
recurrence, no tail shortcuts): sum over n of weight(n) times
(n-1)**l m**(n-1)/(n-1)! exp(-m), carried far enough that the tail is
negligible.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchardstar import (
    ClassParams,
    NegativeCoefficient,
    NumericFailure,
    ParameterError,
    RTauParams,
    TOL_EQ,
    TouchardParams,
    TruncatedSeries,
    apply_operator_I,
    apply_operator_L,
    brute_force_M,
    brute_force_N,
    lemma_sum_M,
    lemma_sum_N,
    rtau_coeff_bound,
    theorem_M_lhs,
    theorem_N_lhs,
    theorem_integral_operator,
    theorem_rtau_inclusion,
    touchard_series,
)

SAMPLE_PARAMS = [
    (0, 0.3, 0.0, 4.0 / 3.0),
    (1, 1.0, 0.25, 1.2),
    (2, 2.0, 0.5, 1.05),
    (3, 4.0, 0.25, 4.0 / 3.0),
    (0, 0.1, 0.5, 1.2),
    (2, 0.5, 0.0, 1.05),
]


def weight(n, lam, alpha):
    return n - (1 + n * lam - lam) * alpha


def weighted_kernel_sum(l, m, lam, alpha, convex, terms=200):
    """Factorial-arithmetic oracle for the closed-form criteria."""
    total = 0.0
    for n in range(2, terms + 2):
        if n - 1 > 170:
            break
        w = weight(n, lam, alpha)
        if convex:
            w *= n
        total += w * (n - 1) ** l * m ** (n - 1) / math.factorial(n - 1)
    return total * math.exp(-m)


class TestClassParams:
    def test_ranges(self):
        ClassParams(0.0, 4.0 / 3.0)
        ClassParams(0.999, 1.0001)
        with pytest.raises(ParameterError):
            ClassParams(1.0, 1.2)
        with pytest.raises(ParameterError):
            ClassParams(-0.1, 1.2)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 1.0)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 4.0 / 3.0 + 1e-9)

    def test_bound(self):
        assert ClassParams(0.2, 1.25).bound == 0.25

    def test_weight_values(self):
        p = ClassParams(0.25, 1.2)
        assert p.weight(2) == pytest.approx(2 - 1.25 * 1.2, rel=1e-15)
        w = p.weight(np.array([2, 3, 4]))
        assert w.shape == (3,)
        assert w[1] == pytest.approx(p.weight(3), rel=1e-15)

    def test_weight_can_go_negative(self):
        # at alpha*lambda = 1 the weight is the constant -(1 - lambda)*alpha
        p = ClassParams(0.75, 4.0 / 3.0)
        for n in [2, 5, 50]:
            assert p.weight(n) == pytest.approx(-1.0 / 3.0, rel=1e-12)


class TestRTauParams:
    def test_validation(self):
        RTauParams(1 + 1j, 0.5, -0.5)
        with pytest.raises(ParameterError):
            RTauParams(0.0, 0.5, -0.5)
        with pytest.raises(ParameterError):
            RTauParams(1.0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            RTauParams(1.0, 1.5, -0.5)
        with pytest.raises(ParameterError):
            RTauParams(1.0, 0.5, -1.5)

    def test_gain(self):
        assert RTauParams(3 + 4j, 1.0, -1.0).gain == pytest.approx(10.0, rel=1e-15)


class TestLemmaSums:
    def test_bare_identity_is_member(self):
        p = ClassParams(0.25, 1.2)
        f = TruncatedSeries([1.0, 0.0, 0.0])
        for report in (lemma_sum_M(f, p), lemma_sum_N(f, p)):
            assert report.criterion_value == 0.0
            assert report.member
            assert report.method == "coefficient_sum"

    def test_single_coefficient_boundary_M(self):
        p = ClassParams(0.25, 1.2)
        w2 = p.weight(2)
        assert w2 > 0  # precondition for the boundary construction
        a2 = p.bound / w2
        report = lemma_sum_M(TruncatedSeries([1.0, a2]), p)
        assert abs(report.criterion_value - p.bound) < 1e-15
        assert report.member

    def test_scaled_past_boundary_is_not_member(self):
        p = ClassParams(0.25, 1.2)
        a2 = p.bound / p.weight(2)
        report = lemma_sum_M(TruncatedSeries([1.0, 1.01 * a2]), p)
        assert not report.member

    def test_single_coefficient_boundary_N(self):
        p = ClassParams(0.1, 1.25)
        a2 = p.bound / (2.0 * p.weight(2))
        report = lemma_sum_N(TruncatedSeries([1.0, a2]), p)
        assert abs(report.criterion_value - p.bound) < 1e-15
        assert report.member
        report = lemma_sum_N(TruncatedSeries([1.0, 1.01 * a2]), p)
        assert not report.member

    def test_convex_dominates_starlike_for_nonneg_weights(self):
        p = ClassParams(0.25, 1.2)  # w(n) > 0 for all n >= 2 here
        assert p.weight(2) > 0
        f = touchard_series(TouchardParams(1, 1.0), 64)
        assert lemma_sum_N(f, p).criterion_value >= lemma_sum_M(f, p).criterion_value

    def test_convex_membership_implies_starlike_where_weights_nonneg(self):
        # the extra factor n >= 2 dominates termwise, so at any fixed m the
        # convex-type member set is contained in the starlike-type one
        for lam in (0.0, 0.25, 0.5, 0.75):
            for alpha in (1.05, 1.2, 4.0 / 3.0):
                p = ClassParams(lam, alpha)
                if min(p.weight(2), p.weight(64)) < 0:
                    continue
                for l in (0, 1, 2, 3):
                    for m in (0.1, 0.5, 1.0, 2.0, 4.0):
                        f = touchard_series(TouchardParams(l, m), 64)
                        rn, rm = lemma_sum_N(f, p), lemma_sum_M(f, p)
                        assert rn.criterion_value >= rm.criterion_value
                        if rn.member:
                            assert rm.member

    def test_requires_nonneg_flag(self):
        p = ClassParams(0.0, 1.2)
        f = TruncatedSeries([1.0, -0.2])
        with pytest.raises(NegativeCoefficient):
            lemma_sum_M(f, p)
        with pytest.raises(NegativeCoefficient):
            lemma_sum_N(TruncatedSeries([1.0, 0.2, -0.1]), p)

    def test_negative_weights_flagged_in_detail(self):
        p = ClassParams(0.75, 1.2)  # w(2) = -0.1
        f = touchard_series(TouchardParams(0, 1.0), 16)
        report = lemma_sum_M(f, p)
        assert "negative weights contributed" in report.detail

    def test_no_clamping_of_negative_weights(self):
        # the sum is taken exactly as written, signed weights included
        p = ClassParams(0.75, 4.0 / 3.0)
        f = touchard_series(TouchardParams(1, 2.0), 32)
        expected = math.fsum(
            p.weight(n) * f.a(n) for n in range(2, 33)
        )
        assert lemma_sum_M(f, p).criterion_value == pytest.approx(expected, rel=1e-14)
        assert expected < 0

    def test_doubling_order_is_negligible(self):
        for l in range(4):
            for lam, alpha in [(0.0, 4.0 / 3.0), (0.5, 1.2)]:
                p = ClassParams(lam, alpha)
                tp = TouchardParams(l, 10.0)
                a = lemma_sum_M(touchard_series(tp, 64), p).criterion_value
                b = lemma_sum_M(touchard_series(tp, 128), p).criterion_value
                assert abs(a - b) < 1e-12
                a = lemma_sum_N(touchard_series(tp, 64), p).criterion_value
                b = lemma_sum_N(touchard_series(tp, 128), p).criterion_value
                assert abs(a - b) < 1e-12


class TestTheoremClosedForms:
    @pytest.mark.parametrize("l,m,lam,alpha", SAMPLE_PARAMS)
    def test_starlike_matches_factorial_oracle(self, l, m, lam, alpha):
        report = theorem_M_lhs(TouchardParams(l, m), ClassParams(lam, alpha))
        oracle = weighted_kernel_sum(l, m, lam, alpha, convex=False)
        assert report.criterion_value == pytest.approx(oracle, rel=1e-11, abs=1e-12)
        assert report.method == "closed_form"

    @pytest.mark.parametrize("l,m,lam,alpha", SAMPLE_PARAMS)
    def test_convex_matches_factorial_oracle(self, l, m, lam, alpha):
        report = theorem_N_lhs(TouchardParams(l, m), ClassParams(lam, alpha))
        oracle = weighted_kernel_sum(l, m, lam, alpha, convex=True)
        assert report.criterion_value == pytest.approx(oracle, rel=1e-11, abs=1e-12)

    def test_small_m_always_member(self):
        p = ClassParams(0.25, 1.2)
        for l in range(4):
            tiny = theorem_M_lhs(TouchardParams(l, 2.0**-20), p)
            assert tiny.criterion_value < p.bound
            assert tiny.member
            assert theorem_N_lhs(TouchardParams(l, 2.0**-20), p).member

    def test_membership_monotone_near_zero(self):
        p = ClassParams(0.5, 4.0 / 3.0)
        for k in range(1, 21):
            assert theorem_M_lhs(TouchardParams(1, 2.0**-k), p).member
            assert theorem_N_lhs(TouchardParams(1, 2.0**-k), p).member

    def test_simplified_form_at_order_zero(self):
        # l = 0, lambda = 0: value reduces to m + (1 - alpha)(1 - e^-m)
        m, alpha = 0.3, 4.0 / 3.0
        report = theorem_M_lhs(TouchardParams(0, m), ClassParams(0.0, alpha))
        simplified = m + (1 - alpha) * (1 - math.exp(-m))
        assert report.criterion_value == pytest.approx(simplified, rel=1e-14)
        assert report.criterion_value < 1.0 / 3.0
        assert report.member

    def test_order_zero_branch_expression_M(self):
        # e^-m [ (1 - alpha lam) m e^m + (1 - alpha)(e^m - 1) ]
        m, lam, alpha = 1.7, 0.25, 1.2
        report = theorem_M_lhs(TouchardParams(0, m), ClassParams(lam, alpha))
        branch = math.exp(-m) * (
            (1 - alpha * lam) * m * math.exp(m) + (1 - alpha) * (math.exp(m) - 1)
        )
        assert report.criterion_value == pytest.approx(branch, rel=1e-13)

    def test_order_zero_branch_expression_N(self):
        # e^-m [ (1-alpha lam)(m^2+m) e^m + (2-alpha lam-alpha) m e^m
        #        + (1-alpha)(e^m - 1) ]
        m, lam, alpha = 0.8, 0.5, 4.0 / 3.0
        report = theorem_N_lhs(TouchardParams(0, m), ClassParams(lam, alpha))
        branch = math.exp(-m) * (
            (1 - alpha * lam) * (m * m + m) * math.exp(m)
            + (2 - alpha * lam - alpha) * m * math.exp(m)
            + (1 - alpha) * (math.exp(m) - 1)
        )
        assert report.criterion_value == pytest.approx(branch, rel=1e-13)

    @pytest.mark.parametrize("l,m,lam,alpha", SAMPLE_PARAMS)
    def test_closed_equals_truncated_sum(self, l, m, lam, alpha):
        tp, p = TouchardParams(l, m), ClassParams(lam, alpha)
        assert abs(
            theorem_M_lhs(tp, p).criterion_value - brute_force_M(tp, p).criterion_value
        ) < 1e-10
        assert abs(
            theorem_N_lhs(tp, p).criterion_value - brute_force_N(tp, p).criterion_value
        ) < 1e-10

    def test_integer_order_required(self):
        with pytest.raises(ParameterError):
            theorem_M_lhs(TouchardParams(0.5, 1.0), ClassParams(0.0, 1.2))


class TestRtauBound:
    def test_example(self):
        assert rtau_coeff_bound(2, RTauParams(1.0, 1.0, -1.0)) == 1.0

    def test_decreasing_in_n(self):
        r = RTauParams(0.5 + 0.5j, 0.75, -0.25)
        values = [rtau_coeff_bound(n, r) for n in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_symmetric_special_case(self):
        # tau = 1, A = beta, B = -beta gives 2 beta / n
        beta = 0.7
        r = RTauParams(1.0, beta, -beta)
        assert rtau_coeff_bound(5, r) == pytest.approx(2 * beta / 5, rel=1e-15)

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            rtau_coeff_bound(1, RTauParams(1.0, 1.0, -1.0))


class TestRtauInclusion:
    def test_unit_gain_reduces_to_starlike_form(self):
        tp, p = TouchardParams(1, 0.7), ClassParams(0.25, 1.2)
        r = RTauParams(1.0, 0.5, -0.5)  # gain exactly 1
        assert r.gain == 1.0
        assert (
            theorem_rtau_inclusion(tp, p, r).criterion_value
            == theorem_M_lhs(tp, p).criterion_value
        )

    def test_linear_in_gain(self):
        tp, p = TouchardParams(0, 1.1), ClassParams(0.0, 4.0 / 3.0)
        r1 = RTauParams(1.0, 0.5, -0.5)  # gain 1
        r2 = RTauParams(2.0, 0.5, -0.5)  # gain 2, exact doubling
        v1 = theorem_rtau_inclusion(tp, p, r1).criterion_value
        v2 = theorem_rtau_inclusion(tp, p, r2).criterion_value
        assert v2 == 2.0 * v1

    def test_worst_case_series_brute_force(self):
        # feed the extremal coefficient envelope through the operator and the
        # convex-type sum: the n of the weight cancels the 1/n of the bound
        tp, p = TouchardParams(1, 1.5), ClassParams(0.25, 1.2)
        r = RTauParams(1.0, 1.0, -1.0)
        order = 64
        envelope = TruncatedSeries(
            [1.0] + [r.gain / n for n in range(2, order + 1)]
        )
        transformed = apply_operator_I(tp, envelope)
        brute = lemma_sum_N(transformed, p).criterion_value
        closed = theorem_rtau_inclusion(tp, p, r).criterion_value
        assert abs(brute - closed) < 1e-10

    def test_sufficiency_wording_in_detail(self):
        tp, p = TouchardParams(0, 0.5), ClassParams(0.0, 1.2)
        report = theorem_rtau_inclusion(tp, p, RTauParams(1.0, 1.0, -1.0))
        assert "sufficient" in report.detail


class TestIntegralOperator:
    @pytest.mark.parametrize("l,m,lam,alpha", SAMPLE_PARAMS)
    def test_verdict_matches_starlike_criterion(self, l, m, lam, alpha):
        tp, p = TouchardParams(l, m), ClassParams(lam, alpha)
        a = theorem_integral_operator(tp, p)
        b = theorem_M_lhs(tp, p)
        assert a.criterion_value == b.criterion_value
        assert a.member == b.member

    @pytest.mark.parametrize("l,m,lam,alpha", SAMPLE_PARAMS)
    def test_termwise_cancellation_brute_force(self, l, m, lam, alpha):
        tp, p = TouchardParams(l, m), ClassParams(lam, alpha)
        transformed = apply_operator_L(tp, 64)
        viaN = lemma_sum_N(transformed, p).criterion_value
        viaM = lemma_sum_M(touchard_series(tp, 64), p).criterion_value
        assert abs(viaN - viaM) < 1e-12

    def test_summation_orders_agree(self):
        # n * w(n) * (c_n / n) summed vs w(n) * c_n summed
        tp, p = TouchardParams(3, 4.0), ClassParams(0.25, 4.0 / 3.0)
        f = touchard_series(tp, 64)
        n = np.arange(2, 65, dtype=float)
        w = p.weight(n)
        c = f.coeffs[1:]
        one_way = math.fsum((n * w) * (c / n))
        other_way = math.fsum(w * c)
        assert abs(one_way - other_way) < 1e-13

    def test_small_m_member(self):
        report = theorem_integral_operator(
            TouchardParams(2, 1e-4), ClassParams(0.5, 1.2)
        )
        assert report.member


class TestCriterionProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1.0001, max_value=4.0 / 3.0),
    )
    def test_lemma_sum_matches_manual_sum(self, tail, lam, alpha):
        p = ClassParams(lam, alpha)
        f = TruncatedSeries([1.0] + tail)
        report = lemma_sum_M(f, p)
        manual = math.fsum(p.weight(n) * f.a(n) for n in range(2, f.order + 1))
        assert report.criterion_value == pytest.approx(manual, rel=1e-13, abs=1e-15)
        assert report.member == (report.criterion_value <= p.bound + TOL_EQ)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1.0001, max_value=4.0 / 3.0),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_scaling_a_coefficient_moves_the_sum_linearly(self, tail, lam, alpha, scale):
        p = ClassParams(lam, alpha)
        base = lemma_sum_M(TruncatedSeries([1.0] + tail), p).criterion_value
        scaled = lemma_sum_M(
            TruncatedSeries([1.0] + [scale * a for a in tail]), p
        ).criterion_value
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-13)

    @given(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.01, max_value=8.0),
        st.floats(min_value=0.0, max_value=0.7),
        st.floats(min_value=1.01, max_value=4.0 / 3.0),
    )
    def test_closed_form_tracks_truncated_sum(self, l, m, lam, alpha):
        tp, p = TouchardParams(l, m), ClassParams(lam, alpha)
        closed = theorem_M_lhs(tp, p).criterion_value
        brute = brute_force_M(tp, p, order=128).criterion_value
        assert closed == pytest.approx(brute, rel=1e-9, abs=1e-9)


class TestMembershipReport:
    def test_dict_shape(self):
        report = theorem_M_lhs(TouchardParams(0, 0.5), ClassParams(0.0, 1.2))
        d = report.to_dict()
        assert set(d) == {"criterion_value", "bound", "member", "method", "detail"}

    def test_tolerance_on_verdict(self):
        # member iff value <= bound + TOL_EQ
        p = ClassParams(0.0, 1.2)
        w2 = p.weight(2)
        exact = p.bound / w2
        nudged = (p.bound + 0.5 * TOL_EQ) / w2
        over = (p.bound + 10 * TOL_EQ) / w2
        assert lemma_sum_M(TruncatedSeries([1.0, exact]), p).member
        assert lemma_sum_M(TruncatedSeries([1.0, nudged]), p).member
        assert not lemma_sum_M(TruncatedSeries([1.0, over]), p).member


class TestNonFiniteValues:
    """A closed form that overflows is a NumericFailure, never a NaN verdict."""

    def test_overflow_raises(self):
        # T_61(1e7) and T_60(1e7) overflow; inf - inf would come back as NaN
        with pytest.raises(NumericFailure):
            theorem_M_lhs(TouchardParams(60, 1e7), ClassParams(0, 1.2))

    @pytest.mark.parametrize("criterion", [theorem_N_lhs, theorem_integral_operator])
    def test_other_closed_forms_raise(self, criterion):
        with pytest.raises(NumericFailure):
            criterion(TouchardParams(60, 1e7), ClassParams(0.25, 1.2))

    def test_rtau_gain_overflow_raises(self):
        r = RTauParams(1e308, 1.0, -1.0)
        with pytest.raises(NumericFailure):
            theorem_rtau_inclusion(TouchardParams(0, 2.0), ClassParams(0.0, 1.2), r)
