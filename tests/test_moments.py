"""Stirling numbers and Poisson moments against independent oracles.

Oracles used here:
* set-partition enumeration for Stirling numbers (counts the objects
  directly instead of running the recurrence),
* factorial-based direct summation for moment sums (no term ratios, no
  compensation, a different code path entirely).
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchardstar import (
    InvalidIndex,
    MomentValue,
    NoConvergence,
    OrderTooLarge,
    ParameterError,
    TouchardParams,
    poisson_moment_closed,
    poisson_moment_series,
    stirling2,
    tail_moment,
)
from touchardstar.moments import tail_kernel

M_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]


def count_partitions(l, k):
    """Count partitions of {0,..,l-1} into exactly k nonempty blocks, by enumeration."""
    if l == 0:
        return 1 if k == 0 else 0

    def place(i, blocks):
        if i == l:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(i)
            total += place(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            total += place(i + 1, blocks)
            blocks.pop()
        return total

    return place(0, [])


def recip_factorial(k):
    """1/k!, with 0.0 beyond 170! where the reciprocal underflows doubles."""
    return 1.0 / math.factorial(k) if k <= 170 else 0.0


def moment_sum_direct(l, m, terms=400):
    """exp(-m) * sum n**l m**n / n! by plain factorial arithmetic."""
    return math.exp(-m) * math.fsum(
        n**l * m**n * recip_factorial(n) for n in range(terms)
    )


class TestStirling:
    def test_base_case(self):
        assert stirling2(0, 0) == 1

    def test_examples_match_enumeration(self):
        assert count_partitions(3, 2) == 3
        assert stirling2(3, 2) == 3
        assert count_partitions(4, 2) == 7
        assert stirling2(4, 2) == 7

    @pytest.mark.parametrize("l", range(8))
    def test_whole_rows_match_enumeration(self, l):
        for k in range(l + 1):
            assert stirling2(l, k) == count_partitions(l, k)

    def test_exact_integers_at_the_cap(self):
        # S(64, 32) is astronomically large; exactness means the recurrence
        # identity holds in integer arithmetic all the way up.
        v = stirling2(64, 32)
        assert isinstance(v, int)
        assert v == 32 * stirling2(63, 32) + stirling2(63, 31)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            stirling2(65, 3)

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex):
            stirling2(3, 4)
        with pytest.raises(InvalidIndex):
            stirling2(3, -1)

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterError):
            stirling2(3.5, 2)


class TestClosedMoments:
    @pytest.mark.parametrize("m", M_GRID)
    def test_order_zero_is_one(self, m):
        assert poisson_moment_closed(0, m).value == 1.0

    @pytest.mark.parametrize("m", M_GRID)
    def test_low_order_polynomials(self, m):
        assert poisson_moment_closed(1, m).value == pytest.approx(m, abs=1e-12, rel=1e-12)
        assert poisson_moment_closed(2, m).value == pytest.approx(m * m + m, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_third_moment_polynomial(self, m):
        # verify the cubic against the direct series first, then pin it
        poly = m**3 + 3 * m**2 + m
        assert moment_sum_direct(3, m) == pytest.approx(poly, rel=1e-12)
        assert poisson_moment_closed(3, m).value == pytest.approx(poly, rel=1e-12)

    def test_matches_series_oracle(self):
        closed = poisson_moment_closed(3, 2.0).value
        series = poisson_moment_series(3, 2.0, 1e-15).value
        assert abs(closed - series) / closed < 1e-12

    def test_metadata(self):
        mv = poisson_moment_closed(4, 1.5)
        assert mv.method == "closed_form"
        assert mv.truncation_terms == 0
        assert mv.tail_bound == 0.0

    def test_rejects_non_integer_order(self):
        with pytest.raises(ParameterError):
            poisson_moment_closed(1.5, 1.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ParameterError):
            poisson_moment_closed(2, 0.0)
        with pytest.raises(ParameterError):
            poisson_moment_closed(2, -1.0)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            poisson_moment_closed(65, 1.0)


class TestSeriesMoments:
    def test_total_probability(self):
        mv = poisson_moment_series(0, 1.0, 1e-12)
        assert abs(mv.value - 1.0) < 1e-12
        assert mv.method == "series"
        assert mv.tail_bound < 1e-12
        assert mv.truncation_terms > 0

    def test_agrees_with_closed_form(self):
        mv = poisson_moment_series(2, 0.5, 1e-12)
        assert abs(mv.value - 0.75) < 1e-12

    def test_real_order_bracketed_by_neighbours(self):
        value = poisson_moment_series(1.5, 1.0, 1e-10).value
        assert 1.0 < value < 2.0  # between the first and second moments

    @pytest.mark.parametrize("l", [0.5, 1.5, 2.75])
    def test_real_order_matches_direct_sum(self, l):
        mv = poisson_moment_series(l, 2.0, 1e-12)
        assert mv.value == pytest.approx(moment_sum_direct(l, 2.0), rel=1e-11)

    def test_no_convergence_on_underflow(self):
        with pytest.raises(NoConvergence):
            poisson_moment_series(0, 800.0, 1e-10)

    def test_no_convergence_on_term_cap(self):
        with pytest.raises(NoConvergence):
            poisson_moment_series(5, 400.0, 1e-12, term_cap=50)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            poisson_moment_series(-1.0, 1.0, 1e-12)
        with pytest.raises(ParameterError):
            poisson_moment_series(2, 1.0, 0.0)

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    def test_dual_path_property(self, l, m):
        closed = poisson_moment_closed(l, m).value
        series = poisson_moment_series(l, m, 1e-13).value
        assert closed > 0
        assert series > 0
        assert abs(closed - series) / closed < 1e-10

    @given(
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    def test_positivity(self, l, m):
        assert poisson_moment_series(l, m, 1e-10).value > 0


class TestMomentRecurrence:
    @pytest.mark.parametrize("m", M_GRID)
    def test_binomial_shift_recurrence(self, m):
        # mu_{l+1} = m * sum_k C(l, k) mu_k, an independent third route
        mus = [poisson_moment_closed(l, m).value for l in range(12)]
        for l in range(11):
            rhs = m * math.fsum(math.comb(l, k) * mus[k] for k in range(l + 1))
            assert abs(mus[l + 1] - rhs) / mus[l + 1] < 1e-10


class TestTailMoment:
    @pytest.mark.parametrize("m", M_GRID)
    def test_order_zero(self, m):
        assert tail_moment(0, m) == pytest.approx(1.0 - math.exp(-m), rel=1e-14)

    def test_order_zero_at_one(self):
        # independent check by direct summation from n = 1
        direct = math.fsum(1.0**n / math.factorial(n) for n in range(1, 60)) * math.exp(-1.0)
        assert tail_moment(0, 1.0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-14)
        assert tail_moment(0, 1.0) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("l", [1, 2, 5, 9])
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_positive_order_equals_full_moment(self, l, m):
        # the n = 0 term vanishes for l >= 1
        assert tail_moment(l, m) == poisson_moment_closed(l, m).value

    def test_rejects_real_order(self):
        with pytest.raises(ParameterError):
            tail_moment(1.5, 1.0)


class TestNotationIdentities:
    """Shifted-factorial partial sums converge to e^m - 1, m e^m, m^2 e^m."""

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_partial_sums(self, m):
        def partial(shift):
            # term m^(n-1)/(n-shift)!; terms with a negative factorial
            # argument vanish
            return math.fsum(
                m ** (n - 1) * recip_factorial(n - shift)
                for n in range(2, 201)
                if n - shift >= 0
            )

        em = math.exp(m)
        assert abs(partial(1) - (em - 1)) / (em - 1) < 1e-10
        assert abs(partial(2) - m * em) / (m * em) < 1e-10
        assert abs(partial(3) - m * m * em) / (m * m * em) < 1e-10


class TestTouchardParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TouchardParams(0, 0.0)
        with pytest.raises(ParameterError):
            TouchardParams(-1, 1.0)
        with pytest.raises(ParameterError):
            TouchardParams(float("nan"), 1.0)

    def test_int_m_too_large_for_a_float(self):
        with pytest.raises(ParameterError):
            TouchardParams(0, 10**400)
        with pytest.raises(ParameterError):
            poisson_moment_closed(1, 10**400)

    def test_integer_order(self):
        assert TouchardParams(3.0, 1.0).integer_order == 3
        with pytest.raises(ParameterError):
            TouchardParams(1.5, 1.0).integer_order

    def test_moment_value_is_frozen(self):
        mv = MomentValue(1.0, "closed_form")
        with pytest.raises(AttributeError):
            mv.value = 2.0


class TestHornerKernel:
    """The one closed-form kernel behind moments, tails, criteria and sweeps."""

    @given(l=st.integers(0, 64), m=st.floats(2.0**-10, 2.0**10))
    def test_within_horner_bound_of_exact_stirling_sum(self, l, m):
        # positive coefficients and m: relative error at most gamma_(2l+1) < (2l+2)u
        exact = sum(stirling2(l, k) * Fraction(m) ** k for k in range(l + 1))
        error = abs(Fraction(poisson_moment_closed(l, m).value) - exact)
        assert error <= (2 * l + 2) * Fraction(1, 2**53) * exact

    @given(l=st.integers(0, 64), ms=st.lists(st.floats(2.0**-10, 2.0**10), min_size=1,
                                             max_size=8))
    def test_array_elements_equal_scalar_results(self, l, ms):
        values = tail_kernel(l, np.array(ms)).tolist()
        assert values == [tail_kernel(l, m) for m in ms]
        assert all(type(tail_kernel(l, m)) is float for m in ms)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            tail_kernel(65, np.array([1.0]))


class TestNumpyIntegerOrders:
    def test_numpy_integers_accepted(self):
        tp = TouchardParams(np.int64(2), 0.5)
        assert tp.integer_order == 2 and type(tp.integer_order) is int
        assert poisson_moment_closed(np.int64(2), 0.5).value == 0.75
        assert tail_moment(np.uint8(1), 2.0) == 2.0

    def test_bool_rejected(self):
        with pytest.raises(ParameterError):
            TouchardParams(True, 1.0)
        with pytest.raises(ParameterError):
            poisson_moment_closed(True, 1.0)


class TestHugeIntegerOrder:
    @pytest.mark.parametrize("l", [10**400, -(10**400)])
    def test_parameter_error_not_overflow(self, l):
        with pytest.raises(ParameterError):
            TouchardParams(l, 1.0)
        with pytest.raises(ParameterError):
            poisson_moment_series(l, 1.0)
        with pytest.raises(ParameterError):
            poisson_moment_closed(l, 1.0)

    def test_series_order_types(self):
        with pytest.raises(ParameterError):
            poisson_moment_series(True, 1.0)
        value = poisson_moment_series(np.int64(2), 0.5).value
        assert type(value) is float and value == poisson_moment_series(2, 0.5).value


class TestOrderZeroTail:
    @given(m=st.floats(2.0**-30, 2.0**10))
    def test_within_two_units_of_mpmath(self, m):
        with mpmath.workprec(200):
            exact = 1 - mpmath.exp(-mpmath.mpf(m))
            error = abs(mpmath.mpf(tail_kernel(0, m)) - exact) / exact
        assert error <= 2 * 2.0**-53

    def test_math_expm1_for_scalars_and_arrays(self):
        ms = [2.0**-30, 1e-8, 0.5, 1.0, 37.0, 1000.0]
        assert [tail_kernel(0, m) for m in ms] == [-math.expm1(-m) for m in ms]
        values = tail_kernel(0, np.array(ms).reshape(2, 3, 1))
        assert values.shape == (2, 3, 1) and values.dtype == float
        assert values.ravel().tolist() == [-math.expm1(-m) for m in ms]
        assert tail_moment(0, 2.0) == -math.expm1(-2.0)
