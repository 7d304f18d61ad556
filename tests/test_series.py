"""Truncated series construction, operators and evaluation.

Coefficient oracles here use plain factorial arithmetic; evaluation oracles
use long independent summations and (for the integral transform) numeric
quadrature of the integrand.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from touchardstar import (
    DiskGrid,
    InvalidOrder,
    OutOfDisk,
    ParameterError,
    TouchardParams,
    TruncatedSeries,
    apply_operator_I,
    apply_operator_L,
    evaluate,
    evaluate_rings,
    hadamard,
    series_from_csv,
    series_to_csv,
    tail_moment,
    touchard_series,
)


def kernel_coeff(l, m, n):
    """(n-1)**l m**(n-1)/(n-1)! exp(-m), by direct factorial arithmetic."""
    return (n - 1) ** l * m ** (n - 1) / math.factorial(n - 1) * math.exp(-m)


def ones_series(order):
    """All coefficients 1: the identity of the coefficient-wise product."""
    return TruncatedSeries(np.ones(order))


class TestTruncatedSeries:
    def test_requires_normalization(self):
        with pytest.raises(ParameterError):
            TruncatedSeries([2.0, 1.0])
        with pytest.raises(ParameterError):
            TruncatedSeries([])
        with pytest.raises(ParameterError):
            TruncatedSeries([1.0, float("nan")])

    def test_nonneg_flag_computed(self):
        assert TruncatedSeries([1.0, 0.5]).nonneg
        assert not TruncatedSeries([1.0, -0.5]).nonneg

    def test_nonneg_flag_override(self):
        # withholding the claim is allowed, a false claim is not
        assert not TruncatedSeries([1.0, 0.5], nonneg=False).nonneg
        with pytest.raises(ParameterError):
            TruncatedSeries([1.0, -0.5], nonneg=True)

    def test_immutability(self):
        f = TruncatedSeries([1.0, 0.25])
        with pytest.raises(AttributeError):
            f.nonneg = True
        with pytest.raises(ValueError):
            f.coeffs[0] = 2.0

    def test_accessor(self):
        f = TruncatedSeries([1.0, 0.25, 0.125])
        assert f.order == 3
        assert f.a(2) == 0.25
        with pytest.raises(ParameterError):
            f.a(4)


class TestTouchardSeries:
    def test_first_coefficient_example(self):
        f = touchard_series(TouchardParams(0, 1.0), 8)
        assert f.a(2) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_hand_derived_coefficient(self):
        # (n-1)^l m^(n-1)/(n-1)! e^-m at l=2, m=2, n=4: 9*8/6 * e^-2 = 12 e^-2
        f = touchard_series(TouchardParams(2, 2.0), 8)
        assert f.a(4) == pytest.approx(12.0 * math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_all_coefficients_match_factorial_oracle(self, l, m):
        f = touchard_series(TouchardParams(l, m), 20)
        for n in range(2, 21):
            assert f.a(n) == pytest.approx(kernel_coeff(l, m, n), rel=1e-13)

    def test_strictly_positive_and_flagged(self):
        f = touchard_series(TouchardParams(3, 0.1), 64)
        assert f.nonneg
        assert np.all(f.coeffs > 0)

    def test_poisson_probability_shape_at_l_zero(self):
        # a_n = m^(n-1) e^-m / (n-1)!: the Poisson probability mass at n-1
        m = 1.7
        f = touchard_series(TouchardParams(0, m), 12)
        for n in range(2, 13):
            assert f.a(n) == pytest.approx(
                m ** (n - 1) * math.exp(-m) / math.factorial(n - 1), rel=1e-13
            )

    def test_coefficient_sum_converges_to_tail(self):
        # sum over n >= 2 equals the full moment tail at order 0 (index shift
        # j = n - 1 turns it into total Poisson mass above zero)
        for m in [0.5, 1.0, 5.0]:
            f = touchard_series(TouchardParams(0, m), 64)
            total = math.fsum(f.coeffs[1:])
            assert abs(total - tail_moment(0, m)) < 1e-12
            direct = math.fsum(
                m**j * math.exp(-m) / math.factorial(j) for j in range(1, 64)
            )
            assert total == pytest.approx(direct, rel=1e-13)

    def test_prefix_stable_under_doubling(self):
        a = touchard_series(TouchardParams(2, 3.0), 64)
        b = touchard_series(TouchardParams(2, 3.0), 128)
        assert np.array_equal(a.coeffs, b.coeffs[:64])

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            touchard_series(TouchardParams(0, 1.0), 1)
        with pytest.raises(InvalidOrder):
            touchard_series(TouchardParams(0, 1.0), 2.5)

    def test_integer_order_required(self):
        with pytest.raises(ParameterError):
            touchard_series(TouchardParams(1.5, 1.0), 8)


class TestHadamard:
    def test_identity_element(self):
        f = touchard_series(TouchardParams(1, 2.0), 16)
        g = hadamard(f, ones_series(16))
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_commutative_exactly(self):
        f = touchard_series(TouchardParams(1, 2.0), 16)
        g = touchard_series(TouchardParams(0, 0.7), 16)
        assert np.array_equal(hadamard(f, g).coeffs, hadamard(g, f).coeffs)

    def test_associative(self):
        f = touchard_series(TouchardParams(1, 2.0), 16)
        g = touchard_series(TouchardParams(0, 0.7), 16)
        h = touchard_series(TouchardParams(2, 1.1), 16)
        lhs = hadamard(hadamard(f, g), h).coeffs
        rhs = hadamard(f, hadamard(g, h)).coeffs
        assert np.allclose(lhs, rhs, rtol=1e-15, atol=0.0)

    def test_truncates_to_shorter(self):
        f = touchard_series(TouchardParams(1, 2.0), 16)
        g = touchard_series(TouchardParams(1, 2.0), 8)
        assert hadamard(f, g).order == 8

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=12))
    def test_commutativity_property(self, tail):
        f = TruncatedSeries([1.0] + tail)
        g = touchard_series(TouchardParams(1, 1.0), f.order)
        assert np.array_equal(hadamard(f, g).coeffs, hadamard(g, f).coeffs)


class TestOperatorI:
    def test_identity_function_passes_through(self):
        f = TruncatedSeries([1.0, 0.0, 0.0, 0.0])  # f(z) = z padded
        out = apply_operator_I(TouchardParams(2, 1.0), f)
        assert out.a(1) == 1.0
        assert np.all(out.coeffs[1:] == 0.0)

    def test_koebe_style_coefficient(self):
        f = TruncatedSeries(np.arange(1, 9, dtype=float))  # a_n = n
        out = apply_operator_I(TouchardParams(0, 1.0), f)
        assert out.a(2) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_equals_hadamard_with_kernel(self):
        tp = TouchardParams(1, 0.8)
        f = TruncatedSeries([1.0, 0.3, 0.0, 0.9, 0.1])
        viaop = apply_operator_I(tp, f)
        viahad = hadamard(touchard_series(tp, f.order), f)
        assert np.array_equal(viaop.coeffs, viahad.coeffs)

    def test_self_application_squares_coefficients(self):
        tp = TouchardParams(2, 1.5)
        f = touchard_series(tp, 10)
        out = apply_operator_I(tp, f)
        assert np.array_equal(out.coeffs[1:], f.coeffs[1:] ** 2)


class TestOperatorL:
    def test_coefficients_divided_by_index(self):
        tp = TouchardParams(1, 2.0)
        base = touchard_series(tp, 16)
        out = apply_operator_L(tp, 16)
        n = np.arange(1, 17, dtype=float)
        assert np.array_equal(out.coeffs, base.coeffs / n)
        assert np.allclose(n * out.coeffs, base.coeffs, rtol=5e-16, atol=0.0)

    def test_second_coefficient_example(self):
        out = apply_operator_L(TouchardParams(0, 1.0), 8)
        assert out.a(2) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_matches_quadrature_of_integrand(self):
        # termwise antiderivative of (kernel series)/z agrees with numeric
        # integration along the real segment [0, 0.5]
        tp = TouchardParams(0, 1.0)
        kernel = touchard_series(tp, 40)
        out = apply_operator_L(tp, 40)

        def integrand(t):
            return (evaluate(kernel, t) / t).real if t > 0 else 1.0

        numeric, err = quad(integrand, 0.0, 0.5, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert evaluate(out, 0.5).real == pytest.approx(numeric, abs=1e-8)


class TestEvaluate:
    def test_identity_function(self):
        f = TruncatedSeries([1.0, 0.0, 0.0])
        z = 0.3 + 0.4j
        assert evaluate(f, z, 0) == pytest.approx(z)
        assert evaluate(f, z, 1) == pytest.approx(1.0)
        assert evaluate(f, z, 2) == pytest.approx(0.0)

    def test_normalization_at_origin(self):
        f = touchard_series(TouchardParams(2, 2.0), 32)
        assert evaluate(f, 0.0, 0) == 0.0
        assert evaluate(f, 0.0, 1) == 1.0

    def test_kernel_value_against_independent_sums(self):
        # z (1 - e^-m + e^{m(z-1)}) is the closed form of the order-zero
        # kernel (the leading z carries weight 1, not a Poisson weight)
        f = touchard_series(TouchardParams(0, 1.0), 60)
        got = evaluate(f, 0.5, 0)
        closed = 0.5 * (1.0 - math.exp(-1.0) + math.exp(1.0 * (0.5 - 1.0)))
        long_sum = 0.5 + math.fsum(
            1.0**j * math.exp(-1.0) / math.factorial(j) * 0.5 ** (j + 1)
            for j in range(1, 170)
        )
        assert abs(got - closed) < 1e-12
        assert abs(got - long_sum) < 1e-12

    def test_derivatives_match_finite_differences(self):
        f = touchard_series(TouchardParams(1, 1.2), 48)
        z = 0.31 - 0.22j
        h = 1e-6
        d1 = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        d2 = (evaluate(f, z + h) - 2 * evaluate(f, z) + evaluate(f, z - h)) / h**2
        assert evaluate(f, z, 1) == pytest.approx(d1, rel=1e-8)
        assert evaluate(f, z, 2) == pytest.approx(d2, rel=1e-3)

    def test_out_of_disk(self):
        f = TruncatedSeries([1.0, 0.1])
        with pytest.raises(OutOfDisk):
            evaluate(f, 1.0)
        with pytest.raises(OutOfDisk):
            evaluate(f, np.array([0.5, 1.2j]))

    def test_array_input(self):
        f = touchard_series(TouchardParams(0, 1.0), 16)
        z = np.array([0.1, 0.2 + 0.3j, -0.5j])
        out = evaluate(f, z, 0)
        assert out.shape == z.shape
        assert out[0] == pytest.approx(evaluate(f, 0.1, 0))

    def test_invalid_derivative_order(self):
        f = TruncatedSeries([1.0, 0.1])
        with pytest.raises(ParameterError):
            evaluate(f, 0.1, 3)

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=10),
        st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=10),
        st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
        st.sampled_from([0, 1, 2]),
    )
    def test_linearity_in_coefficients(self, ta, tb, z, order):
        k = min(len(ta), len(tb))
        f = TruncatedSeries([1.0] + ta[:k])
        g = TruncatedSeries([1.0] + tb[:k])
        combined = TruncatedSeries([1.0] + [x + y for x, y in zip(ta[:k], tb[:k])])
        lin = evaluate(f, z, order) + evaluate(g, z, order)
        if order == 0:
            lin -= z
        elif order == 1:
            lin -= 1.0
        got = evaluate(combined, z, order)
        assert got == pytest.approx(lin, abs=1e-13 * max(1.0, abs(lin)))


def power_coeffs(f, order):
    """Coefficients of z**0, z**1, ... in f, f' or f'', from the definition."""
    a = [0.0] + [float(c) for c in f.coeffs]  # a[n] is the coefficient of z**n
    return np.array([math.perm(j + order, order) * a[j + order]
                     for j in range(len(a) - order)])


class TestEvaluateRings:
    """One inverse DFT per scan against Horner at every point of the grid."""

    @staticmethod
    def assert_matches_horner(f, radii, angles):
        # Complex Horner at a rounded point errs by about 6 N u S (N terms,
        # S = sum_j |c_j| r**j); scaling, folding and a length-K FFT add
        # O(log2 K) u S, so the two agree within 8 (N + log2 K + 1) u S.
        grid = DiskGrid(radii, angles)
        rings = evaluate_rings(f, grid.radii, angles, (0, 1, 2))
        assert rings.shape == (3, len(grid.radii), angles)
        for order, got in enumerate(rings):
            c = np.abs(power_coeffs(f, order))
            scale = np.array([np.sum(c * r ** np.arange(c.size)) for r in grid.radii])
            bound = 8 * (c.size + math.log2(angles) + 1) * 2.0**-53 * scale
            err = np.abs(got - evaluate(f, grid.points(), order).reshape(got.shape))
            assert np.all(err <= bound[:, None])

    @given(
        st.lists(st.floats(-1e3, 1e3), max_size=70),
        st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
        st.sampled_from([1, 7, 40, 96, 128]),
    )
    def test_random_series_match_horner(self, tail, radii, angles):
        self.assert_matches_horner(TruncatedSeries([1.0] + tail), radii, angles)

    @pytest.mark.parametrize("angles", [1, 7, 40, 96, 128])
    def test_order_64_folds_onto_any_ring_size(self, angles):
        f = touchard_series(TouchardParams(2, 3.0), 64)
        self.assert_matches_horner(f, (0.3, 0.7, 0.95), angles)

    def test_single_ring_single_angle_is_the_real_value(self):
        f = touchard_series(TouchardParams(1, 0.8), 64)
        got = evaluate_rings(f, [0.5], 1, (0, 1, 2))[:, 0, 0]
        assert got.tolist() == pytest.approx([evaluate(f, 0.5, d) for d in (0, 1, 2)],
                                             rel=1e-14)

    def test_validation(self):
        f = TruncatedSeries([1.0, 0.1])
        with pytest.raises(OutOfDisk):
            evaluate_rings(f, [0.5, 1.0], 8)
        for angles in (0, True, 2.5):
            with pytest.raises(ParameterError):
                evaluate_rings(f, [0.5], angles)
        with pytest.raises(ParameterError):
            evaluate_rings(f, [0.5], 8, (0, 3))


class TestSeriesCsv:
    def test_round_trip(self):
        f = touchard_series(TouchardParams(2, 1.3), 12)
        g = series_from_csv(series_to_csv(f))
        assert np.array_equal(f.coeffs, g.coeffs)
        assert g.nonneg

    def test_header_required(self):
        with pytest.raises(ParameterError):
            series_from_csv("1,1.0\n2,0.5\n")

    def test_normalization_required(self):
        with pytest.raises(ParameterError):
            series_from_csv("n,a_n\n1,0.9\n")

    def test_consecutive_indices_required(self):
        with pytest.raises(ParameterError):
            series_from_csv("n,a_n\n1,1.0\n3,0.5\n")

    def test_malformed_row(self):
        with pytest.raises(ParameterError):
            series_from_csv("n,a_n\n1,1.0\n2,abc\n")
        with pytest.raises(ParameterError):
            series_from_csv("n,a_n\n")
