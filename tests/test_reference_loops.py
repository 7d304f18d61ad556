"""The coefficient route and the disk scans against reference copies of
their former implementations.

The kernel series is built with one cumulative product, the series moment
carries each step's ratio factors into the next step, and the coefficient
sums hand ``math.fsum`` a list.  The disk scans take their sample points and
radius powers from tables the grid keeps, and find the maximum with
``np.fmax``.  None of this may move a single bit: every comparison below is
on ``tobytes()`` or ``repr``, never approximate.  The loops here are the
implementations those functions replaced, kept verbatim in their arithmetic.
The rest pins the series constructor's checks, the overflow failures and the
order-1 operator input.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchardstar import (
    ClassParams,
    DiskGrid,
    InvalidOrder,
    MomentValue,
    NoConvergence,
    NumericFailure,
    ParameterError,
    RTauParams,
    TouchardParams,
    TruncatedSeries,
    apply_operator_I,
    apply_operator_L,
    lemma_sum_M,
    lemma_sum_N,
    poisson_moment_series,
    touchard_series,
    verify_M,
    verify_N,
    verify_rtau,
)
from touchardstar.criteria import METHOD_COEFF, TOL_EQ, MembershipReport
from touchardstar.disk import DEGENERATE_DEN, TOL_V, VerificationReport

ORDERS = st.sampled_from([2, 3, 7, 64, 65, 200])
INTEGER_L = st.integers(0, 64)
M = st.floats(-12.0, 10.0).map(lambda e: 2.0 ** e)  # m in [2^-12, 2^10]


def reference_kernel(l, m, order):
    """a_1..a_N by the term-by-term recurrence, exp(-m) applied last."""
    u = np.empty(order)
    u[0] = 1.0
    term = m
    u[1] = term
    for n in range(2, order):
        term *= (n / (n - 1.0)) ** l * (m / n)
        u[n] = term
    u[1:] *= math.exp(-m)
    return u


def reference_sum(f, p, convex):
    """The coefficient-sum report, summing numpy scalars one by one."""
    n = np.arange(2, f.order + 1, dtype=float)
    w = p.weight(n)
    if convex:
        w = n * w
    value = math.fsum(w * f.coeffs[1:])
    negative = n[(w < 0) & (f.coeffs[1:] > 0)]
    detail = "coefficient sum over n = 2..%d" % f.order
    if negative.size:
        lo, hi = int(negative[0]), int(negative[-1])
        detail += (
            f"; negative weights contributed for n in {lo}..{hi}"
            " (verdict does not dominate the analytic condition)"
        )
    return MembershipReport(criterion_value=float(value), bound=p.bound,
                            member=bool(value <= p.bound + TOL_EQ), method=METHOD_COEFF,
                            detail=detail)


def reference_moment(l, m, tol=1e-12, term_cap=10_000):
    """The series moment with both ratios raised to the power l at every step.

    Past m = 745, exp(-m) underflows to 0 and every term with it; the
    library refuses such an m with NoConvergence, and so does this loop."""
    scale = math.exp(-m)
    if scale == 0.0:
        raise NoConvergence("exp(-m) underflows")
    total = scale if l == 0 else 0.0
    terms = 1 if l == 0 else 0
    comp = 0.0
    term = scale * m
    n = 1
    while n <= term_cap:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        terms += 1
        nxt = term * ((n + 1.0) / n) ** l * (m / (n + 1.0))
        rho = ((n + 2.0) / (n + 1.0)) ** l * (m / (n + 2.0))
        if rho < 0.5:
            bound = nxt / (1.0 - rho)
            if bound < tol:
                return MomentValue(value=total, method="series", truncation_terms=terms,
                                   tail_bound=bound)
        term = nxt
        n += 1
    raise NoConvergence("term cap reached")


def finite_reference(l, m, order):
    """The reference kernel, or None where the loop overflows (inf, or
    inf * exp(-m) = NaN once exp(-m) underflows)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u = reference_kernel(l, m, order)
    return u if np.isfinite(u).all() else None


def reference_rings(f, radii, angles, orders):
    """f's ``orders`` on the rings, every call forming its own radius powers
    and folding even when one block of ``angles`` holds every power."""
    r = np.asarray(radii, dtype=float)
    n = np.arange(1, f.order + 1, dtype=float)
    width = -(-(f.order + 1) // angles) * angles
    c = np.zeros((len(orders), width))
    for row, d in zip(c, orders):
        p = (np.concatenate([[0.0], f.coeffs]), n * f.coeffs, ((n * (n - 1)) * f.coeffs)[1:])[d]
        row[:p.size] = p
    scaled = c[:, None, :] * r[:, None] ** np.arange(width)
    folded = scaled.reshape(len(orders), r.size, -1, angles).sum(axis=2)
    return np.fft.ifft(folded, axis=-1, norm="forward")


def reference_on_grid(f, grid, orders):
    """The grid's points, formed on every call, and f's ``orders`` there."""
    theta = 2.0 * np.pi * np.arange(grid.angles_per_ring) / grid.angles_per_ring
    ring = np.exp(1j * theta)
    points = (np.asarray(grid.radii)[:, None] * ring[None, :]).ravel()
    rows = reference_rings(f, grid.radii, grid.angles_per_ring, orders)
    return points, rows.reshape(len(orders), -1)


def reference_scan(points, num, den, stat, bound):
    """The scan with np.nanargmax and violations counted on a boolean-indexed copy."""
    valid = np.abs(den) >= DEGENERATE_DEN
    values = stat(np.divide(num, den, out=np.full_like(den, np.nan), where=valid))
    degenerate = int(np.size(valid) - np.count_nonzero(valid))
    if np.count_nonzero(valid):
        idx = int(np.nanargmax(values))
        max_stat = float(values[idx])
        arg = complex(points[idx])
        violations = int(np.count_nonzero(values[valid] >= bound - TOL_V))
    else:
        max_stat, arg, violations = None, None, 0
    return VerificationReport(max_real_part=max_stat, arg_of_max=arg, violations=violations,
                              samples=int(points.size), degenerate_samples=degenerate,
                              sample_values=values)


def reference_verify(which, f, params, grid):
    grid = grid or DiskGrid.uniform()
    if which == "M":
        z, (fz, fpz) = reference_on_grid(f, grid, (0, 1))
        return reference_scan(z, z * fpz, (1.0 - params.lam) * fz + params.lam * z * fpz,
                              np.real, params.alpha)
    if which == "N":
        z, (fpz, fppz) = reference_on_grid(f, grid, (1, 2))
        return reference_scan(z, fpz + z * fppz, fpz + params.lam * z * fppz, np.real,
                              params.alpha)
    z, (fpz,) = reference_on_grid(f, grid, (1,))
    w = fpz - 1.0
    return reference_scan(z, w, (params.A - params.B) * params.tau - params.B * w, np.abs, 1.0)


VERIFY = {"M": verify_M, "N": verify_N, "rtau": verify_rtau}

# coefficients of both signs, the identity z, and series with a zero of f
# (z = 0.5) or f' (z = 0.5, 1/3) on a grid radius, which make degenerate samples
SERIES = st.one_of(
    st.lists(st.floats(-3.0, 3.0), max_size=90).map(lambda c: [1.0] + c),
    st.sampled_from([[1.0], [1.0, 0.0], [1.0, -2.0], [1.0, -1.0], [1.0, -1.5, 0.0]]),
)
# few and many angles, so that N + 1 falls below and above one ring; None scans
# the default grid, the one object every default scan shares
GRIDS = st.builds(
    DiskGrid,
    st.lists(st.sampled_from([0.5, 1.0 / 3.0, 0.05, 0.95, 0.995]) | st.floats(0.01, 0.999),
             min_size=1, max_size=5).map(tuple),
    st.sampled_from([1, 2, 3, 7, 16, 96]) | st.integers(1, 300),
) | st.none()


class TestScanBitIdentity:
    """Every report field and every sample value of a scan is the former scan's."""

    @given(st.sampled_from(sorted(VERIFY)), st.lists(SERIES, min_size=1, max_size=3), GRIDS,
           st.floats(0.0, 0.99), st.floats(1.0001, 4.0 / 3.0), st.floats(-1.0, 0.9))
    def test_scans(self, which, many, grid, lam, alpha, b):
        params = (RTauParams(complex(alpha, lam), min(1.0, b + alpha - 0.9), b)
                  if which == "rtau" else ClassParams(lam, alpha))
        # one grid serves every series in turn, so its tables grow and are reused
        for coeffs in many:
            f = TruncatedSeries(coeffs)
            got = VERIFY[which](f, params, grid, keep_samples=True)
            ref = reference_verify(which, f, params, grid)
            assert repr(got) == repr(ref)
            assert got.sample_values.tobytes() == ref.sample_values.tobytes()
            assert repr(VERIFY[which](f, params, grid)) == repr(ref)

    def test_all_degenerate_scan(self):
        # f' = 1 - 2z vanishes at the only sample, z = 0.5, and lambda = 0
        f, p, grid = TruncatedSeries([1.0, -1.0]), ClassParams(0.0, 1.2), DiskGrid((0.5,), 1)
        got, ref = verify_N(f, p, grid, keep_samples=True), reference_verify("N", f, p, grid)
        assert repr(got) == repr(ref) and got.max_real_part is None
        assert got.sample_values.tobytes() == ref.sample_values.tobytes()


class TestBitIdentity:
    @given(INTEGER_L, M, ORDERS)
    def test_kernel(self, l, m, order):
        ref = finite_reference(l, m, order)
        if ref is None:
            with pytest.raises(NumericFailure, match="overflow"):
                touchard_series(TouchardParams(l, m), order)
            return
        f = touchard_series(TouchardParams(l, m), order)
        assert f.coeffs.tobytes() == ref.tobytes()
        assert repr(f) == repr(TruncatedSeries(ref))

    @given(INTEGER_L, M, ORDERS)
    def test_operators(self, l, m, order):
        ref = finite_reference(l, m, order)
        if ref is None:
            return
        ref_l = ref / np.arange(1, order + 1, dtype=float)
        tp = TouchardParams(l, m)
        lf = apply_operator_L(tp, order)
        assert lf.coeffs.tobytes() == ref_l.tobytes()
        lif = apply_operator_I(tp, lf)
        assert lif.coeffs.tobytes() == (ref * ref_l).tobytes()
        assert (repr(lf), repr(lif)) == (repr(TruncatedSeries(ref_l)),
                                         repr(TruncatedSeries(ref * ref_l)))

    @given(INTEGER_L, M, ORDERS, st.floats(0.0, 0.99), st.floats(1.0001, 4.0 / 3.0))
    def test_coefficient_sums(self, l, m, order, lam, alpha):
        ref = finite_reference(l, m, order)
        if ref is None:
            return
        f, p = TruncatedSeries(ref), ClassParams(lam, alpha)
        assert repr(lemma_sum_M(f, p)) == repr(reference_sum(f, p, convex=False))
        assert repr(lemma_sum_N(f, p)) == repr(reference_sum(f, p, convex=True))

    @given(st.floats(0.0, 64.0) | INTEGER_L, M)
    def test_series_moment(self, l, m):
        try:
            ref = reference_moment(l, m)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                poisson_moment_series(l, m)
            return
        assert repr(poisson_moment_series(l, m)) == repr(ref)


class TestSeriesChecks:
    """The constructor checks with one min and one max; each check still holds."""

    @pytest.mark.parametrize("coeffs", [[1.0, math.inf], [1.0, -math.inf], [math.inf, 0.5],
                                        [math.nan, 0.5], [1.0, math.nan, -1.0],
                                        [1.0, -1.0, math.nan]])
    def test_every_value_finite(self, coeffs):
        with pytest.raises(ParameterError, match="finite"):
            TruncatedSeries(coeffs)

    @pytest.mark.parametrize("coeffs, nonneg", [([1.0], True), ([1.0, -0.0, 0.0], True),
                                                ([1.0, 2.0, -5e-324], False),
                                                ([1.0, -3.0, 2.0], False)])
    def test_nonneg_flag_from_the_minimum(self, coeffs, nonneg):
        assert TruncatedSeries(coeffs).nonneg is nonneg

    def test_private_locked_copy(self):
        source = np.array([1.0, 0.5, 0.25])
        f = TruncatedSeries(source)
        source[1] = -7.0
        assert f.coeffs.tolist() == [1.0, 0.5, 0.25]
        assert not f.coeffs.flags.writeable
        assert source.flags.writeable


CLI_OVERFLOWS = [
    ["coeffs", "--l", "64", "--m", "1000", "--order", "200"],
    ["coeffs", "--l", "1100", "--m", "0.001"],
    ["check-class", "--class", "Nstar", "--lambda", "0", "--alpha", "1.2",
     "--touchard", "1100", "1e-3"],
    ["verify-disk", "--which", "M", "--lambda", "0", "--alpha", "1.2",
     "--touchard", "1100", "1e-3"],
    ["moment", "--series", "--l", "2000", "--m", "1"],
    ["moment", "--series", "--l", "1100", "--m", "1e-3"],
    ["moment", "--series", "--l", "300", "--m", "1"],
]


class TestOverflow:
    @pytest.mark.parametrize("l, m, order", [(64, 1000.0, 200), (1100, 1e-3, 64),
                                             (1100, 1e-3, 3), (5000, 2.0, 64)])
    def test_kernel_overflow_is_numeric_failure(self, l, m, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="overflow a float"):
                touchard_series(TouchardParams(l, m), order)
            with pytest.raises(NumericFailure, match="overflow a float"):
                apply_operator_L(TouchardParams(l, m), order)

    def test_order_two_needs_no_ratio(self):
        # a_2 = m exp(-m) whatever l is; no (n/(n-1))**l is formed
        f = touchard_series(TouchardParams(1100, 1e-3), 2)
        assert f.coeffs.tolist() == [1.0, 1e-3 * math.exp(-1e-3)]

    def test_underflow_still_gives_zeros(self):
        # exp(-800) is 0 in floats: finite zeros, a known limitation
        f = touchard_series(TouchardParams(0, 800.0), 64)
        assert f.coeffs.tolist() == [1.0] + [0.0] * 63

    # 2.0**l overflows; a term overflows; every term is finite but the sum
    # is not (this one returned NaN with a certified tail bound before)
    @pytest.mark.parametrize("l, m", [(2000, 1.0), (1100, 1e-3), (300, 1.0), (1023.5, 2.0),
                                      (171.8, 20.0)])
    def test_series_moment_overflow_is_numeric_failure(self, l, m):
        with pytest.raises(NumericFailure, match="overflows a float") as info:
            poisson_moment_series(l, m)
        assert not isinstance(info.value, NoConvergence)

    @pytest.mark.parametrize("argv", CLI_OVERFLOWS, ids=lambda a: " ".join(a[:5]))
    def test_cli_exits_three_quietly(self, argv):
        proc = subprocess.run([sys.executable, "-m", "touchardstar", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("numeric failure:")
        assert "overflow" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestOperatorIOrderOne:
    def test_identity_function_of_order_one(self):
        f = apply_operator_I(TouchardParams(2, 1.5), TruncatedSeries([1.0]))
        assert f.coeffs.tolist() == [1.0]
        assert f.nonneg

    def test_kernel_still_needs_order_two(self):
        with pytest.raises(InvalidOrder):
            touchard_series(TouchardParams(2, 1.5), 1)
