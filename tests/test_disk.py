"""Disk sampling of the defining analytic conditions."""

import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from touchardstar import (
    ClassParams,
    DiskGrid,
    NumericFailure,
    ParameterError,
    RTauParams,
    TouchardParams,
    TruncatedSeries,
    evaluate,
    evaluate_rings,
    lemma_sum_N,
    samples_to_csv,
    theorem_M_lhs,
    touchard_series,
    verify_M,
    verify_N,
    verify_rtau,
)
from touchardstar import disk
from touchardstar.disk import DEGENERATE_DEN, TOL_V
from touchardstar.moments import GRID_SAMPLE_CAP


class TestDiskGrid:
    def test_default_layout(self):
        g = DiskGrid.default()
        assert len(g.radii) == 19
        assert g.angles_per_ring == 96
        assert g.radii[0] == pytest.approx(0.05)
        assert g.radii[-1] == pytest.approx(0.95)
        assert g.size == 19 * 96

    def test_uniform_custom(self):
        g = DiskGrid.uniform(0.9, rings=3, angles=4)
        assert g.radii == pytest.approx((0.3, 0.6, 0.9))
        assert g.size == 12

    def test_points_order_deterministic(self):
        g = DiskGrid.uniform(0.5, rings=2, angles=4)
        z = g.points()
        assert z[0] == pytest.approx(0.25)  # first ring, angle 0
        assert z[1] == pytest.approx(0.25j)
        assert z[4] == pytest.approx(0.5)  # second ring starts
        assert np.array_equal(z, g.points())

    def test_validation(self):
        with pytest.raises(ParameterError):
            DiskGrid.uniform(1.0)
        with pytest.raises(ParameterError):
            DiskGrid.uniform(0.5, rings=0)
        with pytest.raises(ParameterError):
            DiskGrid((0.5, 1.2), 8)
        with pytest.raises(ParameterError):
            DiskGrid((), 8)

    def test_numpy_integers_accepted_and_stored_as_int(self):
        g = DiskGrid((0.5,), np.int64(8))
        assert g.angles_per_ring == 8 and type(g.angles_per_ring) is int
        g = DiskGrid.uniform(0.9, rings=np.int64(3), angles=np.uint16(4))
        assert g.radii == pytest.approx((0.3, 0.6, 0.9))
        assert type(g.angles_per_ring) is int and g.size == 12

    def test_bool_rejected(self):
        with pytest.raises(ParameterError):
            DiskGrid((0.5,), True)
        with pytest.raises(ParameterError):
            DiskGrid.uniform(0.5, rings=True)


class TestGridTables:
    """Each grid keeps its sample points and radius powers; no scan can tell."""

    F = touchard_series(TouchardParams(2, 1.5), 8)
    G = touchard_series(TouchardParams(1, 0.7), 200)
    P = ClassParams(0.25, 1.2)

    @staticmethod
    def scans(f, grid):
        p, r = TestGridTables.P, RTauParams(1.0, 0.8, -0.5)
        return [verify(f, q, grid, keep_samples=True)
                for verify, q in ((verify_M, p), (verify_N, p), (verify_rtau, r))]

    def test_points_stay_fresh_and_writable(self):
        g = DiskGrid.uniform(0.9, rings=3, angles=8)
        verify_M(self.F, self.P, g)
        z = g.points()
        assert z.flags.writeable and z is not g.points()
        z[0] = 7.0
        assert g.points()[0] == pytest.approx(0.3)

    def test_cached_tables_are_read_only(self):
        g = DiskGrid.uniform(0.9, rings=3, angles=8)
        verify_N(self.G, self.P, g)
        for table in (g._points, g._powers(1)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    @pytest.mark.parametrize("angles", [7, 96, 256])
    def test_short_then_long_series_match_a_fresh_grid(self, angles):
        g = DiskGrid((0.3, 0.8, 0.99), angles)
        first = self.scans(self.F, g)
        assert g._powers(1).shape[1] == -(-9 // angles) * angles
        grown = self.scans(self.G, g)
        assert g._powers(1).shape[1] == -(-201 // angles) * angles
        short_again = self.scans(self.F, g)
        for used, f in ((first, self.F), (grown, self.G), (short_again, self.F)):
            fresh = self.scans(f, DiskGrid((0.3, 0.8, 0.99), angles))
            assert [repr(a) for a in used] == [repr(b) for b in fresh]
            assert [a.sample_values.tobytes() for a in used] == \
                [b.sample_values.tobytes() for b in fresh]

    def test_equality_hash_and_repr_ignore_the_tables(self):
        g, h = DiskGrid((0.5, 0.9), 12), DiskGrid((0.5, 0.9), 12)
        before = (repr(g), hash(g))
        self.scans(self.G, g)
        assert (repr(g), hash(g)) == before == (repr(h), hash(h))
        assert g == h and len({g, h}) == 1
        assert g != DiskGrid((0.5, 0.9), 16)


class TestGridCap:
    """A grid past GRID_SAMPLE_CAP samples is refused before anything is allocated.

    Were the check lost, each case here would allocate no more than about
    100 MB before failing (a radius per ring, or nothing while points and
    tables are built lazily)."""

    @pytest.mark.parametrize("build", [
        lambda: DiskGrid.uniform(0.95, rings=2**21, angles=1),
        lambda: DiskGrid.uniform(0.95, rings=19, angles=10**11),
        lambda: DiskGrid((0.5,), GRID_SAMPLE_CAP + 1),
        lambda: DiskGrid((0.3, 0.6), GRID_SAMPLE_CAP // 2 + 1),
    ])
    def test_refused_before_allocation(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="at most 1048576 samples"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_cap_itself_is_accepted(self):
        assert GRID_SAMPLE_CAP == 2**20
        assert DiskGrid.uniform(0.9, rings=2**10, angles=2**10).size == GRID_SAMPLE_CAP
        assert DiskGrid((0.5,), GRID_SAMPLE_CAP).size == GRID_SAMPLE_CAP

    def test_angles_checked_before_the_product(self):
        with pytest.raises(ParameterError, match="angles_per_ring must be an integer"):
            DiskGrid.uniform(0.5, rings=3, angles=0)
        with pytest.raises(ParameterError, match="angles_per_ring must be an integer"):
            DiskGrid.uniform(0.5, rings=3, angles=2.5)


def benchmark_kernels():
    """Kernels shaped like the benchmark's: l = 0..6, m over [1/16, 20], order 64."""
    ms = np.geomspace(1.0 / 16.0, 20.0, 7)
    return [touchard_series(TouchardParams(l, float(m)), 64)
            for l, m in zip(range(7), np.roll(ms, 3))]


#: The default grid and the benchmark's near-boundary grid.
MEMO_GRIDS = (DiskGrid.default().radii, (0.97, 0.98, 0.99, 0.995))
SCANS = {"M": (verify_M, ClassParams(0.3, 1.25)), "N": (verify_N, ClassParams(0.3, 1.25)),
         "rtau": (verify_rtau, RTauParams(0.5 - 0.5j, 0.8, -0.6))}


def scan(which, f, grid):
    verify, params = SCANS[which]
    return verify(f, params, grid, keep_samples=True)


def fingerprint(report):
    return repr(report), report.sample_values.tobytes()


class TestRingMemo:
    """Each grid keeps f, f' and f'' of the last series it scanned; no report can tell."""

    @pytest.mark.parametrize("radii", MEMO_GRIDS)
    def test_rows_together_equal_rows_apart(self, radii):
        grid = DiskGrid(radii, 96)
        for f in benchmark_kernels():
            rows, finite = grid._ring_table(f)
            assert finite == [True] * 3
            for d in range(3):
                alone = evaluate_rings(f, radii, 96, (d,)).ravel()
                assert rows[d].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("radii", MEMO_GRIDS)
    def test_every_scan_order_matches_fresh_grids(self, radii):
        kernels = benchmark_kernels()
        expected = {(i, w): fingerprint(scan(w, f, DiskGrid(radii, 96)))
                    for i, f in enumerate(kernels) for w in SCANS}
        for order in itertools.permutations(SCANS):
            grid = DiskGrid(radii, 96)
            for i, f in enumerate(kernels):
                for w in order:
                    assert fingerprint(scan(w, f, grid)) == expected[i, w]

    def test_default_grid_shares_the_memo(self):
        f = benchmark_kernels()[3]
        expected = [fingerprint(scan(w, f, DiskGrid(MEMO_GRIDS[0], 96))) for w in SCANS]
        got = [fingerprint(scan(w, f, None)) for w in SCANS]
        assert got == expected
        assert DiskGrid.default().__dict__["_ring_memo"][0] is f

    def test_one_transform_per_series(self, monkeypatch):
        calls = []

        def counting(f, *args):
            calls.append(f)
            return rings(f, *args)

        rings = disk._rings
        monkeypatch.setattr(disk, "_rings", counting)
        grid = DiskGrid((0.4, 0.8), 16)
        coeffs = [1.0, 0.2, -0.1, 0.05]
        f, g = TruncatedSeries(coeffs), TruncatedSeries(coeffs)
        for w in SCANS:
            scan(w, f, grid)
        assert calls == [f]
        first = [fingerprint(scan(w, f, grid)) for w in SCANS]
        # equal coefficients, distinct objects: every switch is a miss
        interleaved = [fingerprint(scan(w, h, grid)) for h in (g, f, g, f) for w in ("M", "N")]
        assert [c is f for c in calls] == [True, False, True, False, True]
        again = [fingerprint(scan(w, f, grid)) for w in SCANS]
        assert len(calls) == 5
        assert again == first
        assert interleaved == [first[0], first[1]] * 4

    def test_overflow_is_checked_per_row(self):
        # f = z + 5e305 z^200: f and f' fit a float on every ring, f'' does not
        coeffs = np.zeros(200)
        coeffs[0], coeffs[-1] = 1.0, 5e305
        f = TruncatedSeries(coeffs)
        radii = (0.5, 0.9, 0.99)
        expected = {w: fingerprint(scan(w, f, DiskGrid(radii, 96))) for w in ("M", "rtau")}
        for first_n in (True, False):
            grid = DiskGrid(radii, 96)
            if first_n:
                with pytest.raises(NumericFailure, match="overflow"):
                    scan("N", f, grid)
            assert {w: fingerprint(scan(w, f, grid)) for w in ("M", "rtau")} == expected
            with pytest.raises(NumericFailure, match="overflow") as info:
                scan("N", f, grid)
            assert type(info.value) is NumericFailure
        rows, finite = grid._ring_table(f)
        assert finite == [True, True, False]

    def test_rows_are_read_only(self):
        grid = DiskGrid((0.5, 0.9), 12)
        verify_M(benchmark_kernels()[1], ClassParams(0.0, 1.2), grid)
        rows, _ = grid._ring_table(benchmark_kernels()[1])
        for view in (rows, *rows):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[..., 0] = 0.0

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda g: pickle.loads(pickle.dumps(g))])
    def test_a_scanned_grid_copies_without_its_memo(self, duplicate):
        f = benchmark_kernels()[2]
        grid = DiskGrid((0.5, 0.9), 12)
        before = fingerprint(scan("N", f, grid))
        twin = duplicate(grid)
        assert twin == grid and "_ring_memo" not in twin.__dict__
        assert fingerprint(scan("N", f, twin)) == before
        assert grid.__dict__["_ring_memo"][0] is f

    def test_series_dropped_in_a_loop_never_hit_a_stale_entry(self):
        # a freed series' address is soon reused: the memo must not key on it
        grid = DiskGrid((0.6, 0.95), 32)
        for k in range(40):
            f = TruncatedSeries([1.0, 0.01 * k, -0.002 * k])
            for w in ("M", "N"):
                fresh = scan(w, f, DiskGrid(grid.radii, 32))
                assert fingerprint(scan(w, f, grid)) == fingerprint(fresh)
            del f


class TestVerifyM:
    def test_identity_function(self):
        # z f'/f is identically 1 for f(z) = z
        report = verify_M(TruncatedSeries([1.0, 0.0]), ClassParams(0.0, 1.2))
        assert report.max_real_part == pytest.approx(1.0, abs=1e-13)
        assert report.violations == 0
        assert report.degenerate_samples == 0
        assert report.samples == 19 * 96

    def test_certified_member_has_no_violations(self):
        tp, p = TouchardParams(0, 0.3), ClassParams(0.0, 4.0 / 3.0)
        assert theorem_M_lhs(tp, p).member
        report = verify_M(touchard_series(tp, 64), p)
        assert report.violations == 0
        assert report.max_real_part < p.alpha

    def test_far_past_bound_violates_on_dense_grid(self):
        # single-coefficient series whose sum exceeds the bound by 50%
        p = ClassParams(0.0, 4.0 / 3.0)
        a2 = 1.5 * p.bound / p.weight(2)
        f = TruncatedSeries([1.0, a2])
        report = verify_M(f, p, DiskGrid.uniform(0.99, rings=30, angles=128))
        assert report.violations >= 1
        assert report.max_real_part >= p.alpha

    def test_max_nondecreasing_with_radius(self):
        f = touchard_series(TouchardParams(1, 1.0), 64)
        p = ClassParams(0.0, 4.0 / 3.0)
        inner = verify_M(f, p, DiskGrid.uniform(0.5, rings=10, angles=64))
        outer = verify_M(f, p, DiskGrid.uniform(0.95, rings=19, angles=64))
        assert inner.max_real_part <= outer.max_real_part

    def test_degenerate_denominator_flagged_not_crashed(self):
        # f(z) = z - 2 z^2 vanishes at z = 0.5, a grid point at angle 0
        f = TruncatedSeries([1.0, -2.0])
        report = verify_M(f, ClassParams(0.0, 1.2), DiskGrid.uniform(0.95, rings=19, angles=96))
        assert report.degenerate_samples >= 1
        assert report.samples == 19 * 96

    def test_deterministic(self):
        f = touchard_series(TouchardParams(2, 1.0), 32)
        p = ClassParams(0.25, 1.2)
        a = verify_M(f, p)
        b = verify_M(f, p)
        assert a.to_dict() == b.to_dict()


class TestVerifyN:
    def test_identity_function(self):
        report = verify_N(TruncatedSeries([1.0, 0.0]), ClassParams(0.3, 1.2))
        assert report.max_real_part == pytest.approx(1.0, abs=1e-13)
        assert report.violations == 0

    def test_classical_convexity_form_at_lambda_zero(self):
        # the quotient reduces to 1 + z f''/f' when lambda = 0
        f = touchard_series(TouchardParams(1, 0.4), 48)
        grid = DiskGrid.uniform(0.9, rings=9, angles=32)
        report = verify_N(f, ClassParams(0.0, 1.2), grid, keep_samples=True)
        z = grid.points()
        classical = 1.0 + z * evaluate(f, z, 2) / evaluate(f, z, 1)
        assert np.allclose(report.sample_values, classical.real, rtol=0, atol=1e-13)

    def test_member_by_coefficient_sum_has_no_violations(self):
        tp, p = TouchardParams(0, 0.1), ClassParams(0.0, 4.0 / 3.0)
        f = touchard_series(tp, 64)
        assert lemma_sum_N(f, p).member
        report = verify_N(f, p)
        assert report.violations == 0


class TestVerifyRtau:
    def test_identity_function_has_zero_distortion(self):
        report = verify_rtau(TruncatedSeries([1.0, 0.0]), RTauParams(1.0, 1.0, -1.0))
        assert report.max_real_part == 0.0
        assert report.violations == 0

    def test_half_the_sharp_envelope_clears(self):
        r = RTauParams(1.0, 1.0, -1.0)
        coeffs = [1.0] + [0.5 * r.gain / n for n in range(2, 65)]
        report = verify_rtau(TruncatedSeries(coeffs), r)
        assert report.violations == 0
        assert 0.0 < report.max_real_part < 1.0

    def test_symmetric_parameters_reduce_to_classical_check(self):
        # tau = 1, A = beta, B = -beta: modulus equals |f'-1| / (beta |f'+1|)
        beta = 0.6
        r = RTauParams(1.0, beta, -beta)
        f = touchard_series(TouchardParams(1, 0.8), 32)
        grid = DiskGrid.uniform(0.8, rings=5, angles=16)
        report = verify_rtau(f, r, grid, keep_samples=True)
        z = grid.points()
        fp = evaluate(f, z, 1)
        classical = np.abs(fp - 1.0) / (beta * np.abs(fp + 1.0))
        assert np.allclose(report.sample_values, classical, rtol=1e-12, atol=1e-15)


def horner_scan(which, f, params, grid):
    """(statistic, valid) of a scan, with Horner's rule at every grid point."""
    z = grid.points()
    d0, d1, d2 = (evaluate(f, z, d) for d in (0, 1, 2))
    if which == "M":
        num, den = z * d1, (1.0 - params.lam) * d0 + params.lam * z * d1
    elif which == "N":
        num, den = d1 + z * d2, d1 + params.lam * z * d2
    else:
        num = d1 - 1.0
        den = (params.A - params.B) * params.tau - params.B * num
    valid = np.abs(den) >= DEGENERATE_DEN
    quot = num[valid] / den[valid]
    return (np.abs(quot) if which == "rtau" else quot.real), valid


class TestScansMatchHorner:
    """The ring evaluator leaves the verdicts of seeded scans unchanged."""

    GRIDS = (DiskGrid.default(), DiskGrid.uniform(0.99, rings=8, angles=7),
             DiskGrid((0.2, 0.5, 0.9, 0.97), 40))

    @pytest.mark.parametrize("which", ["M", "N", "rtau"])
    def test_same_violations_and_degenerates(self, which):
        rng = np.random.default_rng(20201)
        verify = {"M": verify_M, "N": verify_N, "rtau": verify_rtau}[which]
        violations = []
        for _ in range(12):
            f = touchard_series(TouchardParams(int(rng.integers(0, 4)),
                                               float(rng.uniform(0.1, 3.0))), 64)
            if which == "rtau":
                params, bound = RTauParams(1.0, float(rng.uniform(0.2, 1.0)), -0.5), 1.0
            else:
                params = ClassParams(float(rng.uniform(0.0, 0.9)),
                                     float(rng.uniform(1.05, 4.0 / 3.0)))
                bound = params.alpha
            for grid in self.GRIDS:
                stat, valid = horner_scan(which, f, params, grid)
                # away from the bound: no sample within 1e-9 of the threshold
                assert np.min(np.abs(stat - (bound - TOL_V))) > 1e-9
                report = verify(f, params, grid)
                assert report.violations == int(np.count_nonzero(stat >= bound - TOL_V))
                assert report.degenerate_samples == int(valid.size - np.count_nonzero(valid))
                assert report.max_real_part == pytest.approx(np.max(stat), rel=1e-12)
                violations.append(report.violations)
        assert min(violations) == 0 < max(violations)

    def test_identity_distortion_is_exactly_zero_on_any_ring_size(self):
        for grid in self.GRIDS:
            report = verify_rtau(TruncatedSeries([1.0, 0.0]), RTauParams(1.0, 1.0, -1.0), grid)
            assert report.max_real_part == 0.0

    def test_zero_of_f_on_the_grid_stays_degenerate(self):
        # f(z) = z - 2 z^2 vanishes at z = 0.5: angle 0 of the ring r = 0.5
        f = TruncatedSeries([1.0, -2.0])
        report = verify_M(f, ClassParams(0.0, 1.2), DiskGrid((0.5,), 8), keep_samples=True)
        assert report.degenerate_samples == 1
        assert np.isnan(report.sample_values[0])
        default = verify_M(f, ClassParams(0.0, 1.2), keep_samples=True)
        ring = DiskGrid.default().radii.index(0.5)
        assert np.isnan(default.sample_values[ring * 96])


class TestOverflow:
    """A series whose derivative coefficients overflow a float is a numeric
    failure, not a traceback and not a report of degenerate samples."""

    @pytest.mark.parametrize("coeffs", [[1.0, 1e308], [1.0, 0.0, 1e308]])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("verify", [verify_M, verify_N, verify_rtau])
    def test_numeric_failure(self, verify, lam, coeffs):
        params = RTauParams(1.0, lam, -0.5) if verify is verify_rtau else ClassParams(lam, 1.2)
        with pytest.raises(NumericFailure, match="overflow") as info:
            verify(TruncatedSeries(coeffs), params)
        assert type(info.value) is NumericFailure

    def test_quotient_past_the_float_range(self):
        # f' is finite on every ring, but z f' and f' + z f'' are not
        with pytest.raises(NumericFailure, match="overflow"):
            verify_M(TruncatedSeries([1.0, 8e307]), ClassParams(0.0, 1.2))

    def test_ring_values(self):
        with pytest.raises(NumericFailure, match="overflow"):
            evaluate_rings(TruncatedSeries([1.0, 1e308]), [0.5], 8, (1,))


class TestSampleDump:
    def test_csv_shape_and_degenerates(self):
        f = TruncatedSeries([1.0, -2.0])
        grid = DiskGrid.uniform(0.95, rings=19, angles=96)
        report = verify_M(f, ClassParams(0.0, 1.2), grid, keep_samples=True)
        text = samples_to_csv(grid, report)
        lines = text.strip().splitlines()
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + grid.size
        empties = sum(1 for ln in lines[1:] if ln.endswith(","))
        assert empties == report.degenerate_samples

    def test_bytes_match_hand_built_rows(self):
        grid = DiskGrid((0.5, 0.9), 12)
        report = verify_M(TruncatedSeries([1.0, -2.0]), ClassParams(0.0, 1.2), grid,
                          keep_samples=True)
        assert report.degenerate_samples == 1  # one empty value cell
        rows = ["re,im,value"]
        for zk, vk in zip(grid.points(), report.sample_values):
            value = "" if np.isnan(vk) else repr(float(vk))
            rows.append(f"{float(zk.real)!r},{float(zk.imag)!r},{value}")
        assert samples_to_csv(grid, report) == "\n".join(rows) + "\n"

    def test_requires_kept_samples(self):
        f = TruncatedSeries([1.0, 0.0])
        grid = DiskGrid.uniform(0.5, rings=2, angles=4)
        report = verify_M(f, ClassParams(0.0, 1.2), grid)
        with pytest.raises(ParameterError):
            samples_to_csv(grid, report)


class TestReportShape:
    def test_dict_fields(self):
        report = verify_M(TruncatedSeries([1.0, 0.1]), ClassParams(0.0, 1.2))
        d = report.to_dict()
        assert set(d) == {
            "max_real_part",
            "arg_of_max",
            "violations",
            "samples",
            "degenerate_samples",
        }
        assert set(d["arg_of_max"]) == {"re", "im"}
        # the maximum of a positive-coefficient quotient sits on the positive
        # real axis, the first angle of the outermost ring
        assert d["arg_of_max"]["re"] == pytest.approx(0.95)
        assert d["arg_of_max"]["im"] == pytest.approx(0.0)
