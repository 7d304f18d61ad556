"""Sampling the defining analytic conditions on the open unit disk.

The coefficient criteria certify membership through sums; this module goes
back to the definitions and evaluates the actual quotients on a polar grid,
counting samples where the tested quantity crosses its bound.  Sampling can
only ever provide one-sided evidence (a violation disproves membership, the
absence of violations proves nothing), so reports are consistency evidence,
not certificates.

Every scan reads the derivatives it needs on all rings of the grid from one
inverse DFT of the radius-scaled coefficients (:func:`series.evaluate_rings`),
not from Horner's rule at every sample.  Each grid keeps its points and radius
powers from its first scan on.  It also keeps f, f' and f'' on its rings for
the last series it scanned, from one DFT, so the M, N and rtau scans of one
series on one grid share a transform.  That memo holds the series object
itself (an equal but distinct series is a miss) and 48 bytes per sample:
85.5 KiB on the default 19 x 96 grid, 48 MiB at GRID_SAMPLE_CAP.  A lone scan
pays for the row it does not read: one default-grid verify_M of an order-64
series costs about a quarter more than it would with its two rows alone.
A value past the largest float is a NumericFailure; a scan checks only the
rows it reads.

Near-boundary radii are opt-in: truncation error of the series grows as
|z| -> 1, so the default grid stops at 0.95.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .criteria import ClassParams, RTauParams
from .errors import ParameterError, finite
from .formats import rows_csv
from .moments import GRID_SAMPLE_CAP, _integer, _real_check
from .series import TruncatedSeries, _rings

#: Margin on the violation comparison: a sample counts as a violation when
#: the tested real part (or modulus) reaches bound - TOL_V.
TOL_V = 1e-9

#: Quotients whose denominator modulus falls below this are flagged as
#: degenerate and excluded from the statistics instead of evaluated.
DEGENERATE_DEN = 1e-12

_check_radius = _real_check(lambda r: 0 < r < 1, "grid radii must lie in (0, 1)")


def _check_size(rings: int, angles) -> int:
    """``angles`` as an int >= 1 if ``rings`` rings of it stay within GRID_SAMPLE_CAP."""
    angles = _integer(angles, 1, "angles_per_ring")
    if rings * angles > GRID_SAMPLE_CAP:
        raise ParameterError(f"a disk grid holds at most {GRID_SAMPLE_CAP} samples, "
                             f"got {rings} rings of {angles} angles")
    return angles


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid: every listed radius times uniformly spaced angles."""

    radii: tuple
    angles_per_ring: int

    def __post_init__(self) -> None:
        radii = tuple(map(_check_radius, self.radii)) if np.iterable(self.radii) else ()
        if not radii:
            raise ParameterError("grid radii must be a nonempty list inside (0, 1)")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles_per_ring", _check_size(len(radii), self.angles_per_ring))

    @classmethod
    def uniform(cls, r_max: float = 0.95, rings: int = 19, angles: int = 96) -> "DiskGrid":
        """Radii r_max * k/rings for k = 1..rings (defaults give 0.05, 0.10, ..., 0.95)."""
        r_max = _check_radius(r_max)
        rings = _integer(rings, 1, "rings")
        angles = _check_size(rings, angles)  # before the radii are built
        return cls(tuple(r_max * k / rings for k in range(1, rings + 1)), angles)

    @classmethod
    @functools.cache  # a grid is immutable, so every default scan can share one
    def default(cls) -> "DiskGrid":
        return cls.uniform()

    @property
    def r_max(self) -> float:
        return max(self.radii)

    @property
    def size(self) -> int:
        return len(self.radii) * self.angles_per_ring

    def points(self) -> np.ndarray:
        """All sample points, ring-major then angle-major (deterministic order)."""
        return self._points.copy()

    @functools.cached_property  # in the instance dict, which eq, hash and repr never read
    def _points(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.angles_per_ring) / self.angles_per_ring
        ring = np.exp(1j * theta)
        z = (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()
        z.flags.writeable = False
        return z

    def _powers(self, width: int) -> np.ndarray:
        """Read-only radii[i] ** j at [i, j], j < width at least: grows, is never mutated."""
        table = self.__dict__.get("_power_table")
        if table is None or table.shape[1] < width:
            table = np.asarray(self.radii)[:, None] ** np.arange(width)
            table.flags.writeable = False
            self.__dict__["_power_table"] = table
        return table

    def __getstate__(self) -> dict:
        # the memo's key is the identity of a series object, which no copy shares
        return {k: v for k, v in self.__dict__.items() if k != "_ring_memo"}

    def _ring_table(self, f: TruncatedSeries) -> tuple:
        """(rows, peaks): f, f' and f'' of ``f`` at ``_points`` as read-only
        ``rows[0..2]`` and the largest real or imaginary part in each row
        (inf or NaN when the row holds one), kept for the last series."""
        memo = self.__dict__.get("_ring_memo")
        if memo is None or memo[0] is not f:
            rows = _rings(f, self._powers, self.angles_per_ring, (0, 1, 2))
            rows.flags.writeable = False
            memo = f, rows, np.abs(rows.view(float)).max(axis=1).tolist()
            self.__dict__["_ring_memo"] = memo
        return memo[1:]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Summary of one disk scan.

    ``max_real_part`` holds the largest tested statistic over the valid
    samples (the real part of the quotient for the class conditions, the
    modulus for the distortion condition) and ``arg_of_max`` the sample
    where it occurred; both are None when every sample was degenerate.
    ``sample_values`` optionally carries the per-sample statistic (NaN at
    degenerate samples) for external plotting; it is not serialized.
    """

    max_real_part: float | None
    arg_of_max: complex | None
    violations: int
    samples: int
    degenerate_samples: int
    sample_values: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        arg = self.arg_of_max
        return {
            "max_real_part": self.max_real_part,
            "arg_of_max": None if arg is None else {"re": arg.real, "im": arg.imag},
            "violations": self.violations,
            "samples": self.samples,
            "degenerate_samples": self.degenerate_samples,
        }


def _scan(f: TruncatedSeries, grid: DiskGrid | None, orders: tuple, quotient, stat,
          bound: float, keep_samples: bool) -> VerificationReport:
    """Scan ``stat`` of num/den, (num, den) = quotient(z, *f's ``orders`` at z), on ``grid``."""
    if not isinstance(keep_samples, bool):
        raise ParameterError(f"keep_samples must be True or False, got {keep_samples!r}")
    grid = grid or DiskGrid.default()
    rows, peaks = grid._ring_table(f)
    for d in orders:
        finite(peaks[d], "a ring value")
    with np.errstate(over="ignore", invalid="ignore"):  # for the gate below
        num, den = quotient(grid._points, *(rows[d] for d in orders))
        valid = np.abs(den) >= DEGENERATE_DEN
        quot = np.divide(num, den, out=np.full_like(den, np.nan), where=valid)
    values = np.ascontiguousarray(stat(quot))  # the reductions below scan np.real's view slowly
    degenerate = int(valid.size - np.count_nonzero(valid))
    finite(values[valid] if degenerate else values, "a scanned quotient")  # degenerates are NaN
    max_stat = arg = None
    if degenerate < valid.size:  # degenerate samples are NaN, which fmax skips and == rejects
        idx = int(np.argmax(values == np.fmax.reduce(values)))  # the first maximum
        max_stat, arg = float(values[idx]), complex(grid._points[idx])
    return VerificationReport(
        max_real_part=max_stat,
        arg_of_max=arg,
        violations=int(np.count_nonzero(values >= bound - TOL_V)),
        samples=valid.size,
        degenerate_samples=degenerate,
        sample_values=values if keep_samples else None,
    )


def verify_M(f: TruncatedSeries, p: ClassParams, grid: DiskGrid | None = None,
             keep_samples: bool = False) -> VerificationReport:
    """Sample Re( z f' / ((1-lam) f + lam z f') ) and count samples reaching alpha."""
    def quotient(z, fz, fpz):
        return z * fpz, (1.0 - p.lam) * fz + p.lam * z * fpz
    return _scan(f, grid, (0, 1), quotient, np.real, p.alpha, keep_samples)


def verify_N(f: TruncatedSeries, p: ClassParams, grid: DiskGrid | None = None,
             keep_samples: bool = False) -> VerificationReport:
    """Sample Re( (f' + z f'') / (f' + lam z f'') ) and count samples reaching alpha.

    At lam = 0 the quotient reduces to 1 + z f''/f', the classical convexity
    statistic.
    """
    def quotient(z, fpz, fppz):
        return fpz + z * fppz, fpz + p.lam * z * fppz
    return _scan(f, grid, (1, 2), quotient, np.real, p.alpha, keep_samples)


def verify_rtau(f: TruncatedSeries, r: RTauParams, grid: DiskGrid | None = None,
                keep_samples: bool = False) -> VerificationReport:
    """Sample |(f' - 1) / ((A-B) tau - B (f' - 1))| and count samples reaching 1."""
    def quotient(z, fpz):
        w = fpz - 1.0
        return w, (r.A - r.B) * r.tau - r.B * w
    return _scan(f, grid, (1,), quotient, np.abs, 1.0, keep_samples)


def samples_to_csv(grid: DiskGrid, report: VerificationReport) -> str:
    """Per-sample CSV ``re,im,value`` (value empty at degenerate samples).

    Requires the report to have been produced with ``keep_samples=True``.
    """
    if report.sample_values is None:
        raise ParameterError("report carries no per-sample values; rerun with keep_samples=True")
    return rows_csv(("re", "im", "value"), (
        {"re": zk.real, "im": zk.imag, "value": None if np.isnan(vk) else float(vk)}
        for zk, vk in zip(grid.points().tolist(), report.sample_values)))
