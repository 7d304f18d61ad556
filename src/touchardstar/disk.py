"""Sampling the defining analytic conditions on the open unit disk.

The coefficient criteria certify membership through sums; this module goes
back to the definitions and evaluates the actual quotients on a polar grid,
counting samples where the tested quantity crosses its bound.  Sampling can
only ever provide one-sided evidence (a violation disproves membership, the
absence of violations proves nothing), so reports are consistency evidence,
not certificates.

Every scan takes the derivatives it needs on all rings of the grid from one
inverse DFT of the radius-scaled coefficients (:func:`series.evaluate_rings`),
not from Horner's rule at every sample.

Near-boundary radii are opt-in: truncation error of the series grows as
|z| -> 1, so the default grid stops at 0.95.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import ClassParams, RTauParams
from .errors import ParameterError
from .series import TruncatedSeries, _positive_int, evaluate_rings

#: Margin on the violation comparison: a sample counts as a violation when
#: the tested real part (or modulus) reaches bound - TOL_V.
TOL_V = 1e-9

#: Quotients whose denominator modulus falls below this are flagged as
#: degenerate and excluded from the statistics instead of evaluated.
DEGENERATE_DEN = 1e-12


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid: every listed radius times uniformly spaced angles."""

    radii: tuple
    angles_per_ring: int

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        if not radii or not all(0.0 < r < 1.0 for r in radii):
            raise ParameterError("grid radii must be a nonempty list inside (0, 1)")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles_per_ring",
                           _positive_int(self.angles_per_ring, "angles_per_ring"))

    @classmethod
    def uniform(cls, r_max: float = 0.95, rings: int = 19, angles: int = 96) -> "DiskGrid":
        """Radii r_max * k/rings for k = 1..rings (defaults give 0.05, 0.10, ..., 0.95)."""
        if not (0.0 < r_max < 1.0):
            raise ParameterError(f"r_max must lie in (0, 1), got {r_max!r}")
        rings = _positive_int(rings, "rings")
        return cls(tuple(r_max * k / rings for k in range(1, rings + 1)), angles)

    @classmethod
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
        theta = 2.0 * np.pi * np.arange(self.angles_per_ring) / self.angles_per_ring
        ring = np.exp(1j * theta)
        return (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()


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


def _scan(points: np.ndarray, stat: np.ndarray, valid: np.ndarray, bound: float,
          keep_samples: bool) -> VerificationReport:
    stat = np.where(valid, stat, np.nan)
    degenerate = int(np.size(valid) - np.count_nonzero(valid))
    if np.count_nonzero(valid):
        idx = int(np.nanargmax(stat))
        max_stat = float(stat[idx])
        arg = complex(points[idx])
        violations = int(np.count_nonzero(stat[valid] >= bound - TOL_V))
    else:
        max_stat, arg, violations = None, None, 0
    return VerificationReport(
        max_real_part=max_stat,
        arg_of_max=arg,
        violations=violations,
        samples=int(points.size),
        degenerate_samples=degenerate,
        sample_values=stat if keep_samples else None,
    )


def _on_grid(f: TruncatedSeries, grid: DiskGrid, orders) -> np.ndarray:
    """The requested derivatives of f, one row per order, in ``grid.points()`` order."""
    return evaluate_rings(f, grid.radii, grid.angles_per_ring, orders).reshape(len(orders), -1)


def verify_M(f: TruncatedSeries, p: ClassParams, grid: DiskGrid | None = None,
             keep_samples: bool = False) -> VerificationReport:
    """Sample Re( z f' / ((1-lam) f + lam z f') ) and count samples reaching alpha."""
    grid = grid or DiskGrid.default()
    z = grid.points()
    fz, fpz = _on_grid(f, grid, (0, 1))
    den = (1.0 - p.lam) * fz + p.lam * z * fpz
    valid = np.abs(den) >= DEGENERATE_DEN
    quot = np.divide(z * fpz, den, out=np.zeros_like(den), where=valid)
    return _scan(z, quot.real, valid, p.alpha, keep_samples)


def verify_N(f: TruncatedSeries, p: ClassParams, grid: DiskGrid | None = None,
             keep_samples: bool = False) -> VerificationReport:
    """Sample Re( (f' + z f'') / (f' + lam z f'') ) and count samples reaching alpha.

    At lam = 0 the quotient reduces to 1 + z f''/f', the classical convexity
    statistic.
    """
    grid = grid or DiskGrid.default()
    z = grid.points()
    fpz, fppz = _on_grid(f, grid, (1, 2))
    den = fpz + p.lam * z * fppz
    valid = np.abs(den) >= DEGENERATE_DEN
    quot = np.divide(fpz + z * fppz, den, out=np.zeros_like(den), where=valid)
    return _scan(z, quot.real, valid, p.alpha, keep_samples)


def verify_rtau(f: TruncatedSeries, r: RTauParams, grid: DiskGrid | None = None,
                keep_samples: bool = False) -> VerificationReport:
    """Sample |(f' - 1) / ((A-B) tau - B (f' - 1))| and count samples reaching 1."""
    grid = grid or DiskGrid.default()
    z = grid.points()
    w = _on_grid(f, grid, (1,))[0] - 1.0
    den = (r.A - r.B) * r.tau - r.B * w
    valid = np.abs(den) >= DEGENERATE_DEN
    quot = np.divide(w, den, out=np.zeros_like(den), where=valid)
    return _scan(z, np.abs(quot), valid, 1.0, keep_samples)


def samples_to_csv(grid: DiskGrid, report: VerificationReport) -> str:
    """Per-sample CSV ``re,im,value`` (value empty at degenerate samples).

    Requires the report to have been produced with ``keep_samples=True``.
    """
    if report.sample_values is None:
        raise ParameterError("report carries no per-sample values; rerun with keep_samples=True")
    from .formats import rows_csv  # the CLI's renderer, loaded only when asked for
    return rows_csv(("re", "im", "value"), (
        {"re": zk.real, "im": zk.imag, "value": None if np.isnan(vk) else float(vk)}
        for zk, vk in zip(grid.points().tolist(), report.sample_values)))
