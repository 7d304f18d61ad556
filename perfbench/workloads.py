"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

Every workload repeats one round, a fixed list of operations built from the
seed, so each run attempts whole rounds and the share of failed operations
is the same in every run.  Only library calls (or, for cli-mix, child
processes from launch to exit) sit inside the timed intervals; every check
runs after the round, against ``oracle`` or against a property the method
must have.

Known faults.  A few fixed inputs, independent of the seed, reach faults the
ROADMAP names.  Their operations count as failed, labelled with the item, and
leave ``correct`` true; a documented failure (ParameterError/NumericFailure,
exit code 2/3) on those inputs counts as a correct outcome, so a PR that
fixes the fault sees the failed count drop.  On every other input an
operation must succeed and be right, or the run is not correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

now = time.perf_counter

ORDER = 64
CRITERIA = ("M", "N", "integral", "rtau")
TOL_M = 1e-10
#: Radii of the near-boundary disk grid, 96 angles each.
NEAR_RADII = (0.97, 0.98, 0.99, 0.995)


def oracle():
    # imported on first check only, so set-up never pays for mpmath
    import oracle as o

    return o


def attempt(fn, *args):
    """Call into the library; an exception becomes the outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # classified by the checks, never hidden
        return exc


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def median_or_zero(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def keep_best(best: dict, ops: dict) -> None:
    """Fold one round's per-operation times into the fastest seen so far."""
    for key, times in ops.items():
        seen = best.get(key)
        best[key] = times if seen is None else list(map(min, seen, times))


#: Canary work: Touchard-like sums in plain Python, with no containers
#: allocated (so no garbage collection is triggered or inherited).
_CANARY_ROW = (1, 4095, 261625, 2532530, 7508501, 9321312, 5715424, 1899612, 359502, 39325,
               2431, 78, 1)
#: The canary's best time on the machine the benchmark was defined on
#: (2-vCPU Xeon VM): the reference speed of every library timing.
CANARY_US = 20.0


def canary() -> float:
    s = 0.0
    j = 0
    while j < 20:
        x = 1.0 + j * 1e-3
        p = 1.0
        k = 0
        while k < 13:
            s += _CANARY_ROW[k] * p
            p *= x
            k += 1
        j += 1
    return s


def timed(fn, args, times, canaries):
    """Call into the library, then run the canary; record both durations."""
    t0 = now()
    out = attempt(fn, *args)
    t1 = now()
    canary()
    canaries.append(now() - t1)
    times.append(t1 - t0)
    return out


def at_reference_speed(best: dict, key) -> float:
    """Seconds the ``key`` operations of one round take at the reference speed.

    This host's speed swings by up to 2x, for seconds or for minutes at a
    time, so raw timings of the same code drift by 25% between runs.  Two
    things cancel that.  Each operation lasts a few milliseconds and is
    timed alone, and its fastest repetition across rounds is kept.  Right
    after each operation a fixed canary that never touches the library is
    timed too, and its fastest repetitions scale the sum: the result is the
    operations' time at the canary's reference speed, CANARY_US.  Over 150 s
    of shifting load this stayed within 1% while raw best times moved by 20%.
    """
    return sum(best[key]) / sum(best[key + ".canary"]) * len(best[key]) * CANARY_US * 1e-6


#: Wall time of the reference child ``python -c "import numpy"`` on the
#: machine the benchmark was defined on (2-vCPU Xeon VM, median of 265 runs).
REFERENCE_MS = 150.0


def run_child(argv, cwd, env, work):
    """Run one child to exit; returns (wall s, exit code, stdout, stderr, max RSS KiB)."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = now()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss


def reference_ms(argv, cwd, env, work):
    """Wall time of a child in reference units, and the child's outcome.

    The host's process start-up speed drifts by +-25% over seconds, and it
    drifts alike for any child dominated by imports.  So the reference child
    ``python -c "import numpy"`` runs right before, and the child's wall time
    is reported as wall / reference * REFERENCE_MS: its time at the speed the
    reference had when the benchmark was defined.  That ratio holds within
    about 3% where raw wall times swing by 25%.
    """
    ref = run_child(["-c", "import numpy"], cwd, env, work)
    run = run_child(argv, cwd, env, work)
    if ref[1] != 0:
        raise RuntimeError(f"reference child failed: {ref[3]}")
    return run[0] / ref[0] * REFERENCE_MS, run


def tail_percentile(xs):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 40:
        return None
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def fingerprint(x):
    """Everything a check reads from one library result, as a hashable value."""
    if hasattr(x, "coeffs"):
        return x.coeffs.tobytes(), x.nonneg
    return repr(x)


class Tally:
    """Attempted and failed operations; failures outside known faults make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = Counter()
        self.unexpected = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str, fault: str | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if fault:
            self.faults[fault] += 1
            return
        self.unexpected += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.unexpected == 0


def _rtau_inputs(rng):
    tau = complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
    a = rng.uniform(0.2, 1.0)
    return tau, a, rng.uniform(-1.0, a - 0.1)


def _gain(tau, a, b) -> float:
    return (a - b) * abs(tau)


def _documented(exc) -> bool:
    from touchardstar.errors import NumericFailure, ParameterError

    return isinstance(exc, (NumericFailure, ParameterError))


def _report_ok(o, which, l, m, lam, alpha, gain, value, member, bound, sum_route=False):
    """A criterion value and verdict agree with the oracle."""
    if value is None or bound != alpha - 1.0:
        return False
    ref, scale = o.criterion(which, l, m, lam, alpha, gain)
    tol = o.coeff_sum_tol(scale) if sum_route else o.closed_form_tol(l, scale)
    return o.value_ok(value, ref, tol) and o.verdict_ok(member, value, bound, ref, tol)


def _straddles(o, which, l, lam, alpha, gain, m_star) -> bool:
    """The exact criterion is at or below the bound just left of m_star and above it just right."""
    bound = o.MP.mpf(alpha) - 1
    lo, _ = o.criterion(which, l, m_star * (1 - 1e-5), lam, alpha, gain)
    hi, _ = o.criterion(which, l, m_star * (1 + 1e-5), lam, alpha, gain)
    return lo <= bound < hi


class Workload:
    """One workload: ``warm`` is the set-up, ``round`` the timed work."""

    name = ""

    #: True when ``round`` itself drives the tracer (cli-mix traces an
    #: in-process pass); otherwise the runner traces every other round.
    traces_in_round = False

    def __init__(self, seed: int, root: str, work_dir: str):
        self.seed = seed
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work_dir
        self.rng = random.Random(seed)

    def warm(self) -> None:
        raise NotImplementedError

    def round(self, tracer=None) -> dict:
        raise NotImplementedError

    def check(self, rec: dict, tally: Tally) -> None:
        """Tally every operation of a round.

        Rounds repeat the same inputs, so a unit of operations whose outputs
        match an earlier round's reuses that round's verdicts; the oracle
        runs once per distinct output.
        """
        memo = self.__dict__.setdefault("_verdicts", {})
        for key, fault, judge in self.units(rec):
            verdicts = memo.get(key)
            if verdicts is None:
                verdicts = memo[key] = judge()
            for ok, what in verdicts:
                tally.op(ok, what, fault)

    def units(self, rec: dict):
        """(key, fault label, judge) per unit; judge() lists (ok, what) per operation."""
        raise NotImplementedError

    def e2e(self, recs: list, best: dict) -> tuple[dict, list]:
        """End-to-end metrics and readable lines, from the round records and
        each operation's fastest time (``keep_best``)."""
        raise NotImplementedError

    def peak_rss_mib(self, recs: list) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layers(self, recs: list, best: dict) -> dict:
        return {}


# ---------------------------------------------------------------- explore-grid


class ExploreGrid(Workload):
    """Closed-form sweeps over all four criteria plus threshold solves."""

    name = "explore-grid"
    THRESHOLD_L = (0, 3, 6, 9, 12)
    # of the 4 x 4 (lambda, alpha) pairs only lambda = 0.75, alpha = 4/3 has
    # 1 - alpha*lambda <= 0, whatever the seed
    THRESHOLDS_PER_ROUND = len(CRITERIA) * len(THRESHOLD_L) * 15

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        rng = self.rng
        self.alpha = sorted(rng.uniform(1.02, 1.30) for _ in range(3)) + [4.0 / 3.0]
        # lambda = 0.75 puts alpha*lambda at 1 (alpha = 4/3) and near 1 (others)
        self.lam = sorted(rng.uniform(0.0, 0.70) for _ in range(3)) + [0.75]
        self.m = [2.0 ** (k + rng.random()) for k in range(-10, 10)]
        self.rtau = _rtau_inputs(rng)

    def _grid(self, which, l, m, lam, alpha, rtau):
        grid = {"l": l, "m": m, "lambda": lam, "alpha": alpha}
        if which == "rtau":
            tau, a, b = rtau
            grid.update(tau=[tau], A=[a], B=[b])
        return grid

    def warm(self):
        import numpy as np
        from touchardstar import explore
        from touchardstar.criteria import ClassParams, RTauParams

        self.explore = explore
        # (criterion, grid, fault label or None, gain)
        # one sweep per (criterion, l, lambda): 80 rows, a few milliseconds each
        self.sweeps = []
        for which in CRITERIA:
            gain = _gain(*self.rtau) if which == "rtau" else 1.0
            for l in range(13):
                for lam in self.lam:
                    self.sweeps.append((which, self._grid(which, [l], self.m, [lam], self.alpha,
                                                          self.rtau), None, gain))
        # ROADMAP 3a: inf - inf in the closed form comes back as NaN with status ok
        for which in CRITERIA:
            for l in (30, 60):
                self.sweeps.append((which, self._grid(which, [l], [2.0 ** k for k in range(10, 35)],
                                                      [0.25], [1.2], (1.0, 1.0, -1.0)),
                                    "ROADMAP-3a", 2.0 if which == "rtau" else 1.0))
        # ROADMAP 4: an np.arange grid hands l over as np.int64, which is rejected
        for which in CRITERIA:
            self.sweeps.append((which, self._grid(which, np.arange(0, 4), [0.5, 2.0], [0.25], [1.2],
                                                  (1.0, 1.0, -1.0)), "ROADMAP-4",
                                2.0 if which == "rtau" else 1.0))
        rt = RTauParams(*self.rtau)
        self.solves = [
            (which, l, lam, alpha, ClassParams(lam, alpha), rt if which == "rtau" else None)
            for which in CRITERIA for l in self.THRESHOLD_L
            for lam in self.lam for alpha in self.alpha if 1.0 - alpha * lam > 0
        ]
        if len(self.solves) != self.THRESHOLDS_PER_ROUND:
            raise RuntimeError("threshold point count must not depend on the seed")
        self.rows = sum(math.prod(len(v) for v in g.values()) for _, g, _, _ in self.sweeps)
        explore.sweep("M", self._grid("M", [0, 12], self.m[:2], self.lam[:1], self.alpha[:1], None))
        explore.find_threshold("M", 12, self.solves[0][4])

    def round(self, tracer=None):
        sweep, find = self.explore.sweep, self.explore.find_threshold
        ops = {"sweep": [], "sweep.canary": [], "threshold": [], "threshold.canary": []}
        tables = [timed(sweep, (which, grid), ops["sweep"], ops["sweep.canary"])
                  for which, grid, _, _ in self.sweeps]
        results = [timed(find, (which, l, p, rt, TOL_M), ops["threshold"], ops["threshold.canary"])
                   for which, l, _, _, p, rt in self.solves]
        return {"elapsed": sum(ops["sweep"]) + sum(ops["threshold"]), "ops": ops,
                "tables": tables, "results": results}

    def units(self, rec):
        for i, (sweep, table) in enumerate(zip(self.sweeps, rec["tables"])):
            yield ("sweep", i, fingerprint(table)), sweep[2], lambda i=i, t=table: \
                self._judge_sweep(i, t)
        for j, res in enumerate(rec["results"]):
            yield ("solve", j, fingerprint(res)), None, lambda j=j, r=res: \
                [self._judge_solve(j, r)]

    def _judge_sweep(self, i, table):
        o = oracle()
        which, grid, fault, gain = self.sweeps[i]
        points = list(itertools.product(*(list(grid[n]) for n in ("l", "m", "lambda", "alpha"))))
        if isinstance(table, Exception) or len(table.rows) != len(points):
            return [(False, f"sweep {which} {grid}: {table!r}")] * len(points)
        # every row against the properties; every known-fault row and a
        # seeded eighth of the others against the oracle
        sample = random.Random(self.seed * 7919 + i)
        out = []
        for (l, m, lam, alpha), row in zip(points, table.rows):
            ok = (row["l"] == l and row["m"] == m and row["lambda"] == lam
                  and row["alpha"] == alpha)
            status, value = row["status"], row["criterion_value"]
            if status == "ok":
                ok = ok and value is not None and not math.isnan(value) and \
                    row["member"] is (value <= row["bound"] + o.TOL_EQ)
                if ok and (fault or sample.random() < 0.125):
                    ok = _report_ok(o, which, int(l), m, lam, alpha, gain, value,
                                    row["member"], row["bound"])
            else:
                ok = ok and fault == "ROADMAP-3a" and status == "numeric_failure"
            out.append((ok, None if ok else f"sweep {which} row {row}"))
        return out

    def _judge_solve(self, j, res):
        o = oracle()
        which, l, lam, alpha, _, _ = self.solves[j]
        gain = _gain(*self.rtau) if which == "rtau" else 1.0
        ok = not isinstance(res, Exception)
        if ok:
            lo, hi = res.bracket
            ok = (lo <= res.m_star <= hi and 0 < hi - lo <= TOL_M
                  and _straddles(o, which, l, lam, alpha, gain, res.m_star))
        return ok, None if ok else f"threshold {which} l={l} lam={lam} alpha={alpha}: {res!r}"

    def e2e(self, recs, best):
        sweep_rate = self.rows / at_reference_speed(best, "sweep")
        solve_rate = self.THRESHOLDS_PER_ROUND / at_reference_speed(best, "threshold")
        lines = [
            f"sweep_points_per_s = {sweep_rate:.1f} 1/s at reference speed ({self.rows} rows in "
            f"{len(self.sweeps)} sweeps, best of {len(recs)} rounds; raw "
            f"{self.rows / sum(best['sweep']):.1f}) -> primary_per_s",
            f"threshold_solves_per_s = {solve_rate:.2f} 1/s at reference speed, tol_m={TOL_M:g} "
            f"({self.THRESHOLDS_PER_ROUND} solves, best of {len(recs)} rounds; raw "
            f"{self.THRESHOLDS_PER_ROUND / sum(best['threshold']):.2f}) -> secondary_per_s",
        ]
        return {"primary_per_s": sweep_rate, "secondary_per_s": solve_rate}, lines


# ------------------------------------------------------------------ coeff-disk


class CoeffDisk(Workload):
    """Coefficient route (series moments, kernels, operators, sums) plus disk sampling."""

    name = "coeff-disk"
    POINTS = 60
    # (l, m, lambda, alpha, fault label or None); rtau uses tau = 1, A = 1, B = -1
    FIXED = (
        (1, 2.0, 0.75, 4.0 / 3.0, None),  # weights all -1/3: a vacuous verdict the disk refutes
        (0, 800.0, 0.0, 4.0 / 3.0, "ROADMAP-3b"),  # exp(-m) underflows, every coefficient is 0
        (1, 50.0, 0.0, 4.0 / 3.0, "ROADMAP-3c"),  # order-64 sum 5.5% short, no bound reported
    )

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        rng = self.rng
        # stratified, so every seed carries the same mix of work: each l in
        # 0..6 about equally often, and one m in each of 60 equal slices of
        # log2 m over [-4, log2 20], paired with the l values at random
        lo, hi = -4.0, math.log2(20.0)
        slices = list(range(self.POINTS))
        rng.shuffle(slices)
        self.points = []
        for i, k in enumerate(slices):
            m = 2.0 ** (lo + (hi - lo) * (k + rng.random()) / self.POINTS)
            self.points.append((i % 7, m, rng.uniform(0.0, 0.7), rng.uniform(1.02, 4.0 / 3.0),
                                _rtau_inputs(rng), None))
        for l, m, lam, alpha, fault in self.FIXED:
            self.points.append((l, m, lam, alpha, (1.0, 1.0, -1.0), fault))

    def warm(self):
        import numpy as np
        from touchardstar import criteria, disk, moments, series
        from touchardstar.criteria import ClassParams, RTauParams
        from touchardstar.disk import DiskGrid
        from touchardstar.moments import TouchardParams

        self.mods = (moments, series, criteria, disk)
        self.geometric = series.TruncatedSeries(np.ones(ORDER))
        self.grids = (None, DiskGrid(NEAR_RADII, 96))
        self.grid_sizes = (DiskGrid.default().size, self.grids[1].size)
        self.params = [(TouchardParams(l, m), ClassParams(lam, alpha), RTauParams(*rt))
                       for l, m, lam, alpha, rt, _ in self.points]
        self.samples = len(self.points) * 3 * sum(self.grid_sizes)
        self._one(self.points[0], self.params[0], {k: [] for k in self.OPS})

    OPS = ("coeff", "coeff.canary", "disk", "disk.canary")

    def _one(self, point, params, ops):
        moments, series, criteria, disk = self.mods
        l, m = point[0], point[1]
        tp, p, r = params
        t0 = now()
        closed = attempt(moments.poisson_moment_closed, l, m)
        summed = attempt(moments.poisson_moment_series, l, m)
        f = attempt(series.touchard_series, tp, ORDER)
        lf = attempt(series.apply_operator_L, tp, ORDER)
        lif = attempt(series.apply_operator_I, tp, lf)
        had = attempt(series.hadamard, f, self.geometric)
        sum_m = attempt(criteria.lemma_sum_M, f, p)
        sum_n = attempt(criteria.lemma_sum_N, f, p)
        t1 = now()
        canary()
        ops["coeff.canary"].append(now() - t1)
        ops["coeff"].append(t1 - t0)
        scans = [timed(verify, (f, arg, grid), ops["disk"], ops["disk.canary"])
                 for grid in self.grids
                 for verify, arg in ((disk.verify_M, p), (disk.verify_N, p), (disk.verify_rtau, r))]
        return closed, summed, f, lf, lif, had, sum_m, sum_n, scans

    def round(self, tracer=None):
        ops = {k: [] for k in self.OPS}
        outs = [self._one(point, params, ops) for point, params in zip(self.points, self.params)]
        return {"elapsed": sum(ops["coeff"]) + sum(ops["disk"]), "ops": ops, "outs": outs}

    def units(self, rec):
        for i, out in enumerate(rec["outs"]):
            key = (i,) + tuple(fingerprint(x) for x in out[:8]) + tuple(map(fingerprint, out[8]))
            yield key, self.points[i][5], lambda i=i, out=out: self._judge_point(i, out)

    def _judge_point(self, i, out):
        o = oracle()
        l, m, lam, alpha, (tau, a, b), fault = self.points[i]
        closed, summed, f, lf, lif, had, sum_m, sum_n, scans = out
        where = f"l={l} m={m} lam={lam} alpha={alpha}"
        verdicts = []

        def op(ok, what):
            verdicts.append((ok, None if ok else what))

        ref_t = o.touchard(l, m)
        ok = not isinstance(closed, Exception) and o.value_ok(
            closed.value, ref_t, o.closed_form_tol(l, float(ref_t)))
        if isinstance(summed, Exception):
            ok = ok and fault is not None and _documented(summed)
        else:
            # ratio-generated terms carry about 3 roundings per step
            tol = summed.tail_bound + 4 * summed.truncation_terms * (l + 3) * o.U * float(ref_t)
            ok = ok and o.value_ok(summed.value, ref_t, tol)
        op(ok, f"moments {where}: {closed!r} {summed!r}")

        ref = o.kernel(l, m, ORDER)
        ok_f = not isinstance(f, Exception) and f.order == ORDER and f.nonneg \
            and o.coeffs_ok(f.coeffs, ref, l)
        op(ok_f, f"kernel {where}")

        ok = not any(isinstance(x, Exception) for x in (lf, lif, had))
        if ok:
            ref_l = [c / n for n, c in enumerate(ref, start=1)]
            ok = (o.coeffs_ok(lf.coeffs, ref_l, l + 1)
                  and o.coeffs_ok(lif.coeffs, [x * y for x, y in zip(ref, ref_l)], l + 2)
                  and ok_f and list(had.coeffs) == list(f.coeffs))
        op(ok, f"operators {where}")

        for which, rep in (("M", sum_m), ("N", sum_n)):
            if isinstance(rep, Exception):
                ok = fault is not None and _documented(rep)
            else:
                ok = _report_ok(o, which, l, m, lam, alpha, 1.0, rep.criterion_value,
                                rep.member, rep.bound, sum_route=True)
            op(ok, f"coefficient sum {which} {where}: {rep!r}")

        # weights w(n) >= 0 for every n >= 2 iff w(2) >= 0 and 1 - alpha*lam >= 0
        sound = 2 - (1 + lam) * alpha >= 0 and 1 - alpha * lam >= 0
        kinds = ("M", "N", "rtau") * 2
        for k, (kind, scan) in enumerate(zip(kinds, scans)):
            size = self.grid_sizes[k // 3]
            cert = {"M": sum_m, "N": sum_n}.get(kind)
            ok = self._scan_ok(o, kind, scan, size, f, lam, alpha, tau, a, b)
            if ok and sound and cert is not None and not isinstance(cert, Exception) \
                    and cert.member:
                ok = scan.violations == 0
            if ok and (l, m, lam) == (1, 2.0, 0.75) and kind == "M":
                ok = scan.violations > 0
            op(ok, f"verify_{kind} grid {k // 3} {where}: {scan!r}")
        return verdicts

    @staticmethod
    def _scan_ok(o, kind, scan, size, f, lam, alpha, tau, a, b) -> bool:
        if isinstance(scan, Exception) or isinstance(f, Exception) or scan.samples != size:
            return False
        if scan.max_real_part is None:
            return scan.degenerate_samples == size and scan.violations == 0
        stat, tol = o.quotient(kind, tuple(float(c) for c in f.coeffs),
                                      complex(scan.arg_of_max), lam, alpha, tau, a, b)
        if stat is None or abs(stat - scan.max_real_part) > tol:
            return False
        bound = 1.0 if kind == "rtau" else alpha
        return (scan.violations > 0) is (scan.max_real_part >= bound - o.TOL_V)

    def e2e(self, recs, best):
        points = len(self.points)
        coeff_rate = points / at_reference_speed(best, "coeff")
        disk_rate = self.samples / at_reference_speed(best, "disk")
        lines = [
            f"coeff_points_per_s = {coeff_rate:.1f} 1/s at reference speed ({points} points, "
            f"best of {len(recs)} rounds; raw {points / sum(best['coeff']):.1f}) -> primary_per_s",
            f"disk_samples_per_s = {disk_rate:.0f} 1/s at reference speed ({self.samples} samples "
            f"in {6 * points} scans, best of {len(recs)} rounds; raw "
            f"{self.samples / sum(best['disk']):.0f}) -> secondary_per_s",
        ]
        return {"primary_per_s": coeff_rate, "secondary_per_s": disk_rate}, lines


# --------------------------------------------------------------------- cli-mix


class CliMix(Workload):
    """Closed loop, one client: ``python -m touchardstar`` children run one at a time."""

    name = "cli-mix"
    traces_in_round = True
    #: 1800-point sweeps: every criterion in both output formats
    SWEEPS = tuple((which, fmt) for which in CRITERIA for fmt in ("csv", "json"))

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        rng = self.rng
        self.l = rng.randint(0, 6)
        self.m = 2.0 ** rng.uniform(-4.0, 3.0)
        self.lam = rng.uniform(0.0, 0.7)
        self.alpha = rng.uniform(1.02, 4.0 / 3.0)
        self.tau, self.A, self.B = _rtau_inputs(rng)
        self.thr = (rng.choice(CRITERIA[:3]), rng.randint(0, 12))
        self.sweep_axes = {
            "l": [0, 3, 6, 9, 12],
            "m": [2.0 ** (k / 1.5 + rng.random() / 1.5) for k in range(-15, 15)],
            "lambda": sorted(rng.uniform(0.0, 0.7) for _ in range(3)),
            "alpha": sorted(rng.uniform(1.02, 4.0 / 3.0) for _ in range(4)),
        }
        self.commands = self._commands()

    def _commands(self):
        r = repr
        cls = [f"--lambda={r(self.lam)}", f"--alpha={r(self.alpha)}"]
        tau = f"--tau={self.tau.real!r}{self.tau.imag:+.17g}j"
        rt = [tau, f"--A={r(self.A)}", f"--B={r(self.B)}"]
        lm = [f"--l={self.l}", f"--m={r(self.m)}"]
        touch = ["--touchard", str(self.l), r(self.m)]
        cmds = [
            ("moment", ["moment", *lm], None),
            ("coeffs", ["coeffs", *lm, "--order=64"], None),
            ("check-class", ["check-class", "--class=Nstar", *cls, *touch], None),
        ]
        for which in CRITERIA:
            cmds.append(("check-theorem", ["check-theorem", f"--which={which}", *lm, *cls,
                                           *(rt if which == "rtau" else [])], None))
        which, l = self.thr
        cmds += [
            ("threshold", ["threshold", f"--which={which}", f"--l={l}", *cls], None),
            ("verify-disk", ["verify-disk", "--which=M", *cls, *touch], None),
        ]
        cmds += [("sweep", ["sweep", f"--spec={self.spec_path(which)}", f"--format={fmt}"], None)
                 for which, fmt in self.SWEEPS]
        cmds += [
            ("check-theorem", ["check-theorem", "--which=M", "--l=60", "--m=1e7", "--lambda=0",
                               "--alpha=1.2"], "ROADMAP-3a"),
            ("check-class", ["check-class", "--class=Mstar", "--lambda=0", "--alpha=4/3",
                             "--touchard", "0", "800"], "ROADMAP-3b"),
            ("check-class", ["check-class", "--class=Mstar", "--lambda=0", "--alpha=4/3",
                             "--touchard", "1", "50"], "ROADMAP-3c"),
        ]
        return cmds

    def spec_path(self, which):
        return os.path.join(self.work, f"sweep-{which}-seed{self.seed}.json")

    def warm(self):
        from touchardstar import cli

        self.cli = cli
        for which in CRITERIA:
            spec = {"criterion": which, **self.sweep_axes}
            if which == "rtau":
                spec.update(tau=[f"{self.tau.real!r}{self.tau.imag:+.17g}j"], A=[self.A],
                            B=[self.B])
            with open(self.spec_path(which), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        cli.build_parser()

    def round(self, tracer=None):
        env = dict(os.environ, PYTHONPATH=self.src)
        ms, runs = [], []
        for _, argv, _ in self.commands:
            t, run = reference_ms(["-m", "touchardstar", *argv], self.root, env, self.work)
            ms.append(t)
            runs.append(run)
        rec = {"elapsed": sum(r[0] for r in runs), "ms": ms, "wall": [r[0] for r in runs],
               "rss": [r[4] for r in runs], "runs": runs}
        if tracer is not None:
            _, code, _, stderr, _ = run_child(["-X", "importtime", "-m", "touchardstar",
                                               "--version"], self.root, env, self.work)
            rec["importtime"] = _importtime(stderr) if code == 0 else (0.0, 0.0)
            plain, _ = self._in_process(None)
            traced, rec["bytes_out"] = self._in_process(tracer)
            rec["ops"] = {"plain": plain, "traced": traced}
            tracer.fold()
        return rec

    def _in_process(self, tracer):
        """The mix through ``cli.main`` in this process, stdout captured;
        returns each command's time and the bytes written."""
        times, size = [], 0
        if tracer is not None:
            tracer.install()
        try:
            for _, argv, _ in self.commands:
                buf = io.StringIO()
                t0 = now()
                try:
                    with contextlib.redirect_stdout(buf), \
                            contextlib.redirect_stderr(io.StringIO()):
                        self.cli.main(argv)
                except Exception:  # the ROADMAP-3a traceback; checked in the child run
                    pass
                times.append(now() - t0)
                size += len(buf.getvalue().encode("utf-8"))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times, size

    def units(self, rec):
        for k, ((name, argv, fault), (_, code, out, err, _)) in enumerate(
                zip(self.commands, rec["runs"])):
            yield (k, code, out), fault, lambda name=name, argv=argv, fault=fault, code=code, \
                out=out, err=err: [self._judge_command(name, argv, fault, code, out, err)]

    def _judge_command(self, name, argv, fault, code, out, err):
        o = oracle()
        if fault:
            ok = code in (2, 3) or (code == 0 and self._fault_output_ok(o, argv, out))
        else:
            ok = code == 0 and self._output_ok(o, name, argv, out)
        return ok, None if ok else f"{' '.join(argv)} exited {code}: {out[:200]!r} {err[-300:]!r}"

    def _fault_output_ok(self, o, argv, out):
        rep = _json(out)
        if rep is None:
            return False
        if argv[0] == "check-theorem":
            return _report_ok(o, "M", 60, 1e7, 0.0, 1.2, 1.0, rep["criterion_value"],
                              rep["member"], rep["bound"])
        l, m = int(argv[-2]), float(argv[-1])
        return _report_ok(o, "M", l, m, 0.0, 4.0 / 3.0, 1.0, rep["criterion_value"],
                          rep["member"], rep["bound"], sum_route=True)

    def _output_ok(self, o, name, argv, out):
        l, m, lam, alpha = self.l, self.m, self.lam, self.alpha
        if name == "coeffs":
            lines = out.splitlines()
            if not lines or lines[0] != "n,a_n":
                return False
            rows = [line.split(",") for line in lines[1:]]
            return [int(r[0]) for r in rows] == list(range(1, ORDER + 1)) and \
                o.coeffs_ok([float(r[1]) for r in rows], o.kernel(l, m, ORDER), l)
        if name == "sweep":
            which = next(w for w in CRITERIA if argv[1] == f"--spec={self.spec_path(w)}")
            fmt = argv[2].removeprefix("--format=")
            if fmt == "csv":
                return self._sweep_ok(o, which, list(csv.DictReader(io.StringIO(out))), True)
            rep = _json(out)
            return rep is not None and rep["criterion"] == which and \
                self._sweep_ok(o, which, rep["rows"], False)
        rep = _json(out)
        if rep is None:
            return False
        if name == "moment":
            ref = o.touchard(l, m)
            return rep["method"] == "closed_form" and o.value_ok(
                rep["value"], ref, o.closed_form_tol(l, float(ref)))
        if name == "check-class":
            return _report_ok(o, "N", l, m, lam, alpha, 1.0, rep["criterion_value"],
                              rep["member"], rep["bound"], sum_route=True)
        if name == "check-theorem":
            which = argv[1].split("=")[1]
            gain = _gain(self.tau, self.A, self.B) if which == "rtau" else 1.0
            return _report_ok(o, which, l, m, lam, alpha, gain, rep["criterion_value"],
                              rep["member"], rep["bound"])
        if name == "threshold":
            which, tl = self.thr
            lo, hi = rep["bracket"]
            return lo <= rep["m_star"] <= hi and 0 < hi - lo <= TOL_M and \
                _straddles(o, which, tl, lam, alpha, 1.0, rep["m_star"])
        if name == "verify-disk":
            coeffs = tuple(float(c) for c in o.kernel(l, m, ORDER))
            if rep["samples"] != 19 * 96 or rep["max_real_part"] is None:
                return False
            z = complex(rep["arg_of_max"]["re"], rep["arg_of_max"]["im"])
            stat, tol = o.quotient("M", coeffs, z, lam, alpha, 1.0, 1.0, -1.0)
            return stat is not None and abs(stat - rep["max_real_part"]) <= tol and \
                (rep["violations"] > 0) is (rep["max_real_part"] >= alpha - o.TOL_V)
        return False

    def _sweep_ok(self, o, which, rows, csv_cells):
        axes = self.sweep_axes
        points = list(itertools.product(axes["l"], axes["m"], axes["lambda"], axes["alpha"]))
        if len(rows) != len(points):
            return False
        sample = random.Random(self.seed)
        gain = _gain(self.tau, self.A, self.B) if which == "rtau" else 1.0
        for (l, m, lam, alpha), row in zip(points, rows):
            if csv_cells:
                if row["status"] != "ok" or row["member"] not in ("true", "false"):
                    return False
                row = {"l": int(row["l"]), "m": float(row["m"]), "lambda": float(row["lambda"]),
                       "alpha": float(row["alpha"]), "criterion_value": float(row["criterion_value"]),
                       "bound": float(row["bound"]), "member": row["member"] == "true",
                       "status": "ok"}
            if (row["status"], row["l"], row["m"], row["lambda"], row["alpha"]) != \
                    ("ok", l, m, lam, alpha):
                return False
            value = row["criterion_value"]
            if not (math.isfinite(value) and row["member"] is (value <= row["bound"] + o.TOL_EQ)):
                return False
            # every row against the properties, a fixed seeded 64 against the oracle
            if sample.random() < 64 / len(points) and not _report_ok(
                    o, which, l, m, lam, alpha, gain, value, row["member"], row["bound"]):
                return False
        return True

    def e2e(self, recs, best):
        point = [t for rec in recs for (n, _, _), t in zip(self.commands, rec["ms"]) if n != "sweep"]
        sweep = [t for rec in recs for (n, _, _), t in zip(self.commands, rec["ms"]) if n == "sweep"]
        raw = [t * 1e3 for rec in recs for (n, _, _), t in zip(self.commands, rec["wall"])
               if n != "sweep"]
        p50, s50 = statistics.median(point), statistics.median(sweep)
        lines = [f"cli_point_ms_p50 = {p50:.2f} ms at reference speed (n={len(point)}; raw wall "
                 f"p50 {statistics.median(raw):.2f} ms) -> primary_per_s = 1000/p50",
                 f"cli_sweep_ms_p50 = {s50:.2f} ms at reference speed (n={len(sweep)}) "
                 "-> secondary_per_s = 1000/p50"]
        for label, xs in (("cli_point_ms", point), ("cli_sweep_ms", sweep)):
            tail = tail_percentile(xs)
            if tail:
                lines.append(f"{label}_p{tail[0]} = {tail[1]:.2f} ms (reference only, "
                             f"n={len(xs)})")
        return {"primary_per_s": 1000.0 / p50, "secondary_per_s": 1000.0 / s50}, lines

    def peak_rss_mib(self, recs):
        return max(max(rec["rss"]) for rec in recs) / 1024.0

    def layers(self, recs, best):
        out = {}
        by_name = defaultdict(list)
        for rec in recs:
            for (name, _, _), t in zip(self.commands, rec["ms"]):
                by_name[name].append(t)
        for name in ("moment", "coeffs", "check-class", "check-theorem", "threshold",
                     "verify-disk", "sweep"):
            out[f"cli.{name}.ms_p50"] = median_or_zero(by_name[name])
        traced = [r for r in recs if "importtime" in r]
        out["cli.import_ms"] = median_or_zero([r["importtime"][0] for r in traced])
        out["cli.numpy_import_ms"] = median_or_zero([r["importtime"][1] for r in traced])
        out["formats.bytes_out"] = traced[0]["bytes_out"] if traced else 0
        out["trace.overhead_pct"] = 100.0 * (
            sum(best["traced"]) / sum(best["plain"]) - 1.0) if traced else 0.0
        return out


def _json(text):
    """The single canonical JSON line of a command, or None if it is not one."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if text == canonical(obj) + "\n" else None


def _importtime(stderr: str):
    """(ms to import the touchardstar package and its CLI, ms to import numpy)."""
    pkg = numpy = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        if name.startswith("touchardstar"):
            pkg += int(parts[1]) / 1e3
        elif name.strip() == "numpy" and not numpy:
            numpy = int(parts[1]) / 1e3
    return pkg, numpy


WORKLOADS = {w.name: w for w in (ExploreGrid, CoeffDisk, CliMix)}
