"""End-to-end and per-layer benchmark of touchardstar.

    python3 perfbench/run.py --workload explore-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload in turn
    python3 perfbench/run.py --workload coeff-disk --trace 1  # per-layer metrics

Runs from any directory; the library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  Each workload
prints provenance, its known-fault counts and readable metric lines, then as
its last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: Set-up is timed this many times per run, in fresh interpreters spread
#: over the run; the median is reported.
SETUP_SAMPLES = 7

E2E_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "primary_per_s": "1/s",
             "secondary_per_s": "1/s"}


def _span(name, key):
    return lambda f: f.get(name, {}).get(key, 0)


def _counter(key):
    return lambda f: f["counters"].get(key, 0)


def _evals_per_solve(f):
    solves = f.get("explore.threshold", {}).get("calls", 0)
    return f["explore.threshold.criterion_evals"] / solves if solves else 0.0


#: Per-layer metrics taken from the spans of one traced round (name, unit, extractor).
SPAN_METRICS = [
    ("moments.closed.calls", "count", _span("moments.closed", "calls")),
    ("moments.closed.self_ms", "ms", _span("moments.closed", "self_ms")),
    ("moments.tail.calls", "count", _span("moments.tail", "calls")),
    ("criteria.closed.calls", "count", _span("criteria.closed", "calls")),
    ("criteria.closed.self_ms", "ms", _span("criteria.closed", "self_ms")),
    ("explore.sweep.rows", "count", _counter("explore.sweep.rows")),
    ("explore.sweep.self_ms", "ms", _span("explore.sweep", "self_ms")),
    ("explore.threshold.criterion_evals", "count", lambda f: f["explore.threshold.criterion_evals"]),
    ("explore.threshold.evals_per_solve", "evals/solve", _evals_per_solve),
    ("explore.threshold.self_ms", "ms", _span("explore.threshold", "self_ms")),
    ("moments.series.calls", "count", _span("moments.series", "calls")),
    ("moments.series.self_ms", "ms", _span("moments.series", "self_ms")),
    ("moments.series.terms", "count", _counter("moments.series.terms")),
    ("series.kernel.calls", "count", _span("series.kernel", "calls")),
    ("series.kernel.self_ms", "ms", _span("series.kernel", "self_ms")),
    ("series.kernel.coeffs", "count", _counter("series.kernel.coeffs")),
    ("series.operators.self_ms", "ms", _span("series.operators", "self_ms")),
    ("criteria.coeff_sum.calls", "count", _span("criteria.coeff_sum", "calls")),
    ("criteria.coeff_sum.self_ms", "ms", _span("criteria.coeff_sum", "self_ms")),
    ("criteria.coeff_sum.terms", "count", _counter("criteria.coeff_sum.terms")),
    ("series.evaluate.calls", "count", _span("series.evaluate", "calls")),
    ("series.evaluate.points", "count", _counter("series.evaluate.points")),
    ("series.evaluate.self_ms", "ms", _span("series.evaluate", "self_ms")),
    ("disk.verify.calls", "count", _span("disk.verify", "calls")),
    ("disk.verify.self_ms", "ms", _span("disk.verify", "self_ms")),
    ("disk.samples", "count", _counter("disk.samples")),
    ("disk.degenerate_samples", "count", _counter("disk.degenerate_samples")),
    ("formats.render_ms", "ms", _span("formats.render", "self_ms")),
]

#: Per-layer metrics measured outside the spans: CLI children, importtime,
#: captured output, and the cost of tracing itself.
OTHER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.moment.ms_p50": "ms",
    "cli.coeffs.ms_p50": "ms",
    "cli.check-class.ms_p50": "ms",
    "cli.check-theorem.ms_p50": "ms",
    "cli.threshold.ms_p50": "ms",
    "cli.verify-disk.ms_p50": "ms",
    "cli.sweep.ms_p50": "ms",
    "formats.bytes_out": "bytes",
    "trace.overhead_pct": "%",
}

LAYER_UNITS = {name: unit for name, unit, _ in SPAN_METRICS} | OTHER_LAYER_UNITS


def time_setup(workload: str, seed: int) -> float:
    """Seconds, at reference speed, of a fresh interpreter that imports the
    library and warms the workload up (see ``workloads.reference_ms``)."""
    from workloads import reference_ms

    ms, (_, code, _, err, _) = reference_ms(
        [str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed",
         str(seed)], str(ROOT), dict(os.environ), str(WORK))
    if code != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{err}")
    return ms / 1e3


def provenance(name: str, seed: int, tally) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": name,
        "seed": seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Tally, at_reference_speed, keep_best

    setup = [] if trace else [time_setup(name, seed)]
    wl = WORKLOADS[name](seed, str(ROOT), str(WORK))
    wl.warm()
    tracer = Tracer() if trace else None
    tally = Tally()
    recs = []
    best = {False: {}, True: {}}  # fastest time per operation, untraced and traced rounds
    measured = 0.0
    # whole rounds only, so every run fails the same share of its operations
    while not recs or measured < seconds or (trace and len(recs) < 2):
        gc.collect()
        traced = trace and not wl.traces_in_round and len(recs) % 2 == 1
        if traced:
            tracer.install()
        try:
            rec = wl.round(tracer if trace and wl.traces_in_round else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.fold()
        wl.check(rec, tally)
        keep_best(best[traced], rec.pop("ops", {}))
        for bulky in ("tables", "results", "outs", "runs"):
            rec.pop(bulky, None)
        recs.append(rec)
        measured += rec["elapsed"]
        if len(setup) < SETUP_SAMPLES and not trace:
            setup.append(time_setup(name, seed))
    while len(setup) < SETUP_SAMPLES and not trace:
        setup.append(time_setup(name, seed))

    lines = []
    if trace:
        summary = tracer.summary()
        metrics = {n: fn(summary) for n, _, fn in SPAN_METRICS}
        metrics |= {n: 0 for n in OTHER_LAYER_UNITS}
        if not wl.traces_in_round:
            keys = [k for k in best[True] if not k.endswith(".canary")]
            metrics["trace.overhead_pct"] = 100.0 * (
                sum(at_reference_speed(best[True], k) for k in keys)
                / sum(at_reference_speed(best[False], k) for k in keys) - 1.0)
        metrics |= wl.layers(recs, best[False])
        units = LAYER_UNITS
        spans_path = WORK / f"spans-{name}-seed{seed}.csv"
        kept = tracer.write(spans_path)
        lines.append(f"spans of the first traced round: {kept} written to "
                     f"{spans_path.relative_to(ROOT)}")
        lines.append(f"tracing cost: traced rounds take {metrics['trace.overhead_pct']:.1f}% "
                     "longer than untraced ones of the same run")
    else:
        metrics, lines = wl.e2e(recs, best[False])
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mib"] = wl.peak_rss_mib(recs)
        lines.append(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh "
                     "interpreters: import plus warm-up)")
        units = E2E_UNITS
    return {
        "provenance": provenance(name, seed, tally),
        "faults": dict(sorted(tally.faults.items())),
        "problems": tally.problems,
        "lines": lines + [f"{k} = {metrics[k]:.6g} {units[k]}" for k in units],
        "rounds": len(recs),
        "result": {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore-grid", "coeff-disk", "cli-mix", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed work per run; whole rounds are always completed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "touchardstar" / "__init__.py").is_file():
        print(f"error: no touchardstar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import touchardstar

    if Path(touchardstar.__file__).resolve().parent != SRC / "touchardstar":
        print(f"error: imported touchardstar from {touchardstar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, str(ROOT), str(WORK)).warm()
        return 0

    names = ("explore-grid", "coeff-disk", "cli-mix") if args.workload == "all" else (args.workload,)
    for name in names:
        out = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name}, seed {args.seed}, {out['rounds']} rounds")
        print("provenance " + json.dumps(out["provenance"], sort_keys=True))
        print("known_faults " + json.dumps(out["faults"], sort_keys=True))
        for problem in out["problems"]:
            print(f"unexpected failure: {problem}", file=sys.stderr)
        for line in out["lines"]:
            print(line)
        print(json.dumps(out["result"], sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
