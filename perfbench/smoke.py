"""Smoke test of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

Runs each workload for a single round (two when traced), untraced and
traced, and asserts that

* every check passes except the named known faults (ROADMAP 3a, 3b, 3c, 4);
* the metric names and units printed are exactly those in BENCHMARK.json;
* two seeds fail the same share of their operations;
* without the library sources the benchmark exits non-zero and prints no result.

It also confirms the oracle's premise for coefficient sums: at the corner
of the seeded coefficient points the order-64 truncation is far below the
tolerance those sums are held to.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KNOWN = {
    "explore-grid": {"ROADMAP-3a", "ROADMAP-4"},
    "coeff-disk": {"ROADMAP-3b", "ROADMAP-3c"},
    "cli-mix": {"ROADMAP-3a", "ROADMAP-3b", "ROADMAP-3c"},
}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    faults = json.loads(next(ln for ln in lines if ln.startswith("known_faults "))
                        .split(" ", 1)[1])
    return json.loads(lines[-1]), faults


def main() -> int:
    sys.path.insert(0, str(HERE))
    import oracle

    for which in ("M", "N"):
        for lam, alpha in ((0.0, 4.0 / 3.0), (0.7, 1.02)):
            share = oracle.truncation_share(which, 6, 20.0, lam, alpha, 64)
            assert share < oracle.COEFF_SUM_REL / 10, (which, lam, alpha, share)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(KNOWN)
    for workload, known in KNOWN.items():
        for trace in (0, 1):
            result, faults = run(workload, 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"], f"{workload}: a check outside the known faults failed"
            assert set(faults) <= known, (workload, faults)
            assert result["failed"] == sum(faults.values()), (workload, result["failed"], faults)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (workload, trace, printed)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
        print(f"ok {workload}: {result['attempted']} operations, known faults {faults}")

    a, _ = run("explore-grid", 1, 0)
    b, _ = run("explore-grid", 2, 0)
    assert a["failed"] * b["attempted"] == b["failed"] * a["attempted"], (a, b)

    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "explore-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok: failed share equal across seeds; no result without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
