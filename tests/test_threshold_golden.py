"""Recorded threshold solves, replayed bit for bit.

``data/threshold_golden.json`` holds ``find_threshold(...).to_dict()`` for
the 240 solves of ``test_explore.SOLVE_GRID`` (rtau with tau = 1, A = 0.5,
B = -0.5) and for two roots far from m = 1, 5e-4 and 5000.  Every
float is stored as its ``repr``, so a match is a match to the last bit and
tells -0.0 from 0.0.

After an intended change of output, rerecord with
``PYTHONPATH=src python tests/test_threshold_golden.py``.  It refuses to
write when any ``m_star`` moves from its recorded value by more than
``tol_m``, the accuracy every solve promises, and prints the largest move.
"""

import json
from pathlib import Path

import pytest
from test_explore import SOLVE_GRID

from touchardstar import ClassParams, RTauParams, find_threshold

GOLDEN = Path(__file__).parent / "data" / "threshold_golden.json"
RTAU = RTauParams(1.0, 0.5, -0.5)
#: (criterion, l, lambda, alpha) of every recorded solve: the grid, then the
#: roots at 5e-4 and 5000.
SOLVES = [*SOLVE_GRID, ("M", 1, 0.0, 1.0005), ("M", 0, 0.7499, 4.0 / 3.0)]
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))
#: The tol_m of every recorded solve, find_threshold's default.
TOL_M = 1e-10


def reprs(x):
    """``x`` with every float replaced by its repr, tuples by lists."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [reprs(v) for v in x]
    if isinstance(x, dict):
        return {k: reprs(v) for k, v in x.items()}
    return x


def solve(which, l, lam, alpha) -> dict:
    result = find_threshold(which, l, ClassParams(lam, alpha), RTAU if which == "rtau" else None)
    return reprs(result.to_dict())


def record() -> list:
    return [{"solve": [which, l, repr(lam), repr(alpha)], "result": solve(which, l, lam, alpha)}
            for which, l, lam, alpha in SOLVES]


def test_recorded_solves_are_the_grid():
    assert [c["solve"] for c in CASES] == [[w, l, repr(lam), repr(a)] for w, l, lam, a in SOLVES]
    assert len(CASES) == 242


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c["solve"])))
def test_replay(case):
    which, l, lam, alpha = case["solve"]
    got, want = solve(which, l, float(lam), float(alpha)), case["result"]
    assert list(got) == list(want)  # the to_dict() key order too
    assert got == want


if __name__ == "__main__":
    cases = record()
    recorded = {tuple(c["solve"]): float(c["result"]["m_star"]) for c in CASES}
    moves = [(abs(float(c["result"]["m_star"]) - recorded[tuple(c["solve"])]), c["solve"])
             for c in cases if tuple(c["solve"]) in recorded]
    largest = max(moves, default=(0.0, None))
    print(f"largest |m_star change| {largest[0]!r} at {largest[1]}")
    if largest[0] > TOL_M:
        raise SystemExit(f"not written: m_star moved by more than tol_m = {TOL_M!r}")
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
