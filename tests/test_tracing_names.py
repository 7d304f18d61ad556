"""The benchmark's tracer wraps library functions by name; each must still exist.

``perfbench/tracing.layer_spec`` lists (owner, attribute) pairs, and a traced
benchmark run (``perfbench/run.py --trace 1``) fails if one no longer
resolves, so a rename in ``src/`` has to fail here first.
"""

from pathlib import Path

import touchardstar


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    spec, _ = tracing.layer_spec(touchardstar)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spec if not callable(getattr(owner, attr, None))]
    assert spec and missing == []
