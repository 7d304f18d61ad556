"""Spans around touchardstar's public functions, installed at run time.

A traced round wraps each layer's public functions in every module namespace
that binds them, because callers look names up in their own module (explore
finds ``criterion_value`` in its globals, criteria finds ``tail_moment`` and
``touchard_series`` in its own, disk finds ``evaluate``).  Each call records a
span (name, start, end, parent) in flat arrays; counters taken from the
arguments or the result (series terms, coefficients, samples, rows) are
summed per span name.  When a traced round ends its spans are folded into a
running per-span minimum of self time, and the spans of the first traced
round are kept to write out once the run is over, so memory stays bounded by
one round.

Self time is a span's duration minus the durations of its direct children;
spans of one thread nest, so that is exactly the time the children cover.
Each span's self time is its smallest across the traced rounds, for the same
reason the end-to-end figures take each operation's best (see
``workloads.at_reference_speed``).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

_now = time.perf_counter


def layer_spec(ts):
    """(owner, attribute, span name, counter function) for each wrapped name.

    A counter function maps (args, result) to {counter name: amount}.
    """
    from touchardstar import cli, criteria, disk, explore, formats, moments, series

    def moment_terms(a, r):
        return {"moments.series.terms": r.truncation_terms}

    def kernel_coeffs(a, r):
        return {"series.kernel.coeffs": r.order}

    def sum_terms(a, r):
        return {"criteria.coeff_sum.terms": a[0].order - 1}

    def points(a, r):
        return {"series.evaluate.points": int(np.size(a[1]))}

    def samples(a, r):
        return {"disk.samples": r.samples, "disk.degenerate_samples": r.degenerate_samples}

    def rows(a, r):
        return {"explore.sweep.rows": len(r.rows)}

    return [
        (moments, "poisson_moment_closed", "moments.closed", None),
        (moments, "poisson_moment_series", "moments.series", moment_terms),
        (moments, "tail_moment", "moments.tail", None),
        (series, "touchard_series", "series.kernel", kernel_coeffs),
        (series, "apply_operator_L", "series.operators", None),
        (series, "apply_operator_I", "series.operators", None),
        (series, "hadamard", "series.operators", None),
        (series, "evaluate", "series.evaluate", points),
        (criteria, "theorem_M_lhs", "criteria.closed", None),
        (criteria, "theorem_N_lhs", "criteria.closed", None),
        (criteria, "theorem_integral_operator", "criteria.closed", None),
        (criteria, "theorem_rtau_inclusion", "criteria.closed", None),
        (criteria, "lemma_sum_M", "criteria.coeff_sum", sum_terms),
        (criteria, "lemma_sum_N", "criteria.coeff_sum", sum_terms),
        (disk, "verify_M", "disk.verify", samples),
        (disk, "verify_N", "disk.verify", samples),
        (disk, "verify_rtau", "disk.verify", samples),
        (explore, "criterion_value", "explore.criterion_value", None),
        (explore, "find_threshold", "explore.threshold", None),
        (explore, "sweep", "explore.sweep", rows),
        # rendering of CLI output, wherever it lives today
        (formats, "canonical_json", "formats.render", None),
        (formats, "rows_csv", "formats.render", None),
        (formats, "one_line_csv", "formats.render", None),
        (formats, "human_lines", "formats.render", None),
        (explore.SweepTable, "to_csv", "formats.render", None),
        (series, "series_to_csv", "formats.render", None),
        (disk, "samples_to_csv", "formats.render", None),
    ], [ts, cli, criteria, disk, explore, formats, moments, series]


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._patched: list = []
        self._stack: list[int] = []
        self.kept = None  # spans of the first traced round
        # cleared in place, never rebound: the wrappers hold references
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)

    def _reset(self):
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self.counters.clear()

    def _wrap(self, fn, span: str, count):
        nid = self._name_id.setdefault(span, len(self._name_id))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = _now()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result).items():
                    counters[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function in each namespace that binds it."""
        import touchardstar

        spec, namespaces = layer_spec(touchardstar)
        for owner, attr, span, count in spec:
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, span, count)
            targets = [owner] if isinstance(owner, type) else namespaces
            for ns in targets:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def fold(self) -> None:
        """Close a traced round: keep each span's smallest self time so far.

        Traced rounds repeat the same calls in the same order, so span i of
        one round matches span i of every other; like the end-to-end
        figures, per-layer times are each span's best across rounds.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        selfs = dur[:]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                selfs[p] -= dur[i]
        if self.kept is None:
            self.kept = (list(self.names), array("H", self.name), array("l", self.parent),
                         array("d", self.start), array("d", self.end))
            self._best = selfs
            self._counters = dict(self.counters)
        elif n == len(self._best):
            self._best = list(map(min, self._best, selfs))
        else:
            raise RuntimeError("traced rounds made different calls")
        self._reset()

    def summary(self) -> dict:
        """{span name: {"calls", "self_ms"}} for one round, plus "counters" and
        "explore.threshold.criterion_evals" (criterion evaluations made inside
        a threshold solve)."""
        out: dict = {"counters": {}, "explore.threshold.criterion_evals": 0}
        if self.kept is None:
            return out
        names, name, parent, _, _ = self.kept
        thr = self._name_id.get("explore.threshold")
        evals = 0
        for i, nid in enumerate(name):
            key = names[nid]
            agg = out.setdefault(key, {"calls": 0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["self_ms"] += self._best[i] * 1e3
            if key == "explore.criterion_value":
                p = parent[i]
                while p >= 0 and name[p] != thr:
                    p = parent[p]
                evals += p >= 0
        out["counters"] = self._counters
        out["explore.threshold.criterion_evals"] = evals
        return out

    def write(self, path) -> int:
        """Write the kept spans as CSV ``name,start_s,end_s,parent``; returns the count."""
        if self.kept is None:
            return 0
        names, name, parent, start, end = self.kept
        t0 = start[0] if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(start)):
                fh.write(f"{names[name[i]]},{start[i] - t0:.9f},{end[i] - t0:.9f},{parent[i]}\n")
        return len(start)
