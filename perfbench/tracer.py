"""In-memory span tracer that wraps the package's functions from outside.

Hooks are installed by rebinding module attributes: every module of the
package that holds the original function object under the hooked name gets
the wrapper instead, so calls made through module globals (rank_improved
calling sieved_prefix, primitive_count calling dp_term) are seen without
editing the package. A hooked name that the package no longer defines is
listed in `absent` rather than raising, so the benchmark keeps running after
a refactor deletes or renames a helper.

Span records are lists [name, start_ns, end_ns, parent_index, query_id];
they stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, QUERY = range(5)


def _tail_values(args, kwargs, result):
    tau = kwargs["tau"] if "tau" in kwargs else args[1] if len(args) > 1 else None
    out = {"primitive.tau": tau}
    phis = getattr(result, "phis", None)
    if phis is not None:
        out["primitive.tail.points"] = len(phis)
    return out


# (layer name, module, attribute, value recorder or None). Timed hooks open a
# span per call; counted hooks only bump a counter, for functions called
# often enough (up to millions of times per run) that a span would dominate.
TIMED = [
    ("farey.rank", "farey", "rank_improved", None),
    ("farey.rank", "farey", "rank_pawlewicz", None),
    ("farey.sieve", "farey", "sieved_prefix", None),
    ("farey.statistic", "farey", "statistic", None),
    ("geometry.parse", "geometry", "parse_polygon", None),
    ("geometry.validate", "geometry", "validate", None),
    ("geometry.count_lattice", "geometry", "count_lattice", None),
    ("primitive.count", "primitive", "primitive_count", None),
    ("primitive.tail", "primitive", "precompute_tail", _tail_values),
    ("primitive.dp", "primitive", "dp_term", None),
]
COUNTED = [
    ("exactmath.floor_sum", "exactmath", "floor_sum", None),
    ("farey.cutoff", "farey", "improved_cutoff", lambda a, k, r: {"farey.cutoff_k": r}),
    ("geometry.membership", "geometry", "point_in_scaled", None),
    ("geometry.membership", "geometry", "contains", None),
    ("primitive.phi", "primitive", "phi_value", None),
    ("primitive.tail_query", "primitive", "tail_query", None),
]


class Tracer:
    """Spans, call counts and recorded values for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.values = defaultdict(list)
        self.absent = []
        self.query_id = None
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name, nested under the open span."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, self.query_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    def _timed(self, name, fn, record):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if record is not None:
                self._record(record(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name, fn, record):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if record is not None:
                self._record(record(args, kwargs, result))
            return result

        return wrapper

    def _record(self, values):
        for key, value in values.items():
            if value is not None:
                self.values[key].append(value)

    def install(self, package, modules):
        """Wrap every hook found in package.<module>; note the missing ones."""
        for hooks, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, module, attr, record in hooks:
                home = getattr(package, module, None)
                original = getattr(home, attr, None)
                if not callable(original):
                    self.absent.append(f"{module}.{attr}")
                    continue
                wrapper = make(name, original, record)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans) -> list:
    """Per span, its duration minus the time its direct children cover.

    Spans of one thread nest without overlapping, so the children's
    coverage is the sum of their durations.
    """
    covered = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]
