"""In-memory spans around the benchmark's calls into the simulator.

A span is a name, a start and an end (``perf_counter_ns``) and the index of
the enclosing span.  Spans live in flat arrays so that a traced run can
record one per ``cascade_measure`` call without growing large Python
objects, and are written out once, when the run ends.  Counters record
work done (rows written, trials sampled) at the same boundaries.

``NullTracer`` stands in for a tracer in untraced jobs: its spans record
nothing and ``wrap`` returns the function itself, so an untraced job makes
exactly the calls a caller of the library would make.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np

_NO_PARENT = -1
_FIELDS = 4


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Four int64 fields per span: name id, start, end, parent index.
        self.spans = array("q")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = [_NO_PARENT]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span enclosing whatever the block calls."""
        index = len(self.spans) // _FIELDS
        self.spans.extend((self._id(name), perf_counter_ns(), 0, self._open[-1]))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index * _FIELDS + 2] = perf_counter_ns()

    def wrap(self, name: str, fn):
        """``fn`` with a leaf span recorded around every call."""
        name_id = self._id(name)
        append = self.spans.extend
        open_spans = self._open

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            append((name_id, start, perf_counter_ns(), open_spans[-1]))
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` for every name
        with at least one span.

        Self time is a span's duration minus the durations of the spans
        directly inside it.
        """
        table = self._table()
        name_id, parent = table[:, 0], table[:, 3]
        duration = (table[:, 2] - table[:, 1]).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=duration, minlength=n) * 1e-9
        own = np.bincount(name_id, weights=duration - children, minlength=n) * 1e-9
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path) -> None:
        """Every span, as arrays in one compressed ``.npz`` file."""
        table = self._table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=table[:, 0],
            start_ns=table[:, 1],
            end_ns=table[:, 2],
            parent=table[:, 3],
        )


class NullTracer:
    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn
