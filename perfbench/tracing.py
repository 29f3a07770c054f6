"""In-memory span tracer for the traced benchmark run.

The tracer replaces public methods on objects the benchmark built with
timing wrappers (instance attributes, so the program's own code calls
the wrapper through ``self.<method>`` exactly as it would the original).
Each call becomes one span: name, start, end, parent span, read id.
Spans live in flat arrays while the run lasts and are written out as
JSONL once it ends; nothing under ``src/`` is instrumented.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children nest
strictly inside their parent and the self times of one tree add up to
the duration of its root span; :meth:`Tracer.reconcile` checks that.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

#: Largest relative gap between the summed self times and the summed
#: root spans that still counts as reconciled.  Self times are computed
#: by subtraction, so only float rounding should separate the two.
RECONCILE_TOLERANCE = 1e-6


class Tracer:
    """Span recorder; ``wrap`` installs it on one method of one object."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.read = array("l")
        #: span name -> values returned by its ``observe`` hook
        self.observed: dict[str, list] = defaultdict(list)
        #: operation id stamped on every span (set by the benchmark loop)
        self.read_id = -1
        self._stack: list[int] = []

    def wrap(self, obj, attr: str, name: str, observe=None) -> None:
        """Replace ``obj.attr`` with a traced wrapper recording ``name``."""
        inner = getattr(obj, attr)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name_id, name, inner, observe, args, kwargs)

        traced.__wrapped__ = inner
        setattr(obj, attr, traced)

    def _call(self, name_id, name, inner, observe, args, kwargs):
        span_id = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.read.append(self.read_id)
        self.end.append(0.0)
        stack.append(span_id)
        self.start.append(perf_counter())
        try:
            result = inner(*args, **kwargs)
        finally:
            self.end[span_id] = perf_counter()
            stack.pop()
        if observe is not None:
            self.observed[name].append(observe(result))
        return result

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, total self seconds)``."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i, name_id in enumerate(self.name_of):
            duration = self.end[i] - self.start[i]
            row = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def root_seconds(self) -> float:
        return sum(
            self.end[i] - self.start[i]
            for i, p in enumerate(self.parent)
            if p < 0
        )

    def reconcile(self) -> tuple[bool, float]:
        """Do the self times add up to the root spans?

        Returns ``(ok, relative_error)``; ``ok`` also requires every
        child to lie inside its parent's interval.
        """
        nested = all(
            p < 0
            or (self.start[p] <= self.start[i] and self.end[i] <= self.end[p])
            for i, p in enumerate(self.parent)
        )
        roots = self.root_seconds()
        selves = sum(row[2] for row in self.summary().values())
        error = abs(selves - roots) / roots if roots > 0 else 0.0
        return nested and error <= RECONCILE_TOLERANCE, error

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.start)):
                p = self.parent[i]
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_of[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": None if p < 0 else p,
                            "read": self.read[i],
                        }
                    )
                    + "\n"
                )
