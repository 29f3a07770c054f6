"""Nested tracing spans with a ring-buffer collector and JSONL export.

A span is one timed region — an estimator fit, a single serve call, one
tier attempt inside it — with monotonic start/end timestamps, free-form
attributes, and a link to its parent span, so a trace reconstructs *why*
a query took as long as it did (which tiers were tried, which failed,
what the breaker did).

Collection is opt-in: until :func:`install_collector` is called,
:func:`span` yields ``None`` without allocating anything, and
:func:`timed_span` degrades to a bare pair of ``perf_counter`` reads.
That guarded fast path is what lets the estimator hot path stay
instrumented permanently.

**Trace context.**  Every root span starts a trace (``trace_id`` is its
own ``span_id``); children inherit the trace id through the span stack.
For work that crosses a process boundary — a shard dispatching a batch
to a forked worker — the parent ships ``(trace_id, parent_span_id)`` in
the request envelope and the worker installs it with
:func:`set_trace_context`: spans the worker opens at the top of *its*
stack are then parented under the dispatching span, so the merged trace
reads as one tree.  Worker processes call :func:`reseed_span_ids` with a
pid-salted offset so their span ids can never collide with the
parent's (fork copies the id counter).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter as _Counter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .clock import perf_counter

_span_ids = itertools.count(1)

#: stack of open spans (the reproduction is single-threaded; a span
#: opened on another thread would mis-parent, which we accept)
_stack: list["Span"] = []

_active_collector: "SpanCollector | None" = None

#: (trace_id, parent_span_id) adopted by root spans — the receiving half
#: of cross-process trace propagation; None means "start a fresh trace"
_trace_context: tuple[int, int | None] | None = None


@dataclass
class Span:
    """One timed region; ``end`` is filled when the region exits."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    status: str = "ok"
    #: id of the trace this span belongs to (the root span's span_id,
    #: possibly propagated from another process)
    trace_id: int | None = None

    @property
    def duration_seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
        }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class SpanCollector:
    """Ring buffer of finished spans (oldest evicted first)."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._spans: deque[Span] = deque(maxlen=capacity)
        #: spans ever added — ``added_total - len(self)`` (since the last
        #: drain) is how many the ring evicted, which the telemetry
        #: transport reports as drops instead of losing silently
        self.added_total = 0

    def add(self, span: Span) -> None:
        self._spans.append(span)
        self.added_total += 1

    def spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def names(self) -> _Counter:
        """Span count by name (for quick trace summaries)."""
        return _Counter(s.name for s in self._spans)

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == parent.span_id]

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def to_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the spans written."""
        spans = list(self._spans)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(spans)


def install_collector(collector: SpanCollector | None = None) -> SpanCollector:
    """Install (and return) the process-wide collector; spans flow to it."""
    global _active_collector
    _active_collector = collector if collector is not None else SpanCollector()
    return _active_collector


def uninstall_collector() -> None:
    """Disable span collection (restores the zero-overhead fast path)."""
    global _active_collector
    _active_collector = None
    _stack.clear()


def get_collector() -> SpanCollector | None:
    return _active_collector


# ----------------------------------------------------------------------
# Cross-process trace context
# ----------------------------------------------------------------------
def set_trace_context(trace_id: int, parent_span_id: int | None) -> None:
    """Adopt a propagated trace: root spans opened after this call are
    parented under ``parent_span_id`` and tagged with ``trace_id``."""
    global _trace_context
    _trace_context = (trace_id, parent_span_id)


def clear_trace_context() -> None:
    global _trace_context
    _trace_context = None


def current_trace_context() -> tuple[int, int | None] | None:
    return _trace_context


def reseed_span_ids(start: int) -> None:
    """Restart the span-id counter at ``start``.

    Called by forked workers with a pid-salted offset (the fork copied
    the parent's counter, so continuing from it would mint ids that
    collide with the parent's once merged)."""
    global _span_ids
    if start < 1:
        raise ValueError("span ids must be positive")
    _span_ids = itertools.count(start)


def _open_record(name: str, attrs: dict) -> Span:
    """A fresh span parented under the stack top or the adopted trace."""
    span_id = next(_span_ids)
    if _stack:
        parent_id = _stack[-1].span_id
        trace_id = _stack[-1].trace_id
    elif _trace_context is not None:
        trace_id, parent_id = _trace_context
    else:
        parent_id, trace_id = None, span_id
    return Span(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        trace_id=trace_id,
        start=perf_counter(),
        attrs=attrs,
    )


@contextmanager
def span(
    name: str, collector: SpanCollector | None = None, **attrs
) -> Iterator[Span | None]:
    """Open a child span of whatever span is currently on the stack.

    Yields the open :class:`Span` (mutate ``attrs``/``status`` freely
    before exit) or ``None`` when collection is off.
    """
    col = collector if collector is not None else _active_collector
    if col is None:
        yield None
        return
    record = _open_record(name, attrs)
    # resume_span's push/pop, inlined: a nested context manager would
    # cost every traced span about a microsecond more
    _stack.append(record)
    try:
        yield record
    except BaseException:
        record.status = "error"
        raise
    finally:
        if _stack and _stack[-1] is record:
            _stack.pop()
        end_span(record, col)


def start_span(name: str, **attrs) -> Span | None:
    """Open a span *without* making it the current span.

    The span is parented exactly as :func:`span` would parent it, but it
    is not pushed on the stack, so spans opened after it are its
    siblings rather than its children.  Work runs inside it under
    :func:`resume_span`, and :func:`end_span` closes it.  This is how
    several regions that are in flight at once — the shard router's
    per-shard ``serve.batch`` spans, sent together and gathered in turn
    — stay siblings in the trace.  Returns ``None`` when collection is
    off.
    """
    if _active_collector is None:
        return None
    return _open_record(name, attrs)


@contextmanager
def resume_span(record: Span | None) -> Iterator[Span | None]:
    """Make ``record`` the current span for the duration of the block."""
    if record is None:
        yield None
        return
    _stack.append(record)
    try:
        yield record
    except BaseException:
        record.status = "error"
        raise
    finally:
        if _stack and _stack[-1] is record:
            _stack.pop()


def end_span(record: Span | None, collector: SpanCollector | None = None) -> None:
    """Close ``record`` and hand it to ``collector`` (default: the active one)."""
    if record is None:
        return
    if record.end == 0.0:  # timed_span may have closed it already
        record.end = perf_counter()
    col = collector if collector is not None else _active_collector
    if col is not None:
        col.add(record)


class SpanTimer:
    """Elapsed-seconds handle yielded by :func:`timed_span`."""

    __slots__ = ("elapsed", "span")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.span: Span | None = None


@contextmanager
def timed_span(
    name: str, collector: SpanCollector | None = None, **attrs
) -> Iterator[SpanTimer]:
    """Always measures elapsed time; records a span only when collecting.

    This is the instrumentation primitive behind the estimator protocol:
    the :class:`~repro.core.estimator.TimingRecord` is fed from the
    yielded timer, so the hand-rolled timing and the trace can never
    disagree.
    """
    timer = SpanTimer()
    col = collector if collector is not None else _active_collector
    if col is None:
        start = perf_counter()
        try:
            yield timer
        finally:
            timer.elapsed = perf_counter() - start
        return
    with span(name, collector=col, **attrs) as record:
        timer.span = record
        try:
            yield timer
        finally:
            assert record is not None
            record.end = perf_counter()
            timer.elapsed = record.duration_seconds
