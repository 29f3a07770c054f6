"""Cross-process telemetry transport for the sharded serving tier.

Forked workers record into *their* process-local registry / span
collector / event log; without a transport everything they observe dies
at the pipe boundary.  This module moves that telemetry over the
existing duplex reply pipes — no extra file descriptors, no side
channel, no background thread:

* the worker installs a :class:`TelemetryCapture` at startup
  (:func:`install_worker_capture`), which resets the process-default
  registry/event log, installs a fresh span collector, and reseeds span
  ids to a pid-salted range so worker span ids can never collide with
  the parent's once merged;
* after each request the worker calls :meth:`TelemetryCapture.take`,
  which drains everything recorded since the previous take into a
  compact, picklable :class:`TelemetrySnapshot` **delta** (the registry
  is reset after snapshotting), piggybacked on the reply tuple;
* the parent feeds replies through a :class:`TelemetryMerger`, which
  dedupes on ``(worker_pid, seq)`` (a crashed-mid-reply worker's batch
  is re-dispatched to a sibling, and a retransmitted snapshot must not
  double-count), folds metric deltas into the parent registry with
  ``{shard, worker_pid}`` labels, re-emits events, and re-homes spans
  into the parent's collector.

Because captures are deltas and the worker resets its registry on every
take, a reply that never arrives (crash, timeout, stale late answer)
simply loses that delta — counts are *at-most-once*, never duplicated,
which is what keeps the per-worker serve-counter sum exactly equal to
the parent's accepted-dispatch count even through crashes and
re-dispatches.

Snapshots are bounded (``max_spans`` / ``max_events``, drop-oldest);
anything dropped — by the bound, by ring-buffer eviction between takes,
or by the duplicate-dedupe — is counted into
``repro_obs_dropped_total{kind=...}`` rather than vanishing silently.

Trace context rides the other direction: the parent puts
``(trace_id, parent_span_id)`` of its dispatching ``serve.batch`` span
into the request envelope, and the worker adopts it via
:func:`repro.obs.tracing.set_trace_context`, so worker spans re-parent
under the dispatching span and the merged trace reads as one tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import events as _events_mod
from . import tracing as _tracing_mod
from .events import EventLog, get_events
from .metrics import OBS_DROPPED, MetricsRegistry, get_registry
from .tracing import Span, SpanCollector, install_collector, reseed_span_ids

#: default bounds on one snapshot's span/event payload — sized for a
#: per-batch cadence (a serve batch emits a handful of spans per query
#: tier, not thousands)
DEFAULT_MAX_SPANS = 512
DEFAULT_MAX_EVENTS = 512


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One worker's telemetry delta, shipped inside a pipe reply.

    Everything is plain picklable data: ``metrics`` is a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict, ``spans``
    and ``events`` are tuples of ``to_dict()`` payloads.  ``seq`` is a
    per-capture monotonic sequence number — the merge dedupes on
    ``(worker_pid, seq)``.
    """

    worker_pid: int
    worker: str
    shard: str
    seq: int
    metrics: dict = field(default_factory=dict)
    spans: tuple = ()
    events: tuple = ()
    #: items lost before this snapshot was built (ring eviction between
    #: takes + drop-oldest truncation to the snapshot bounds)
    dropped_spans: int = 0
    dropped_events: int = 0

    def is_empty(self) -> bool:
        return (
            not self.metrics
            and not self.spans
            and not self.events
            and self.dropped_spans == 0
            and self.dropped_events == 0
        )


class TelemetryCapture:
    """Worker-side delta capture over the process telemetry singletons.

    Each :meth:`take` drains the registry (snapshot + reset), the span
    collector, and the event log into a :class:`TelemetrySnapshot`.
    Takes are cheap when nothing happened (empty dicts/tuples).
    """

    def __init__(
        self,
        shard: str,
        worker: str,
        registry: MetricsRegistry | None = None,
        collector: SpanCollector | None = None,
        events: EventLog | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_spans < 1 or max_events < 1:
            raise ValueError("snapshot bounds must be at least 1")
        self.shard = shard
        self.worker = worker
        self._registry = registry if registry is not None else get_registry()
        self._collector = collector
        self._events = events if events is not None else get_events()
        self.max_spans = max_spans
        self.max_events = max_events
        self._seq = 0
        # high-water marks of the ring buffers' lifetime counters, used
        # to detect evictions that happened *between* takes
        self._spans_seen = 0
        self._events_seen = 0

    @property
    def collector(self) -> SpanCollector | None:
        return self._collector if self._collector is not None else _tracing_mod.get_collector()

    def take(self) -> TelemetrySnapshot:
        """Drain everything recorded since the last take into a snapshot."""
        self._seq += 1

        metrics = self._registry.snapshot()
        self._registry.reset()

        dropped_spans = 0
        span_payloads: tuple = ()
        collector = self.collector
        if collector is not None:
            spans = collector.spans()
            collector.clear()
            # spans evicted by the ring before we drained are already
            # gone; added_total keeps honest books
            dropped_spans += collector.added_total - self._spans_seen - len(spans)
            self._spans_seen = collector.added_total
            if len(spans) > self.max_spans:
                dropped_spans += len(spans) - self.max_spans
                spans = spans[-self.max_spans :]
            span_payloads = tuple(s.to_dict() for s in spans)

        events = self._events.events()
        self._events.clear()
        dropped_events = self._events.emitted_total - self._events_seen - len(events)
        self._events_seen = self._events.emitted_total
        if len(events) > self.max_events:
            dropped_events += len(events) - self.max_events
            events = events[-self.max_events :]
        event_payloads = tuple(e.to_dict() for e in events)

        return TelemetrySnapshot(
            worker_pid=os.getpid(),
            worker=self.worker,
            shard=self.shard,
            seq=self._seq,
            metrics=metrics,
            spans=span_payloads,
            events=event_payloads,
            dropped_spans=max(0, dropped_spans),
            dropped_events=max(0, dropped_events),
        )


_active_capture: TelemetryCapture | None = None


def install_worker_capture(
    shard: str,
    worker: str,
    max_spans: int = DEFAULT_MAX_SPANS,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> TelemetryCapture:
    """Set up a freshly forked worker process for delta capture.

    Resets the (fork-copied) default registry and event log so the first
    capture is a true delta rather than a replay of the parent's
    pre-fork totals, installs a fresh span collector, and reseeds span
    ids into a pid-salted range (``pid << 32``) so worker-minted span
    ids are globally unique across the merged trace.
    """
    get_registry().reset()
    get_events().clear()
    collector = install_collector(SpanCollector())
    reseed_span_ids((os.getpid() << 32) + 1)
    global _active_capture
    _active_capture = TelemetryCapture(
        shard=shard,
        worker=worker,
        collector=collector,
        max_spans=max_spans,
        max_events=max_events,
    )
    return _active_capture


def get_capture() -> TelemetryCapture | None:
    return _active_capture


def uninstall_capture() -> None:
    global _active_capture
    _active_capture = None


class TelemetryMerger:
    """Parent-side fold of worker snapshots into this process's telemetry.

    ``registry``/``events`` default to the process singletons; the span
    destination is resolved **per merge** from the active collector (so
    a collector installed after the merger was built still receives
    worker spans) unless one is pinned explicitly.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        collector: SpanCollector | None = None,
        events: EventLog | None = None,
    ) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._collector = collector
        self._events = events
        self._last_seq: dict[int, int] = {}
        self.merged_total = 0
        self.duplicate_total = 0

    def merge(self, snapshot: TelemetrySnapshot | None) -> bool:
        """Fold one snapshot in; returns False if it was a duplicate.

        A duplicate (same ``(worker_pid, seq)`` already merged — e.g. a
        batch re-dispatched after a crash mid-reply carrying the sibling
        retransmission of a snapshot that already landed) is dropped
        whole and counted into ``repro_obs_dropped_total``.
        """
        if snapshot is None:
            return False
        last = self._last_seq.get(snapshot.worker_pid, 0)
        if snapshot.seq <= last:
            self.duplicate_total += 1
            self._dropped().inc(kind="duplicate_snapshot")
            return False
        self._last_seq[snapshot.worker_pid] = snapshot.seq
        self.merged_total += 1

        extra = {"shard": snapshot.shard, "worker_pid": snapshot.worker_pid}
        if snapshot.metrics:
            self._registry.merge_snapshot(snapshot.metrics, extra_labels=extra)

        collector = (
            self._collector
            if self._collector is not None
            else _tracing_mod.get_collector()
        )
        if collector is not None:
            for payload in snapshot.spans:
                attrs = dict(payload.get("attrs", {}))
                attrs.setdefault("worker_pid", snapshot.worker_pid)
                attrs.setdefault("shard", snapshot.shard)
                collector.add(
                    Span(
                        name=payload["name"],
                        span_id=payload["span_id"],
                        parent_id=payload.get("parent_id"),
                        trace_id=payload.get("trace_id"),
                        start=payload["start"],
                        end=payload["end"],
                        status=payload.get("status", "ok"),
                        attrs=attrs,
                    )
                )
        elif snapshot.spans:
            self._dropped().inc(len(snapshot.spans), kind="span")

        events = self._events if self._events is not None else get_events()
        for payload in snapshot.events:
            fields = {
                k: v for k, v in payload.items() if k not in ("kind", "seconds")
            }
            fields.setdefault("worker_pid", snapshot.worker_pid)
            fields.setdefault("worker_seconds", payload.get("seconds"))
            events.emit(payload["kind"], **fields)

        if snapshot.dropped_spans:
            self._dropped().inc(snapshot.dropped_spans, kind="span")
        if snapshot.dropped_events:
            self._dropped().inc(snapshot.dropped_events, kind="event")
        return True

    def _dropped(self):
        return self._registry.counter(
            OBS_DROPPED,
            "Telemetry items lost to bounded buffers or duplicate dedupe",
        )
