"""Observability layer: metrics registry, tracing spans, event log, and
training telemetry.

The paper's central evidence is cost/accuracy telemetry — training time,
inference latency, update cost (Figure 4, Figures 6-8).  ``repro.obs``
is the measurement substrate those numbers (and every serving decision)
flow through:

* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` with
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` (log-spaced
  latency buckets), Prometheus text exposition and JSON snapshots;
* :mod:`repro.obs.tracing` — nested :func:`span` context managers with
  parent links, cross-process trace context, a ring-buffer
  :class:`SpanCollector` and JSONL export;
* :mod:`repro.obs.events` — a structured :class:`EventLog` for discrete
  occurrences (breaker transitions, fallbacks, sanitizations);
* :mod:`repro.obs.monitor` — the opt-in :class:`TrainingMonitor` hook
  the learned estimators' training loops report per-epoch loss /
  gradient-norm / timing through;
* :mod:`repro.obs.transport` — :class:`TelemetrySnapshot` delta capture
  in forked workers, piggybacked on reply pipes and merged by the
  parent (:class:`TelemetryMerger`) with ``{shard, worker_pid}``
  labels;
* :mod:`repro.obs.slo` — per-tenant latency/q-error objectives with
  multi-window error-budget burn-rate breach detection;
* :mod:`repro.obs.exemplars` — top-K worst-q-error / slowest estimate
  exemplars linking queries to their trace ids;
* :mod:`repro.obs.clock` — the designated monotonic clock aliases (the
  lint in ``tests/test_lint.py`` bans raw ``time.monotonic()`` /
  ``time.perf_counter()`` calls everywhere else).

Metrics and events are always on (both are cheap); span collection and
training monitoring are opt-in via :func:`install_collector` /
:func:`install_monitor` so the hot paths stay free when nobody watches.
Tests isolate themselves with :func:`reset_for_tests`.
"""

from .events import Event, EventLog, emit, get_events
from .exemplars import Exemplar, ExemplarStore, get_exemplars
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    BREAKER_TRANSITIONS,
    ESTIMATOR_PHASE_SECONDS,
    FASTPATH_SEMANTIC,
    FASTPATH_STUDENT,
    GUARD_CLAMPED,
    GUARD_OOD,
    GUARD_QUARANTINE,
    LIFECYCLE_CHECKPOINTS,
    LIFECYCLE_MODEL_GENERATION,
    LIFECYCLE_PROMOTIONS,
    LIFECYCLE_RETRAIN_ATTEMPTS,
    LIFECYCLE_TRANSITIONS,
    OBS_DROPPED,
    PARALLEL_TASKS,
    PARALLEL_WORKERS,
    PARALLEL_WORKER_SECONDS,
    SERVE_CACHE,
    SHARD_REQUESTS,
    SHARD_SHED,
    SHARD_SWAPS,
    SHARD_WORKER_RESTARTS,
    SHARD_WORKERS,
    SERVE_REQUESTS,
    SERVE_TIER_ATTEMPTS,
    SERVE_TIER_SECONDS,
    SLO_BREACHED,
    SLO_BURN_RATE,
    SLO_TRANSITIONS,
    TRAIN_EPOCH_SECONDS,
    TRAIN_EPOCHS,
    TRAIN_LOSS,
    WORKER_QUERIES,
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricsRegistry,
    Sample,
    format_quantiles_ms,
    get_registry,
    log_spaced_buckets,
    observe_phase,
    parse_exposition,
    percentile_ms,
)
from .monitor import (
    EpochRecord,
    TrainingMonitor,
    get_monitor,
    install_monitor,
    monitored_training,
    uninstall_monitor,
)
from .slo import (
    LATENCY,
    QERROR,
    SloObjective,
    SloRegistry,
    SloStatus,
    get_slos,
)
from .tracing import (
    Span,
    SpanCollector,
    SpanTimer,
    clear_trace_context,
    current_trace_context,
    end_span,
    get_collector,
    install_collector,
    reseed_span_ids,
    resume_span,
    set_trace_context,
    span,
    start_span,
    timed_span,
    uninstall_collector,
)
from .transport import (
    TelemetryCapture,
    TelemetryMerger,
    TelemetrySnapshot,
    get_capture,
    install_worker_capture,
    uninstall_capture,
)


def reset_for_tests() -> None:
    """Restore pristine default telemetry: zeroed registry, cleared
    event log, no span collector, no training monitor, no trace
    context, no worker capture, empty SLO registry and exemplar
    store."""
    get_registry().reset()
    get_events().clear()
    uninstall_collector()
    uninstall_monitor()
    clear_trace_context()
    uninstall_capture()
    get_slos().reset()
    get_exemplars().clear()


__all__ = [
    "BREAKER_TRANSITIONS",
    "BoundCounter",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "ESTIMATOR_PHASE_SECONDS",
    "FASTPATH_SEMANTIC",
    "FASTPATH_STUDENT",
    "GUARD_CLAMPED",
    "GUARD_OOD",
    "GUARD_QUARANTINE",
    "EpochRecord",
    "Event",
    "EventLog",
    "Exemplar",
    "ExemplarStore",
    "Gauge",
    "Histogram",
    "LATENCY",
    "LIFECYCLE_CHECKPOINTS",
    "LIFECYCLE_MODEL_GENERATION",
    "LIFECYCLE_PROMOTIONS",
    "LIFECYCLE_RETRAIN_ATTEMPTS",
    "LIFECYCLE_TRANSITIONS",
    "LatencyWindow",
    "MetricsRegistry",
    "OBS_DROPPED",
    "PARALLEL_TASKS",
    "PARALLEL_WORKERS",
    "PARALLEL_WORKER_SECONDS",
    "QERROR",
    "SERVE_CACHE",
    "SERVE_REQUESTS",
    "SERVE_TIER_ATTEMPTS",
    "SERVE_TIER_SECONDS",
    "SHARD_REQUESTS",
    "SHARD_SHED",
    "SHARD_SWAPS",
    "SHARD_WORKERS",
    "SHARD_WORKER_RESTARTS",
    "SLO_BREACHED",
    "SLO_BURN_RATE",
    "SLO_TRANSITIONS",
    "Sample",
    "SloObjective",
    "SloRegistry",
    "SloStatus",
    "Span",
    "SpanCollector",
    "SpanTimer",
    "TRAIN_EPOCHS",
    "TRAIN_EPOCH_SECONDS",
    "TRAIN_LOSS",
    "TelemetryCapture",
    "TelemetryMerger",
    "TelemetrySnapshot",
    "TrainingMonitor",
    "WORKER_QUERIES",
    "clear_trace_context",
    "current_trace_context",
    "emit",
    "end_span",
    "format_quantiles_ms",
    "get_capture",
    "get_collector",
    "get_events",
    "get_exemplars",
    "get_monitor",
    "get_registry",
    "get_slos",
    "install_collector",
    "install_monitor",
    "install_worker_capture",
    "log_spaced_buckets",
    "monitored_training",
    "observe_phase",
    "parse_exposition",
    "percentile_ms",
    "reseed_span_ids",
    "reset_for_tests",
    "resume_span",
    "set_trace_context",
    "span",
    "start_span",
    "timed_span",
    "uninstall_capture",
    "uninstall_collector",
    "uninstall_monitor",
]
