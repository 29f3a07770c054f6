"""Process-wide metrics: counters, gauges and log-bucketed histograms.

The paper's evidence is cost telemetry — training time, inference
latency, update cost (Figure 4, Figures 6-8) — so the reproduction keeps
a first-class :class:`MetricsRegistry` that every layer reports into.
Three instrument kinds, all label-aware:

* :class:`Counter` — monotonically increasing totals (queries served,
  breaker trips, sanitizations);
* :class:`Gauge` — last-written values (current training loss, breaker
  state);
* :class:`Histogram` — distributions over fixed **log-spaced buckets**
  (latencies span six orders of magnitude across the thirteen
  estimators, so linear buckets are useless).

A registry renders to the Prometheus text exposition format
(:meth:`MetricsRegistry.render_text`, linted by
:func:`parse_exposition`) and to a JSON-safe snapshot
(:meth:`MetricsRegistry.snapshot`).  A module-level default registry
backs the instrumented estimator/serving layers; tests isolate
themselves with :func:`repro.obs.reset_for_tests`.

:class:`LatencyWindow` is the one shared latency-summary code path:
exact percentiles over a sliding sample window, used by both the serving
layer's health snapshots and the benchmark harness.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: label-set key: a sorted tuple of (label, value) pairs
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    escaped = (
        (k, v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for k, v in key
    )
    return "{" + ",".join(f'{k}="{v}"' for k, v in escaped) + "}"


class _Metric:
    """Shared name/help plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        #: validated label keys by the caller's ``(label, value)`` pairs
        self._keys: dict[tuple, LabelKey] = {}

    def _check_labels(self, labels: dict[str, object]) -> LabelKey:
        """The validated key of ``labels``, memoized by the caller's
        ``(label, value)`` pairs: a repeated label set costs one dict
        lookup, not a regex and a sort.  Only valid, all-``str`` label
        sets are memoized (``1``, ``1.0`` and ``True`` hash alike)."""
        items = tuple(labels.items())
        try:
            key = self._keys.get(items)
        except TypeError:  # an unhashable label value
            key = None
        if key is not None:
            return key
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {self.name}")
        key = _label_key(labels)
        if all(type(value) is str for value in labels.values()):
            self._keys[items] = key
        return key

    # Subclasses provide: samples() -> iterable of exposition lines,
    # snapshot() -> JSON-safe dict, reset().


class Counter(_Metric):
    """A monotonically increasing total, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0.0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._check_labels(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labelled(self, **labels: object) -> "BoundCounter":
        """A handle bound to one label set, for per-query hot paths.

        Label validation and key construction happen once, here; the
        handle's :meth:`BoundCounter.inc` is a dict bump.  The handle
        stays valid across :meth:`reset` (reset clears the series map,
        it does not replace it)."""
        return BoundCounter(self, self._check_labels(labels))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterable[str]:
        for key in sorted(self._values):
            yield f"{self.name}{_format_labels(key)} {_format_value(self._values[key])}"

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def reset(self) -> None:
        self._values.clear()


class BoundCounter:
    """One counter series with its label key pre-built (see
    :meth:`Counter.labelled`)."""

    __slots__ = ("_values", "_key")

    def __init__(self, counter: Counter, key: LabelKey) -> None:
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counter cannot decrease")
        self._values[self._key] = self._values.get(self._key, 0.0) + amount


class Gauge(_Metric):
    """A value that goes up and down, one series per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._check_labels(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._check_labels(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterable[str]:
        for key in sorted(self._values):
            yield f"{self.name}{_format_labels(key)} {_format_value(self._values[key])}"

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def reset(self) -> None:
        self._values.clear()


def log_spaced_buckets(
    lo: float = 1e-6, hi: float = 100.0, per_decade: int = 4
) -> tuple[float, ...]:
    """Bucket upper bounds spaced evenly in log10 from ``lo`` to ``hi``."""
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    steps = round(per_decade * math.log10(hi / lo))
    return tuple(lo * 10 ** (i / per_decade) for i in range(steps + 1))


#: Latency buckets: 1 microsecond to 100 seconds, four per decade.  The
#: spread covers sub-ms traditional estimators and minutes-long learned
#: training epochs in the same instrument.
DEFAULT_LATENCY_BUCKETS = log_spaced_buckets(1e-6, 100.0, per_decade=4)


@dataclass
class _HistogramSeries:
    counts: list[int]
    total: float = 0.0
    count: int = 0


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative Prometheus exposition.

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    Fixed buckets make series **mergeable**: a worker process can ship
    its per-bucket counts across a pipe and the parent adds them in via
    :meth:`merge_series` without losing any exposition fidelity.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def _get(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                counts=[0] * (len(self.bounds) + 1)
            )
        return series

    def observe(self, value: float, **labels: object) -> None:
        self.observe_many(value, 1, **labels)

    def observe_many(self, value: float, count: int, **labels: object) -> None:
        """``count`` observations of ``value`` with one label check and
        one bucket search.  The sum is added ``count`` times, so it
        equals that many :meth:`observe` calls bit for bit."""
        series = self._get(self._check_labels(labels))
        index = len(self.bounds)  # the +Inf bucket
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        series.counts[index] += count
        total = series.total
        for _ in range(count):
            total += value
        series.total = total
        series.count += count

    def merge_series(
        self,
        counts: Sequence[int],
        total: float,
        count: int,
        **labels: object,
    ) -> None:
        """Add another histogram's per-bucket counts into one series.

        The telemetry transport's merge path: ``counts`` must come from
        a histogram with identical bounds (one entry per finite bucket
        plus the ``+Inf`` bucket).
        """
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"cannot merge {len(counts)} buckets into {self.name} "
                f"({len(self.bounds) + 1} buckets)"
            )
        series = self._get(self._check_labels(labels))
        for i, bucket_count in enumerate(counts):
            series.counts[i] += int(bucket_count)
        series.total += float(total)
        series.count += int(count)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = q * series.count
        cumulative = 0
        for i, bucket_count in enumerate(series.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - previous) / bucket_count
                return lower + fraction * (upper - lower)
        return self.bounds[-1]

    def samples(self) -> Iterable[str]:
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            for i, bound in enumerate(self.bounds):
                cumulative += series.counts[i]
                bucket_key = key + (("le", _format_value(bound)),)
                yield f"{self.name}_bucket{_format_labels(bucket_key)} {cumulative}"
            inf_key = key + (("le", "+Inf"),)
            yield f"{self.name}_bucket{_format_labels(inf_key)} {series.count}"
            yield f"{self.name}_sum{_format_labels(key)} {_format_value(series.total)}"
            yield f"{self.name}_count{_format_labels(key)} {series.count}"

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.bounds),
            "series": [
                {
                    "labels": dict(key),
                    "counts": list(series.counts),
                    "sum": series.total,
                    "count": series.count,
                }
                for key, series in sorted(self._series.items())
            ],
        }

    def reset(self) -> None:
        self._series.clear()


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors and two exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition of every metric in the registry."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-safe dict: ``{metric_name: {kind, help, series}}``."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def merge_snapshot(
        self, snapshot: dict, extra_labels: dict[str, object] | None = None
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The dual of :meth:`snapshot`, and the metrics half of the
        cross-process telemetry transport: a worker captures its registry
        as a snapshot (then resets, so each capture is a *delta*), ships
        it over the reply pipe, and the parent merges it here.
        ``extra_labels`` (e.g. ``worker_pid``/``shard``) are appended to
        every merged series so worker-originated samples stay
        distinguishable from the parent's own.

        Counters add, gauges last-write-win, histograms merge per-bucket
        (bounds must match — both sides build them from the same code).
        """
        extra = extra_labels or {}
        for name, data in snapshot.items():
            kind = data.get("kind", "untyped")
            if kind == "counter":
                counter = self.counter(name, data.get("help", ""))
                for series in data["series"]:
                    if series["value"] > 0.0:
                        counter.inc(series["value"], **series["labels"], **extra)
            elif kind == "gauge":
                gauge = self.gauge(name, data.get("help", ""))
                for series in data["series"]:
                    gauge.set(series["value"], **series["labels"], **extra)
            elif kind == "histogram":
                histogram = self.histogram(
                    name, data.get("help", ""), buckets=data["buckets"]
                )
                if list(histogram.bounds) != list(data["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ; "
                        "cannot merge"
                    )
                for series in data["series"]:
                    histogram.merge_series(
                        series["counts"],
                        series["sum"],
                        series["count"],
                        **series["labels"],
                        **extra,
                    )
            else:
                raise ValueError(f"cannot merge metric kind {kind!r} ({name})")

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def reset(self) -> None:
        """Zero every series but keep the registered metric objects."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


# ----------------------------------------------------------------------
# Exposition lint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sample:
    """One parsed exposition sample line."""

    name: str
    labels: dict[str, str]
    value: float


#: one quoted label pair; the value admits any escaped character, so
#: ``"``, ``\`` and ``}``/``=`` inside values cannot confuse the parser
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?:\{{(?P<labels>(?:{_LABEL_PAIR})(?:,(?:{_LABEL_PAIR}))*,?)?\}})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(value: str) -> str:
    """Exact inverse of the escaping applied by :func:`_format_labels`."""
    return _ESCAPE_RE.sub(
        lambda m: _UNESCAPES.get(m.group(1), m.group(1)), value
    )


def parse_exposition(text: str) -> list[Sample]:
    """Parse (and thereby lint) Prometheus text exposition.

    Raises :class:`ValueError` on the first malformed line; returns the
    parsed samples otherwise, so tests can cross-check exposition
    contents against in-process counters.  Label values are unescaped
    (``\\\\`` / ``\\"`` / ``\\n``), so a registry → :meth:`render_text`
    → ``parse_exposition`` round-trip reproduces the original label
    values exactly, whatever characters they contain.
    """
    samples: list[Sample] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped",
                ):
                    raise ValueError(f"line {lineno}: bad TYPE {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
            if not labels:
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value {value_text!r}"
            ) from None
        samples.append(Sample(match.group("name"), labels, value))
    return samples


# ----------------------------------------------------------------------
# Shared latency summaries (the one percentile/formatting code path)
# ----------------------------------------------------------------------
def percentile_ms(samples_seconds: Iterable[float], q: float) -> float:
    """Exact ``q``-th percentile (0-100) of latency samples, in ms."""
    values = sorted(samples_seconds)
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    rank = (q / 100.0) * (len(values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return 1000.0 * values[low]
    fraction = rank - low
    return 1000.0 * (values[low] * (1.0 - fraction) + values[high] * fraction)


def format_quantiles_ms(p50_ms: float, p99_ms: float) -> str:
    """Canonical ``p50=..ms p99=..ms`` rendering used by health text."""
    return f"p50={p50_ms:.2f}ms p99={p99_ms:.2f}ms"


class LatencyWindow:
    """Sliding window of raw latency samples with exact percentiles.

    The serving layer keeps one per tier; the benchmark harness builds
    one over a replay.  Exact quantiles over the window complement the
    registry's bucketed :class:`Histogram` (which is lossy but
    mergeable/exportable).
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)

    def observe(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def extend(self, samples_seconds: Iterable[float]) -> "LatencyWindow":
        self._samples.extend(map(float, samples_seconds))
        return self

    def percentile_ms(self, q: float) -> float:
        return percentile_ms(self._samples, q)

    def summary_text(self) -> str:
        return format_quantiles_ms(self.percentile_ms(50.0), self.percentile_ms(99.0))

    def __len__(self) -> int:
        return len(self._samples)


# ----------------------------------------------------------------------
# Module-level default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the instrumented layers feed."""
    return _default_registry


#: Canonical instrument names used by the instrumented layers.
ESTIMATOR_PHASE_SECONDS = "repro_estimator_phase_seconds"
SERVE_REQUESTS = "repro_serve_requests_total"
SERVE_TIER_ATTEMPTS = "repro_serve_tier_attempts_total"
SERVE_TIER_SECONDS = "repro_serve_tier_seconds"
SERVE_CACHE = "repro_serve_cache_total"
BREAKER_TRANSITIONS = "repro_breaker_transitions_total"
TRAIN_EPOCHS = "repro_training_epochs_total"
TRAIN_LOSS = "repro_training_loss"
TRAIN_EPOCH_SECONDS = "repro_training_epoch_seconds"
LIFECYCLE_TRANSITIONS = "repro_lifecycle_transitions_total"
LIFECYCLE_RETRAIN_ATTEMPTS = "repro_lifecycle_retrain_attempts_total"
LIFECYCLE_CHECKPOINTS = "repro_lifecycle_checkpoints_total"
LIFECYCLE_PROMOTIONS = "repro_lifecycle_promotions_total"
LIFECYCLE_MODEL_GENERATION = "repro_lifecycle_model_generation"
PARALLEL_TASKS = "repro_parallel_tasks_total"
PARALLEL_WORKER_SECONDS = "repro_parallel_worker_seconds_total"
PARALLEL_WORKERS = "repro_parallel_workers"
SHARD_REQUESTS = "repro_shard_requests_total"
SHARD_SHED = "repro_shard_shed_total"
SHARD_WORKER_RESTARTS = "repro_shard_worker_restarts_total"
SHARD_WORKERS = "repro_shard_workers"
SHARD_SWAPS = "repro_shard_swaps_total"
#: queries answered by worker processes, labelled {shard, worker,
#: worker_pid} after the transport merge — the per-worker serve counter
#: whose sum must equal the parent's accepted worker-path query count
WORKER_QUERIES = "repro_worker_queries_total"
#: telemetry items lost to bounded snapshot buffers (drop-oldest) or to
#: duplicate-snapshot dedupe, labelled {kind}
OBS_DROPPED = "repro_obs_dropped_total"
#: error-budget burn rate per {tenant, objective, window}
SLO_BURN_RATE = "repro_slo_burn_rate"
#: 1 while the {tenant, objective} SLO is breached, else 0
SLO_BREACHED = "repro_slo_breached"
#: breach/recovered transitions per {tenant, objective, transition}
SLO_TRANSITIONS = "repro_slo_transitions_total"
#: distilled-student answers, labelled {outcome}: "student" when the
#: confidence gate lets the student answer, "teacher" on fallback
FASTPATH_STUDENT = "repro_fastpath_student_total"
#: estimates pulled into the provable bound interval, labelled {reason}
#: ("above-upper" / "below-lower")
GUARD_CLAMPED = "repro_guard_clamped_total"
#: out-of-distribution guard decisions, labelled {action} ("reroute")
GUARD_OOD = "repro_guard_ood_total"
#: quarantine transitions, labelled {action} ("demote" / "readmit" /
#: "probe-failed")
GUARD_QUARANTINE = "repro_guard_quarantine_total"


def observe_phase(
    phase: str,
    estimator: str,
    seconds: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one fit/estimate/update latency sample for ``estimator``."""
    reg = registry if registry is not None else _default_registry
    reg.histogram(
        ESTIMATOR_PHASE_SECONDS,
        "Wall-clock seconds of estimator fit/estimate/update calls",
    ).observe(seconds, phase=phase, estimator=estimator)
