"""Tests for the observability layer (repro.obs) and its integrations."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core import Predicate, Query, generate_workload
from repro.estimators.learned import (
    LwNnEstimator,
    LwXgbEstimator,
    MscnEstimator,
    NaruEstimator,
)
from repro.estimators.traditional import SamplingEstimator
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    ESTIMATOR_PHASE_SECONDS,
    TRAIN_EPOCHS,
    TRAIN_LOSS,
    EventLog,
    Histogram,
    LatencyWindow,
    MetricsRegistry,
    SpanCollector,
    TrainingMonitor,
    format_quantiles_ms,
    get_collector,
    get_monitor,
    install_collector,
    install_monitor,
    log_spaced_buckets,
    monitored_training,
    parse_exposition,
    percentile_ms,
    span,
    timed_span,
    uninstall_collector,
)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "help text")
        c.inc(tier="a")
        c.inc(2.0, tier="a")
        c.inc(tier="b")
        assert c.value(tier="a") == 3.0
        assert c.value(tier="b") == 1.0
        assert c.value(tier="missing") == 0.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_set_and_inc(self):
        g = MetricsRegistry().gauge("loss")
        g.set(2.5, model="naru")
        g.inc(-1.0, model="naru")
        assert g.value(model="naru") == 1.5

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError, match="counter"):
            reg.gauge("x_total")

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total").inc(**{"9bad": 1})

    def test_invalid_label_raises_on_every_call(self):
        # Validated label keys are memoized; a rejected label set never is.
        for metric, record in (
            (obs.Counter("c_total"), lambda m, **kw: m.inc(**kw)),
            (obs.Gauge("g"), lambda m, **kw: m.set(1.0, **kw)),
            (Histogram("h_seconds"), lambda m, **kw: m.observe(0.1, **kw)),
        ):
            for _ in range(3):
                with pytest.raises(ValueError, match="invalid label name"):
                    record(metric, tier="a", **{"bad-name": "x"})
                record(metric, tier="a")
            record(metric, tier="a", shard="s")
            with pytest.raises(ValueError, match="invalid label name"):
                record(metric, tier="a", **{"bad-name": "s"})

    def test_permuted_labels_land_on_one_series(self):
        c = obs.Counter("c_total")
        c.inc(tier="a", shard="s")
        c.inc(shard="s", tier="a")
        c.inc(2.0, **{"shard": "s", "tier": "a"})
        assert c.value(tier="a", shard="s") == 4.0
        assert [s["value"] for s in c.snapshot()["series"]] == [4.0]
        h = Histogram("h_seconds", buckets=(1.0,))
        h.observe(0.5, phase="estimate", estimator="naru")
        h.observe(0.5, estimator="naru", phase="estimate")
        assert len(h.snapshot()["series"]) == 1
        assert h.count(phase="estimate", estimator="naru") == 2

    def test_equal_label_values_of_other_types_keep_their_series(self):
        # 1, 1.0 and True hash alike but render differently.
        c = obs.Counter("c_total")
        for value in ("1", 1, 1.0, True, "1"):
            c.inc(flag=value)
        assert {s["labels"]["flag"]: s["value"] for s in c.snapshot()["series"]} == {
            "1": 3.0,
            "1.0": 1.0,
            "True": 1.0,
        }

    def test_log_spaced_buckets(self):
        bounds = log_spaced_buckets(1e-3, 1.0, per_decade=2)
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] == pytest.approx(1.0)
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(math.sqrt(10.0)) for r in ratios)
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(100.0)

    def test_histogram_observe_and_quantile(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.05)
        assert 0.1 <= h.quantile(0.5) <= 1.0
        h.observe(100.0)  # lands in +Inf bucket
        assert h.count() == 5
        assert h.quantile(1.0) == 10.0  # capped at the last finite bound

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05, tier="a")
        h.observe(0.5, tier="a")
        samples = {
            (s.name, tuple(sorted(s.labels.items()))): s.value
            for s in parse_exposition(reg.render_text())
        }
        def key(le=None):
            labels = {"tier": "a"} | ({"le": le} if le is not None else {})
            return tuple(sorted(labels.items()))

        assert samples[("lat_seconds_bucket", key("0.1"))] == 1
        assert samples[("lat_seconds_bucket", key("1"))] == 2
        assert samples[("lat_seconds_bucket", key("+Inf"))] == 2
        assert samples[("lat_seconds_count", key())] == 2

    def test_render_text_lints_and_snapshot_is_json_safe(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total", "with help").inc(tier='we"ird')
        reg.gauge("b").set(float("nan"))
        reg.histogram("c_seconds", buckets=(1.0,)).observe(0.5)
        samples = parse_exposition(reg.render_text())
        assert any(s.name == "a_total" for s in samples)
        path = tmp_path / "metrics.json"
        reg.to_json(path)
        snapshot = json.loads(path.read_text())
        assert snapshot["a_total"]["kind"] == "counter"
        assert snapshot["c_seconds"]["series"][0]["count"] == 1

    def test_reset_zeroes_but_keeps_metrics(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.reset()
        assert reg.counter("a_total").value() == 0.0
        assert reg.names() == ["a_total"]

    def test_parse_exposition_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("this is { not a sample\n")
        with pytest.raises(ValueError, match="bad TYPE"):
            parse_exposition("# TYPE x flamegraph\n")
        with pytest.raises(ValueError, match="malformed value"):
            parse_exposition("x_total 1.2.3\n")

    @pytest.mark.parametrize(
        "value",
        [
            'quo"te',
            "back\\slash",
            "new\nline",
            'all\\three\n"at once"',
            r"literal \n not a newline",
            "",
        ],
    )
    def test_label_escaping_round_trips(self, value):
        """render_text → parse_exposition reproduces the original label
        value exactly, whatever characters it contains."""
        reg = MetricsRegistry()
        reg.counter("rt_total").inc(3, tier=value)
        (sample,) = parse_exposition(reg.render_text())
        assert sample.name == "rt_total"
        assert sample.labels == {"tier": value}
        assert sample.value == 3.0

    def test_escaped_values_cannot_confuse_the_parser(self):
        """Braces, equals signs and commas inside label values must not
        split or terminate the label block."""
        reg = MetricsRegistry()
        hostile = 'a="b",c}d 9'
        reg.counter("rt_total").inc(tier=hostile, other="x")
        (sample,) = parse_exposition(reg.render_text())
        assert sample.labels == {"tier": hostile, "other": "x"}
        assert sample.value == 1.0


class TestLatencySummaries:
    def test_percentile_ms_matches_numpy(self):
        samples = [0.001, 0.002, 0.004, 0.010, 0.100]
        for q in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile_ms(samples, q) == pytest.approx(
                float(np.percentile([1000.0 * s for s in samples], q))
            )
        assert percentile_ms([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile_ms([0.1], 150.0)

    def test_latency_window_slides(self):
        window = LatencyWindow(maxlen=3)
        window.extend([1.0, 2.0, 3.0, 4.0])
        assert len(window) == 3
        assert window.percentile_ms(0.0) == pytest.approx(2000.0)
        assert "p50=" in window.summary_text() and "p99=" in window.summary_text()

    def test_format_quantiles_ms(self):
        assert format_quantiles_ms(1.234, 9.876) == "p50=1.23ms p99=9.88ms"


# ----------------------------------------------------------------------
# Tracing spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_fast_path_without_collector(self):
        assert get_collector() is None
        with span("anything") as record:
            assert record is None

    def test_nesting_links_parents(self):
        collector = install_collector()
        with span("outer") as outer:
            with span("inner"):
                pass
        inner_span, outer_span = collector.spans("inner")[0], collector.spans("outer")[0]
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert collector.children(outer_span) == [inner_span]
        assert outer is outer_span

    def test_error_status_and_attrs(self):
        collector = install_collector()
        with pytest.raises(RuntimeError):
            with span("boom", tier="naru"):
                raise RuntimeError("nope")
        record = collector.spans("boom")[0]
        assert record.status == "error"
        assert record.attrs["tier"] == "naru"
        assert record.duration_seconds >= 0.0

    def test_ring_buffer_evicts_oldest(self):
        collector = install_collector(SpanCollector(capacity=2))
        for name in ("a", "b", "c"):
            with span(name):
                pass
        assert [s.name for s in collector.spans()] == ["b", "c"]

    def test_timed_span_measures_without_collector(self):
        with timed_span("work") as timer:
            pass
        assert timer.elapsed >= 0.0
        assert timer.span is None

    def test_timed_span_agrees_with_span_record(self):
        collector = install_collector()
        with timed_span("work") as timer:
            pass
        record = collector.spans("work")[0]
        assert timer.span is record
        assert timer.elapsed == pytest.approx(record.duration_seconds)

    def test_jsonl_round_trip(self, tmp_path):
        collector = install_collector()
        with span("outer", tier="x"):
            with span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        assert collector.to_jsonl(path) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {r["name"]: r for r in rows}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["attrs"] == {"tier": "x"}

    def test_uninstall_restores_fast_path(self):
        install_collector()
        uninstall_collector()
        with span("quiet") as record:
            assert record is None


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEvents:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit("breaker.transition", breaker="naru", old="closed", new="open")
        log.emit("serve.fallback", tier="sampling")
        log.emit("breaker.transition", breaker="mscn", old="closed", new="open")
        assert len(log) == 3
        assert [e["breaker"] for e in log.events("breaker.transition")] == [
            "naru",
            "mscn",
        ]
        assert log.events("breaker.transition", breaker="naru")[0]["new"] == "open"
        assert log.kinds()["breaker.transition"] == 2

    def test_ring_buffer_and_jsonl(self, tmp_path):
        log = EventLog(capacity=2)
        for i in range(3):
            log.emit("tick", i=i)
        assert [e["i"] for e in log.events()] == [1, 2]
        path = tmp_path / "events.jsonl"
        assert log.to_jsonl(path) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["i"] for r in rows] == [1, 2]

    def test_timestamps_are_monotonic(self):
        log = EventLog()
        first = log.emit("a")
        second = log.emit("b")
        assert second.seconds >= first.seconds


# ----------------------------------------------------------------------
# Training monitor
# ----------------------------------------------------------------------
class TestTrainingMonitor:
    def test_on_epoch_feeds_records_metrics_events(self):
        registry = MetricsRegistry()
        events = EventLog()
        monitor = TrainingMonitor(registry=registry, events=events)
        monitor.on_epoch("naru", epoch=0, loss=3.0, grad_norm=1.5, seconds=0.1)
        monitor.on_epoch("naru", epoch=1, loss=2.0, seconds=0.1)
        assert monitor.losses("naru") == [3.0, 2.0]
        assert monitor.models() == ["naru"]
        assert registry.counter(TRAIN_EPOCHS).value(model="naru") == 2
        assert registry.gauge(TRAIN_LOSS).value(model="naru") == 2.0
        assert [e["epoch"] for e in events.events("train.epoch")] == [0, 1]

    def test_monitored_training_restores_previous(self):
        assert get_monitor() is None
        outer = install_monitor()
        with monitored_training() as inner:
            assert get_monitor() is inner
            assert inner is not outer
        assert get_monitor() is outer

    def test_reset_for_tests_clears_everything(self):
        install_monitor()
        install_collector()
        obs.emit("anything")
        obs.get_registry().counter("stray_total").inc()
        obs.reset_for_tests()
        assert get_monitor() is None
        assert get_collector() is None
        assert len(obs.get_events()) == 0
        assert obs.get_registry().counter("stray_total").value() == 0.0


# ----------------------------------------------------------------------
# Estimator instrumentation (TimingRecord <- timed_span, satellite 1)
# ----------------------------------------------------------------------
class TestEstimatorInstrumentation:
    def test_fit_seconds_accumulates_across_refits(self, tiny_table):
        est = SamplingEstimator()
        est.fit(tiny_table)
        first = est.timing.fit_seconds
        assert est.timing.fit_count == 1
        assert first > 0.0
        est.fit(tiny_table)
        assert est.timing.fit_count == 2
        assert est.timing.fit_seconds > first
        assert est.timing.mean_fit_seconds == pytest.approx(
            est.timing.fit_seconds / 2
        )

    def test_phases_feed_the_default_histogram(self, tiny_table):
        est = SamplingEstimator().fit(tiny_table)
        est.estimate(Query((Predicate(0, 0.0, 2.0),)))
        hist = obs.get_registry().get(ESTIMATOR_PHASE_SECONDS)
        assert hist.count(phase="fit", estimator="sampling") == 1
        assert hist.count(phase="estimate", estimator="sampling") == 1

    def test_fit_and_estimate_record_spans_when_collecting(self, tiny_table):
        collector = install_collector()
        est = SamplingEstimator().fit(tiny_table)
        est.estimate(Query((Predicate(0, 0.0, 2.0),)))
        names = collector.names()
        assert names["estimator.fit"] == 1
        assert names["estimator.estimate"] == 1
        fit_span = collector.spans("estimator.fit")[0]
        assert fit_span.attrs["estimator"] == "sampling"
        assert fit_span.duration_seconds == pytest.approx(
            est.timing.fit_seconds, rel=0.5
        )


# ----------------------------------------------------------------------
# Batch-inference instrumentation (estimate_many accounting)
# ----------------------------------------------------------------------
class TestBatchInstrumentation:
    @staticmethod
    def _queries(n):
        return [Query((Predicate(0, 0.0, 2.0),))] * n

    def test_batch_counts_every_query(self, tiny_table):
        est = SamplingEstimator().fit(tiny_table)
        est.estimate_many(self._queries(7))
        assert est.timing.inference_count == 7
        assert est.timing.total_inference_seconds > 0.0
        # A follow-up scalar estimate keeps accumulating on top.
        est.estimate(Query((Predicate(0, 0.0, 2.0),)))
        assert est.timing.inference_count == 8

    def test_batch_observes_estimate_phase_once(self, tiny_table):
        est = SamplingEstimator().fit(tiny_table)
        est.estimate_many(self._queries(5))
        hist = obs.get_registry().get(ESTIMATOR_PHASE_SECONDS)
        assert hist.count(phase="estimate", estimator="sampling") == 1

    def test_batch_records_a_single_span(self, tiny_table):
        # Regression: estimate_many used to re-enter timed_span once per
        # query, emitting N per-query spans (and N phase observations)
        # for one logical batch call.
        collector = install_collector()
        est = SamplingEstimator().fit(tiny_table)
        est.estimate_many(self._queries(9))
        names = collector.names()
        assert names["estimator.estimate_batch"] == 1
        assert names.get("estimator.estimate", 0) == 0
        span = collector.spans("estimator.estimate_batch")[0]
        assert span.attrs["estimator"] == "sampling"
        assert span.attrs["batch"] == 9


# ----------------------------------------------------------------------
# Training-loop telemetry (per-epoch loss for the learned methods)
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_workload(tiny_table, rng):
    return generate_workload(tiny_table, 40, rng)


class TestTrainingTelemetry:
    def _fit(self, estimator, tiny_table, tiny_workload):
        with monitored_training() as monitor:
            estimator.fit(
                tiny_table,
                tiny_workload if estimator.requires_workload else None,
            )
        return monitor

    def test_naru_reports_epochs(self, tiny_table, tiny_workload):
        est = NaruEstimator(hidden_units=8, hidden_layers=1, epochs=2, num_samples=20)
        monitor = self._fit(est, tiny_table, tiny_workload)
        records = monitor.records_for("naru")
        assert [r.epoch for r in records] == [0, 1]
        assert all(math.isfinite(r.loss) for r in records)
        assert all(r.grad_norm is not None and r.grad_norm >= 0.0 for r in records)
        assert monitor.losses("naru") == est.loss_history

    def test_lw_nn_reports_epochs(self, tiny_table, tiny_workload):
        est = LwNnEstimator(hidden_units=(8,), epochs=3)
        monitor = self._fit(est, tiny_table, tiny_workload)
        assert len(monitor.records_for("lw-nn")) == 3
        assert monitor.losses("lw-nn") == est.loss_history

    def test_mscn_reports_epochs(self, tiny_table, tiny_workload):
        est = MscnEstimator(hidden_units=8, sample_size=10, epochs=2)
        monitor = self._fit(est, tiny_table, tiny_workload)
        assert len(monitor.records_for("mscn")) == 2

    def test_lw_xgb_reports_boosting_rounds(self, tiny_table, tiny_workload):
        est = LwXgbEstimator(num_trees=4, max_depth=2)
        monitor = self._fit(est, tiny_table, tiny_workload)
        records = monitor.records_for("lw-xgb")
        assert [r.epoch for r in records] == [0, 1, 2, 3]
        # squared-loss boosting: residual MSE is non-increasing
        losses = monitor.losses("lw-xgb")
        assert losses == sorted(losses, reverse=True)

    def test_no_monitor_means_no_records(self, tiny_table, tiny_workload):
        assert get_monitor() is None
        LwNnEstimator(hidden_units=(8,), epochs=1).fit(tiny_table, tiny_workload)
        assert len(obs.get_events().events("train.epoch")) == 0


# ----------------------------------------------------------------------
# Serving spans (service -> tier parent links)
# ----------------------------------------------------------------------
class TestServingSpans:
    def test_serve_spans_nest_tier_attempts(self, tiny_table):
        from repro.serve import EstimatorService

        collector = install_collector()
        svc = EstimatorService(
            [SamplingEstimator(), SamplingEstimator()], deadline_ms=None
        )
        svc.fit(tiny_table)
        collector.clear()  # drop the fit spans; inspect serving only
        svc.serve(Query((Predicate(0, 0.0, 2.0),)))
        serve_spans = collector.spans("serve")
        assert len(serve_spans) == 1
        tier_spans = collector.children(serve_spans[0])
        assert [s.name for s in tier_spans] == ["serve.tier"]
        assert tier_spans[0].attrs["outcome"] == "served"
        assert serve_spans[0].attrs["tier"] == "sampling"
