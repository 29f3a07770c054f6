"""Cross-process telemetry, per-tenant SLOs, and exemplars (PR 7).

Unit coverage for the observability additions the sharded serving tier
rides on:

* :mod:`repro.obs.transport` — worker-side delta capture with bounded
  drop-oldest buffers, and the parent-side merge that dedupes on
  ``(worker_pid, seq)`` so a retransmitted snapshot can never
  double-count;
* span re-parenting: a worker span recorded under a propagated trace
  context links back to the dispatching ``serve.batch`` span after the
  merge;
* :mod:`repro.obs.slo` — multi-window burn-rate breach/recovery;
* :mod:`repro.obs.exemplars` — per-tenant top-K boards;
* the ``record_actual`` feedback loop through a shard router, and the
  SLO signal into :class:`~repro.lifecycle.drift.DriftDetector`;
* :func:`repro.obs.reset_for_tests` covering all of the above.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import CardinalityEstimator, Predicate, Query, generate_workload
from repro.faults import SlowWorkerFault
from repro.lifecycle.drift import DriftDetector
from repro.obs import (
    LATENCY,
    OBS_DROPPED,
    QERROR,
    EventLog,
    Exemplar,
    ExemplarStore,
    MetricsRegistry,
    SloObjective,
    SloRegistry,
    Span,
    SpanCollector,
    TelemetryCapture,
    TelemetryMerger,
    TelemetrySnapshot,
    clear_trace_context,
    current_trace_context,
    get_capture,
    get_collector,
    get_exemplars,
    get_slos,
    install_collector,
    install_worker_capture,
    set_trace_context,
    span,
)
from repro.serve.heuristic import HeuristicConstantEstimator
from repro.shard import ShardRequest, ShardRouter


class ConstantEstimator(CardinalityEstimator):
    """Answers a constant; fit is free."""

    def __init__(self, value: float = 5.0, name: str = "constant") -> None:
        super().__init__()
        self.value = value
        self.name = name

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return self.value


def distinct_queries(n: int) -> list[Query]:
    return [
        Query((Predicate(0, float(i % 6), float(i % 6) + 0.5 + i),))
        for i in range(n)
    ]


def make_span(i: int, name: str = "s") -> Span:
    return Span(
        name=name,
        span_id=1000 + i,
        parent_id=None,
        trace_id=77,
        start=float(i),
        end=float(i) + 0.5,
        attrs={"i": i},
    )


def fresh_capture(**kwargs) -> TelemetryCapture:
    defaults = dict(
        shard="s0",
        worker="w0",
        registry=MetricsRegistry(),
        collector=SpanCollector(),
        events=EventLog(),
    )
    defaults.update(kwargs)
    return TelemetryCapture(**defaults)


# ----------------------------------------------------------------------
# Worker-side delta capture
# ----------------------------------------------------------------------
class TestTelemetryCapture:
    def test_take_is_a_delta(self):
        registry = MetricsRegistry()
        capture = fresh_capture(registry=registry)
        registry.counter("test_queries_total").inc(3)
        first = capture.take()
        assert first.metrics["test_queries_total"]["series"][0]["value"] == 3.0
        # the registry was reset: the next take carries no series
        second = capture.take()
        assert second.metrics["test_queries_total"]["series"] == []

    def test_seq_increments_per_take(self):
        capture = fresh_capture()
        assert [capture.take().seq for _ in range(3)] == [1, 2, 3]

    def test_identity_labels_ride_the_snapshot(self):
        snapshot = fresh_capture(shard="shard-3", worker="w1").take()
        assert snapshot.shard == "shard-3"
        assert snapshot.worker == "w1"
        assert snapshot.worker_pid > 0

    def test_empty_snapshot_is_empty(self):
        assert fresh_capture().take().is_empty()

    def test_spans_truncated_drop_oldest(self):
        collector = SpanCollector()
        capture = fresh_capture(collector=collector, max_spans=2)
        for i in range(5):
            collector.add(make_span(i))
        snapshot = capture.take()
        assert [s["span_id"] for s in snapshot.spans] == [1003, 1004]
        assert snapshot.dropped_spans == 3

    def test_ring_eviction_between_takes_is_counted(self):
        collector = SpanCollector(capacity=2)
        capture = fresh_capture(collector=collector)
        for i in range(5):
            collector.add(make_span(i))
        snapshot = capture.take()
        assert len(snapshot.spans) == 2
        assert snapshot.dropped_spans == 3

    def test_events_truncated_drop_oldest(self):
        events = EventLog()
        capture = fresh_capture(events=events, max_events=2)
        for i in range(5):
            events.emit("tick", i=i)
        snapshot = capture.take()
        assert [e["i"] for e in snapshot.events] == [3, 4]
        assert snapshot.dropped_events == 3

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="bounds"):
            fresh_capture(max_spans=0)

    def test_install_worker_capture_registers_singleton(self):
        capture = install_worker_capture("s0", "w0")
        assert get_capture() is capture
        assert get_collector() is capture.collector


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------
def counter_snapshot(value: float, seq: int = 1, pid: int = 1234) -> TelemetrySnapshot:
    return TelemetrySnapshot(
        worker_pid=pid,
        worker="w0",
        shard="s0",
        seq=seq,
        metrics={
            "test_queries_total": {
                "kind": "counter",
                "help": "",
                "series": [{"labels": {"worker": "w0"}, "value": value}],
            }
        },
    )


class TestTelemetryMerger:
    def test_counters_gain_shard_and_pid_labels(self):
        registry = MetricsRegistry()
        merger = TelemetryMerger(registry=registry)
        assert merger.merge(counter_snapshot(5.0)) is True
        assert (
            registry.counter("test_queries_total").value(
                worker="w0", shard="s0", worker_pid=1234
            )
            == 5.0
        )

    def test_merge_is_idempotent_on_worker_pid_and_seq(self):
        """The dedupe satellite: a retransmitted snapshot (same
        ``(worker_pid, seq)``) is dropped whole, not double-counted."""
        registry = MetricsRegistry()
        merger = TelemetryMerger(registry=registry)
        snapshot = counter_snapshot(5.0)
        assert merger.merge(snapshot) is True
        assert merger.merge(snapshot) is False
        assert (
            registry.counter("test_queries_total").value(
                worker="w0", shard="s0", worker_pid=1234
            )
            == 5.0
        )
        assert merger.duplicate_total == 1
        assert (
            registry.counter(OBS_DROPPED).value(kind="duplicate_snapshot")
            == 1.0
        )

    def test_stale_seq_rejected(self):
        merger = TelemetryMerger(registry=MetricsRegistry())
        assert merger.merge(counter_snapshot(1.0, seq=2)) is True
        assert merger.merge(counter_snapshot(1.0, seq=1)) is False

    def test_same_seq_from_distinct_workers_both_merge(self):
        registry = MetricsRegistry()
        merger = TelemetryMerger(registry=registry)
        assert merger.merge(counter_snapshot(1.0, pid=1)) is True
        assert merger.merge(counter_snapshot(1.0, pid=2)) is True
        assert merger.merged_total == 2

    def test_merge_none_is_noop(self):
        assert TelemetryMerger(registry=MetricsRegistry()).merge(None) is False

    def test_spans_rehomed_with_identity_attrs(self):
        collector = SpanCollector()
        merger = TelemetryMerger(
            registry=MetricsRegistry(), collector=collector
        )
        snapshot = TelemetrySnapshot(
            worker_pid=1234,
            worker="w0",
            shard="s0",
            seq=1,
            spans=(make_span(0, name="estimator.estimate_batch").to_dict(),),
        )
        merger.merge(snapshot)
        (merged,) = collector.spans()
        assert merged.name == "estimator.estimate_batch"
        assert merged.attrs["worker_pid"] == 1234
        assert merged.attrs["shard"] == "s0"

    def test_spans_without_collector_counted_dropped(self):
        registry = MetricsRegistry()
        merger = TelemetryMerger(registry=registry)
        snapshot = TelemetrySnapshot(
            worker_pid=1,
            worker="w0",
            shard="s0",
            seq=1,
            spans=(make_span(0).to_dict(), make_span(1).to_dict()),
        )
        merger.merge(snapshot)
        assert registry.counter(OBS_DROPPED).value(kind="span") == 2.0

    def test_events_reemitted_with_worker_pid(self):
        events = EventLog()
        merger = TelemetryMerger(registry=MetricsRegistry(), events=events)
        snapshot = TelemetrySnapshot(
            worker_pid=42,
            worker="w0",
            shard="s0",
            seq=1,
            events=({"kind": "worker.thing", "seconds": 1.0, "detail": "x"},),
        )
        merger.merge(snapshot)
        (event,) = events.events(kind="worker.thing")
        assert event["detail"] == "x"
        assert event["worker_pid"] == 42

    def test_worker_side_drops_folded_into_parent_counter(self):
        registry = MetricsRegistry()
        merger = TelemetryMerger(registry=registry)
        snapshot = TelemetrySnapshot(
            worker_pid=1,
            worker="w0",
            shard="s0",
            seq=1,
            dropped_spans=2,
            dropped_events=3,
        )
        merger.merge(snapshot)
        dropped = registry.counter(OBS_DROPPED)
        assert dropped.value(kind="span") == 2.0
        assert dropped.value(kind="event") == 3.0


class TestSpanReparenting:
    def test_worker_span_links_under_dispatching_span(self):
        """Round-trip of the trace-context envelope: the worker adopts
        ``(trace_id, span_id)`` of the parent's ``serve.batch`` span, so
        its spans re-parent under it in the merged trace."""
        parent_collector = install_collector(SpanCollector())
        with span("serve.batch", shard="s0") as root:
            pass
        assert root is not None

        # "worker side": fresh collector, trace context from the envelope
        worker_collector = install_collector(SpanCollector())
        set_trace_context(root.trace_id, root.span_id)
        try:
            with span("estimator.estimate_batch"):
                pass
        finally:
            clear_trace_context()
        snapshot = fresh_capture(collector=worker_collector).take()

        merger = TelemetryMerger(
            registry=MetricsRegistry(), collector=parent_collector
        )
        merger.merge(snapshot)
        worker_spans = [
            s for s in parent_collector.spans() if "worker_pid" in s.attrs
        ]
        assert len(worker_spans) == 1
        assert worker_spans[0].parent_id == root.span_id
        assert worker_spans[0].trace_id == root.trace_id


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------
def tiny_objective(objective: str = LATENCY, **overrides) -> SloObjective:
    params = dict(
        objective=objective,
        threshold=1.0,  # 1 ms (latency) / ratio 1.0 (q-error) per-sample cut
        target=0.9,
        fast_window=4,
        slow_window=8,
        breach_burn_rate=2.0,
        recover_burn_rate=1.0,
        min_samples=4,
    )
    params.update(overrides)
    return SloObjective(**params)


class TestSloEngine:
    def test_noop_without_objectives(self):
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        assert slos.record_latency("t0", 100.0) is False
        assert slos.statuses() == []
        assert not slos.has_objectives()

    def test_breach_then_recovery_emits_events(self):
        registry, events = MetricsRegistry(), EventLog()
        slos = SloRegistry(registry=registry, events=events)
        slos.set_objective(tiny_objective())
        transitions = [slos.record_latency("t0", 0.005) for _ in range(8)]
        # breach the moment both windows have min_samples and burn hot
        assert transitions.index(True) == 3
        assert len(events.events(kind="slo.breach")) == 1
        assert slos.any_breached(LATENCY)
        assert slos.breached_tenants() == ["t0"]

        recovered = [slos.record_latency("t0", 0.0001) for _ in range(4)]
        assert recovered[-1] is True
        assert len(events.events(kind="slo.recovered")) == 1
        assert not slos.any_breached()
        (status,) = slos.statuses()
        assert status.breaches == 1 and status.recoveries == 1
        assert status.samples == 12 and status.bad_samples == 8

    def test_slow_window_vetoes_a_momentary_spike(self):
        """The multi-window rule: a burst that fills the fast window but
        not the slow one must not page."""
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(slow_window=40))
        for _ in range(36):
            assert slos.record_latency("t0", 0.0001) is False
        # 4 bad: fast window is 100% bad, slow is 4/40 = burn 1.0 < 2.0
        for _ in range(4):
            assert slos.record_latency("t0", 0.005) is False
        assert not slos.any_breached()
        # 4 more bad pushes the slow window over the breach rate too
        flips = [slos.record_latency("t0", 0.005) for _ in range(4)]
        assert flips[-1] is True
        assert slos.any_breached(LATENCY)

    def test_min_samples_gates_early_breach(self):
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(slow_window=16, min_samples=8))
        for _ in range(7):
            assert slos.record_latency("t0", 0.005) is False
        assert slos.record_latency("t0", 0.005) is True

    def test_qerror_objective_via_feedback_path(self):
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(QERROR, threshold=4.0))
        for _ in range(4):
            slos.record_qerror("t0", 50.0)
        assert slos.any_breached(QERROR)
        assert not slos.any_breached(LATENCY)

    def test_per_tenant_override_wins_over_default(self):
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(threshold=1.0))
        slos.set_objective(tiny_objective(threshold=1000.0), tenant="vip")
        for _ in range(8):
            slos.record_latency("t0", 0.005)
            slos.record_latency("vip", 0.005)
        assert slos.breached_tenants() == ["t0"]

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="objective"):
            SloObjective("uptime", threshold=1.0)
        with pytest.raises(ValueError, match="target"):
            SloObjective(LATENCY, threshold=1.0, target=1.0)
        with pytest.raises(ValueError, match="fast_window"):
            SloObjective(LATENCY, threshold=1.0, fast_window=8, slow_window=4)

    def test_transition_counter_and_breached_gauge(self):
        registry = MetricsRegistry()
        slos = SloRegistry(registry=registry, events=EventLog())
        slos.set_objective(tiny_objective())
        for _ in range(8):
            slos.record_latency("t0", 0.005)
        from repro.obs import SLO_BREACHED, SLO_TRANSITIONS

        assert (
            registry.counter(SLO_TRANSITIONS).value(
                tenant="t0", objective=LATENCY, transition="breach"
            )
            == 1.0
        )
        assert (
            registry.gauge(SLO_BREACHED).value(tenant="t0", objective=LATENCY)
            == 1.0
        )


class TestDriftSloSignal:
    def test_breached_accuracy_slo_trips_the_detector(self, tiny_table):
        estimator = ConstantEstimator(2.0).fit(tiny_table)
        probe = generate_workload(tiny_table, 6, np.random.default_rng(3))
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(QERROR, threshold=4.0))
        detector = DriftDetector(probe, slos=slos)
        detector.set_baseline(estimator, tiny_table)

        clean = detector.check(estimator, tiny_table)
        assert not clean.drifted

        for _ in range(4):
            slos.record_qerror("t0", 100.0)
        decision = detector.check(estimator, tiny_table)
        assert decision.drifted
        assert decision.reasons == ("slo",)
        assert decision.slo_tenants == ("t0",)


# ----------------------------------------------------------------------
# Exemplars
# ----------------------------------------------------------------------
def exemplar(tenant="t0", latency=0.001, qerror=None, trace_id=None, tag="q"):
    return Exemplar(
        tenant=tenant,
        estimator="worker",
        query=tag,
        estimate=10.0,
        latency_seconds=latency,
        actual=10.0 * (qerror or 1.0),
        qerror=qerror,
        trace_id=trace_id,
    )


class TestExemplarStore:
    def test_topk_keeps_the_worst_in_descending_order(self):
        store = ExemplarStore(per_tenant=2)
        for q in (3.0, 9.0, 1.5, 7.0):
            store.record_qerror(exemplar(qerror=q, tag=f"q{q}"))
        assert [e.qerror for e in store.worst_qerror("t0")] == [9.0, 7.0]

    def test_would_record_uses_the_board_floor(self):
        store = ExemplarStore(per_tenant=2)
        assert store.would_record_latency("t0", 0.0001)  # room on the board
        store.record_latency(exemplar(latency=0.5))
        store.record_latency(exemplar(latency=0.9))
        assert not store.would_record_latency("t0", 0.4)
        assert store.would_record_latency("t0", 0.6)

    def test_qerror_board_requires_a_qerror(self):
        with pytest.raises(ValueError, match="qerror"):
            ExemplarStore().record_qerror(exemplar(qerror=None))

    def test_merged_view_sorts_across_tenants(self):
        store = ExemplarStore(per_tenant=4)
        store.record_latency(exemplar(tenant="a", latency=0.1))
        store.record_latency(exemplar(tenant="b", latency=0.3))
        store.record_latency(exemplar(tenant="a", latency=0.2))
        assert [e.latency_seconds for e in store.slowest()] == [0.3, 0.2, 0.1]
        assert store.tenants() == ["a", "b"]

    def test_jsonl_export_tags_boards_and_links_traces(self, tmp_path):
        store = ExemplarStore()
        store.record_latency(exemplar(latency=0.5, trace_id=777))
        store.record_qerror(exemplar(qerror=9.0, trace_id=778))
        path = tmp_path / "exemplars.jsonl"
        assert store.to_jsonl(path) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        boards = {r["board"] for r in records}
        assert boards == {"slowest", "worst_qerror"}
        assert {r["trace_id"] for r in records} == {777, 778}

    def test_clear_empties_every_board(self):
        store = ExemplarStore()
        store.record_latency(exemplar())
        store.record_qerror(exemplar(qerror=2.0))
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


# ----------------------------------------------------------------------
# The record_actual feedback loop through the router (inline, no forks)
# ----------------------------------------------------------------------
class TestRecordActualFeedback:
    def test_feedback_updates_slo_and_exemplar_board(self, tiny_table):
        estimator = ConstantEstimator(2.0).fit(tiny_table)
        heuristic = HeuristicConstantEstimator()
        heuristic.fit(tiny_table)
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        slos.set_objective(tiny_objective(QERROR, threshold=4.0))
        exemplars = ExemplarStore(per_tenant=4)
        router = ShardRouter(
            estimator,
            [heuristic],
            num_shards=2,
            mode="inline",
            registry=MetricsRegistry(),
            events=EventLog(),
            slos=slos,
            exemplars=exemplars,
        )
        requests = [
            ShardRequest(query=q, tenant="t0") for q in distinct_queries(6)
        ]
        with router:
            served = router.serve_batch(requests)
            qerror = router.record_actual(requests[0], served[0], actual=12.0)
        assert qerror == pytest.approx(6.0)  # estimate 2 vs actual 12
        (status,) = [s for s in slos.statuses() if s.objective == QERROR]
        assert status.samples == 1 and status.bad_samples == 1
        worst = exemplars.worst_qerror("t0")
        assert worst and worst[0].qerror == pytest.approx(6.0)
        assert worst[0].actual == 12.0

    def test_latency_slo_fed_by_serving_path(self, tiny_table):
        estimator = ConstantEstimator(2.0).fit(tiny_table)
        heuristic = HeuristicConstantEstimator()
        heuristic.fit(tiny_table)
        slos = SloRegistry(registry=MetricsRegistry(), events=EventLog())
        # threshold far above anything real: samples flow, no breach
        slos.set_objective(tiny_objective(threshold=10_000.0))
        router = ShardRouter(
            estimator,
            [heuristic],
            num_shards=1,
            mode="inline",
            registry=MetricsRegistry(),
            events=EventLog(),
            slos=slos,
            exemplars=ExemplarStore(),
        )
        with router:
            router.serve_batch(
                [ShardRequest(query=q, tenant="t0") for q in distinct_queries(5)]
            )
        (status,) = slos.statuses()
        assert status.objective == LATENCY
        assert status.samples == 5
        assert not status.breached

    def test_slow_workers_breach_then_clean_swap_recovers(self, tiny_table):
        clean = ConstantEstimator(2.0).fit(tiny_table)
        slow = SlowWorkerFault(ConstantEstimator(2.0), delay_seconds=0.02)
        slow.fit(tiny_table)
        events = EventLog()
        slos = SloRegistry(registry=MetricsRegistry(), events=events)
        # 1 ms per request; a slowed batch of 4 costs >= 5 ms per request
        slos.set_objective(tiny_objective())
        router = ShardRouter(
            clean,
            [HeuristicConstantEstimator().fit(tiny_table)],
            num_shards=1,
            mode="inline",
            worker_estimator=slow,
            registry=MetricsRegistry(),
            events=events,
            slos=slos,
            exemplars=ExemplarStore(),
        )

        def serve_twice():
            for _ in range(2):
                router.serve_batch(
                    [ShardRequest(query=q, tenant="t0") for q in distinct_queries(4)]
                )

        with router:
            serve_twice()
            assert slos.breached_tenants() == ["t0"]
            assert router.rolling_swap(clean).promoted
            serve_twice()
        assert not slos.any_breached()
        transitions = [
            e.kind for e in events.events() if e.kind.startswith("slo.")
        ]
        assert transitions == ["slo.breach", "slo.recovered"]


# ----------------------------------------------------------------------
# Test isolation
# ----------------------------------------------------------------------
class TestResetForTests:
    def test_reset_covers_the_new_global_state(self, tiny_table):
        install_worker_capture("s0", "w0")
        set_trace_context(1, 2)
        get_slos().set_objective(tiny_objective())
        get_slos().record_latency("t0", 0.005)
        get_exemplars().record_latency(exemplar())

        obs.reset_for_tests()

        assert get_capture() is None
        assert get_collector() is None
        assert current_trace_context() is None
        assert not get_slos().has_objectives()
        assert get_slos().statuses() == []
        assert len(get_exemplars()) == 0
