"""Tests for the estimate guardrails (repro.guard).

Covers the three layers — provable bounds, OOD detection, quarantine —
plus their integration into the serving stack (EstimatorService,
ShardRouter, lifecycle manager) and the adversarial fault wrappers that
exercise them.
"""

import copy

import numpy as np
import pytest

from repro import obs
from repro.core import CardinalityEstimator, Predicate, Query, Table
from repro.core.workload import Workload, generate_workload
from repro.faults import CorrelatedShiftFault, DomainShiftFault, UpdateSkewFault
from repro.guard import (
    HEALTHY,
    QUARANTINED,
    BoundSketch,
    ColumnBound,
    DomainSnapshot,
    EstimateGuard,
    OodDetector,
    QuarantineMonitor,
)
from repro.lifecycle import DriftDetector, ModelLifecycleManager, PromotionGate
from repro.obs import GUARD_CLAMPED, GUARD_OOD, GUARD_QUARANTINE
from repro.serve import EstimatorService, HeuristicConstantEstimator
from repro.shard import ShardRequest, ShardRouter


class StubEstimator(CardinalityEstimator):
    """Answers a constant; fit is free."""

    def __init__(self, value: float = 5.0, name: str = "stub") -> None:
        super().__init__()
        self.value = value
        self.name = name

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return self.value


class OracleEstimator(CardinalityEstimator):
    """Answers the true cardinality — passes any promotion gate."""

    name = "oracle"

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return float(self.table.cardinality(query))


def in_range_query() -> Query:
    return Query((Predicate(0, 1.0, 3.0),))


def far_query() -> Query:
    """Entirely outside tiny_table's column-0 range [0, 5]."""
    return Query((Predicate(0, 50.0, 60.0),))


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
class TestColumnBound:
    def test_exact_mode_counts_are_exact(self):
        values = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 7.0])
        bound = ColumnBound(values)
        assert bound.exact
        assert bound.count(1.0, 3.0) == 6
        assert bound.count(None, None) == 7
        assert bound.count(4.0, 6.0) == 0
        assert bound.count(3.0, 3.0) == 3

    def test_contradictory_range_counts_zero(self):
        bound = ColumnBound(np.arange(10.0))
        assert bound.count(5.0, 2.0) == 0

    @pytest.mark.parametrize("max_exact", [4096, 4])
    def test_nan_bound_counts_zero(self, max_exact):
        # A NaN bound matches no rows; searchsorted puts it past the end,
        # which must not turn into a negative count.
        bound = ColumnBound(np.arange(10.0), max_exact=max_exact, num_buckets=4)
        nan = float("nan")
        assert bound.count(nan, 4.0) == 0
        assert bound.count(2.0, nan) >= 0
        counts = bound.count_many(np.array([nan, 2.0]), np.array([4.0, nan]))
        np.testing.assert_array_equal(counts, [0, bound.count(2.0, nan)])

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            ColumnBound(np.array([]))

    def test_bucket_mode_never_undercounts(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        bound = ColumnBound(values, max_exact=16, num_buckets=32)
        assert not bound.exact
        for lo, hi in [(-1.0, 1.0), (0.0, 0.1), (-3.0, -2.5), (2.0, 9.0)]:
            true = int(((values >= lo) & (values <= hi)).sum())
            assert bound.count(lo, hi) >= true

    def test_bucket_mode_disjoint_range_is_zero(self):
        bound = ColumnBound(np.arange(10000.0), max_exact=16)
        assert bound.count(-50.0, -10.0) == 0
        assert bound.count(20000.0, 30000.0) == 0

    def test_add_keeps_exact_mode_exact(self):
        bound = ColumnBound(np.array([1.0, 2.0, 2.0]))
        bound.add(np.array([2.0, 5.0]))
        assert bound.total == 5
        assert bound.count(2.0, 2.0) == 3
        assert bound.count(5.0, 5.0) == 1

    def test_add_keeps_bucket_mode_sound(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 10.0, size=3000)
        bound = ColumnBound(values, max_exact=16)
        appended = rng.uniform(-5.0, 15.0, size=500)  # beyond old extremes
        bound.add(appended)
        both = np.concatenate([values, appended])
        for lo, hi in [(-5.0, 0.0), (3.0, 7.0), (9.0, 15.0), (None, None)]:
            lo_v = -np.inf if lo is None else lo
            hi_v = np.inf if hi is None else hi
            true = int(((both >= lo_v) & (both <= hi_v)).sum())
            assert bound.count(lo, hi) >= true

    def test_nbytes_is_a_sketch(self):
        bound = ColumnBound(np.arange(100000.0), max_exact=16, num_buckets=64)
        assert bound.nbytes() < 4096


class TestBoundSketch:
    def test_upper_bound_holds_on_known_table(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        for query in [
            in_range_query(),
            Query((Predicate(0, 1.0, 3.0), Predicate(1, 20.0, 40.0))),
            Query((Predicate(2, 2.0, 2.0),)),
        ]:
            assert sketch.upper_bound(query) >= tiny_table.cardinality(query)

    def test_full_domain_predicate_bounds_to_num_rows(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        whole = Query((Predicate(0, -100.0, 100.0),))
        assert sketch.upper_bound(whole) == tiny_table.num_rows

    def test_empty_predicate_bounds_to_zero(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        assert sketch.upper_bound(Query((Predicate(0, 3.0, 1.0),))) == 0.0

    def test_lower_bound_is_zero(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        assert sketch.lower_bound(in_range_query()) == 0.0
        assert sketch.bounds(in_range_query())[0] == 0.0

    def test_min_over_predicates_beats_single_column(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        # col 0 in [0, 1] matches 4 rows; col 1 in [10, 10] matches 1.
        query = Query((Predicate(0, 0.0, 1.0), Predicate(1, 10.0, 10.0)))
        assert sketch.upper_bound(query) == 1.0

    def test_update_with_appended_rows_stays_sound(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        rows = np.array([[9.0, 90.0, 1.0], [9.0, 95.0, 2.0]])
        bigger = tiny_table.append_rows(rows)
        sketch.update(bigger, rows)
        assert sketch.num_rows == bigger.num_rows
        wide = Query((Predicate(0, 0.0, 10.0),))
        assert sketch.upper_bound(wide) >= bigger.cardinality(wide)
        tall = Query((Predicate(0, 9.0, 9.0),))
        assert sketch.upper_bound(tall) >= 2

    def test_update_without_delta_rebuilds(self, tiny_table):
        sketch = BoundSketch(tiny_table)
        rows = np.array([[9.0, 90.0, 1.0]])
        bigger = tiny_table.append_rows(rows)
        sketch.update(bigger, None)
        assert sketch.num_rows == bigger.num_rows
        q = Query((Predicate(0, 9.0, 9.0),))
        assert sketch.upper_bound(q) >= 1


# ----------------------------------------------------------------------
# OOD detection
# ----------------------------------------------------------------------
class TestOodDetection:
    def detector(self, table, workload=None, threshold=0.25):
        return OodDetector(DomainSnapshot.capture(table, workload), threshold)

    def test_in_distribution_query_scores_zero(self, tiny_table):
        verdict = self.detector(tiny_table).score(in_range_query())
        assert verdict.score == 0.0
        assert not verdict.is_ood
        assert verdict.reasons == ()

    def test_range_overshoot_is_flagged(self, tiny_table):
        verdict = self.detector(tiny_table).score(far_query())
        assert verdict.is_ood
        assert any("range overshoot" in r for r in verdict.reasons)

    def test_arity_overshoot_is_flagged(self, tiny_table):
        workload = Workload(
            queries=[in_range_query()],
            cardinalities=np.array([2.0]),
        )
        detector = self.detector(tiny_table, workload)
        wide = Query(
            (
                Predicate(0, 1.0, 3.0),
                Predicate(1, 20.0, 40.0),
                Predicate(2, 1.0, 2.0),
            )
        )
        verdict = detector.score(wide)
        assert any("arity" in r for r in verdict.reasons)
        assert verdict.score >= 0.25 * 2

    def test_width_overshoot_is_flagged(self, tiny_table):
        narrow = Workload(
            queries=[Query((Predicate(1, 30.0, 35.0),))],
            cardinalities=np.array([1.0]),
        )
        detector = self.detector(tiny_table, narrow)
        wide = Query((Predicate(1, 10.0, 70.0),))
        assert any("width" in r for r in detector.score(wide).reasons)

    def test_negative_threshold_rejected(self, tiny_table):
        with pytest.raises(ValueError):
            self.detector(tiny_table, threshold=-0.1)

    def test_custom_threshold_changes_is_ood(self, tiny_table):
        workload = Workload(
            queries=[in_range_query()], cardinalities=np.array([2.0])
        )
        strict = self.detector(tiny_table, workload, threshold=0.0)
        lax = self.detector(tiny_table, workload, threshold=1e9)
        probe = Query((Predicate(0, -1.0, 3.0),))  # slight overhang
        assert strict.is_ood(probe)
        assert not lax.is_ood(probe)


# ----------------------------------------------------------------------
# The guard facade
# ----------------------------------------------------------------------
class TestEstimateGuard:
    def test_unfitted_guard_is_a_noop(self):
        guard = EstimateGuard()
        query = in_range_query()
        assert guard.clamp(query, 1e12) == (1e12, None)
        assert not guard.is_ood(query)
        assert guard.bounds(query) is None
        assert guard.ood_verdict(query) is None

    def test_clamp_above_upper(self, tiny_table):
        guard = EstimateGuard()
        guard.fit(tiny_table)
        query = Query((Predicate(0, 1.0, 1.0),))  # 2 matching rows
        value, reason = guard.clamp(query, 10.0)
        assert (value, reason) == (2.0, "above-upper")
        assert guard.clamped == 1

    def test_clamp_below_lower(self, tiny_table):
        guard = EstimateGuard()
        guard.fit(tiny_table)
        value, reason = guard.clamp(in_range_query(), -4.0)
        assert (value, reason) == (0.0, "below-lower")

    def test_in_bounds_value_passes_through(self, tiny_table):
        guard = EstimateGuard()
        guard.fit(tiny_table)
        assert guard.clamp(in_range_query(), 3.0) == (3.0, None)
        assert guard.clamped == 0

    def test_disabled_pieces_stay_off(self, tiny_table):
        guard = EstimateGuard(bounds_enabled=False, ood_enabled=False)
        guard.fit(tiny_table)
        assert guard.sketch is None
        assert guard.detector is None
        assert guard.clamp(in_range_query(), 1e12)[1] is None
        assert not guard.is_ood(far_query())

    def test_update_folds_into_sketch(self, tiny_table):
        guard = EstimateGuard()
        guard.fit(tiny_table)
        rows = np.array([[9.0, 90.0, 1.0]])
        bigger = tiny_table.append_rows(rows)
        guard.update(bigger, rows)
        q = Query((Predicate(0, 9.0, 9.0),))
        assert guard.sketch.upper_bound(q) >= 1
        # The domain snapshot follows the new table's ranges.
        assert not guard.is_ood(q)

    def test_observe_qerror_relays_to_monitor(self):
        class SpyMonitor:
            def __init__(self):
                self.samples = []

            def observe(self, tenant, q):
                self.samples.append((tenant, q))

        guard = EstimateGuard()
        guard.observe_qerror("t0", 5.0)  # no monitor: silently fine
        guard.monitor = SpyMonitor()
        guard.observe_qerror("t1", 7.0)
        assert guard.monitor.samples == [("t1", 7.0)]


# ----------------------------------------------------------------------
# Guarded EstimatorService
# ----------------------------------------------------------------------
class TestGuardedService:
    def service(self, tiers, table, **kwargs):
        guard = EstimateGuard()
        svc = EstimatorService(tiers, deadline_ms=None, guard=guard, **kwargs)
        svc.fit(table)
        return svc, guard

    def test_ood_query_skips_learned_primary(self, tiny_table):
        svc, guard = self.service(
            [StubEstimator(4.0, name="learned"), StubEstimator(9.0, name="fb")],
            tiny_table,
        )
        served = svc.serve(far_query())
        assert ("guard", "ood-reroute") in served.attempts
        assert ("learned", "skipped-ood") in served.attempts
        assert served.tier == "fb"
        assert guard.ood_rerouted == 1
        registry = obs.get_registry()
        assert registry.counter(GUARD_OOD).value(action="reroute") == 1.0

    def test_ood_skip_needs_a_fallback(self, tiny_table):
        # A single-tier chain must still answer: no reroute possible.
        svc, _ = self.service([StubEstimator(4.0, name="only")], tiny_table)
        served = svc.serve(far_query())
        assert ("guard", "ood-reroute") not in served.attempts
        assert served.tier == "only"

    def test_in_bounds_answer_unchanged(self, tiny_table):
        svc, _ = self.service([StubEstimator(2.0, name="ok")], tiny_table)
        served = svc.serve(in_range_query())
        assert served.estimate == 2.0
        assert served.attempts[-1][1] == "served"

    def test_bound_violation_clamps_and_counts(self, tiny_table):
        query = Query((Predicate(0, 1.0, 1.0),))  # provable upper bound 2
        svc, guard = self.service(
            [StubEstimator(10.0, name="wild")], tiny_table
        )
        served = svc.serve(query)
        assert served.estimate == 2.0
        assert served.attempts[-1] == ("wild", "guard-clamped")
        assert svc.health().tiers[0].guard_clamped == 1
        assert guard.clamped == 1
        registry = obs.get_registry()
        assert registry.counter(GUARD_CLAMPED).value(reason="above-upper") == 1.0
        assert obs.get_events().events("guard.clamp")

    def test_batch_path_clamps_too(self, tiny_table):
        query = Query((Predicate(0, 1.0, 1.0),))
        svc, _ = self.service([StubEstimator(10.0, name="wild")], tiny_table)
        served = svc.serve_batch([query, in_range_query()])
        assert served[0].estimate == 2.0
        assert served[0].attempts[-1][1] == "guard-clamped"

    def test_batch_path_reroutes_ood(self, tiny_table):
        svc, _ = self.service(
            [StubEstimator(4.0, name="learned"), StubEstimator(9.0, name="fb")],
            tiny_table,
        )
        served = svc.serve_batch([far_query(), in_range_query()])
        assert ("guard", "ood-reroute") in served[0].attempts
        assert served[0].tier == "fb"
        assert served[1].tier == "learned"

    def test_nan_bound_never_serves_a_negative_estimate(self):
        from repro.datasets import generate_synthetic
        from repro.registry import make_fallback_chain

        table = generate_synthetic(
            2000, skew=1.0, correlation=0.5, domain_size=50,
            rng=np.random.default_rng(0),
        )
        svc = EstimatorService(make_fallback_chain("sampling"), guard=EstimateGuard())
        svc.fit(table)
        query = Query((Predicate(0, float("nan"), 10.0),))
        assert svc.guard.sketch.upper_bound(query) >= table.cardinality(query) == 0
        for served in (svc.serve(query), svc.serve_batch([query])[0]):
            assert served.estimate == 0.0

    def test_record_actual_labels_ood_exemplars(self, tiny_table):
        svc, _ = self.service(
            [StubEstimator(4.0, name="learned"), StubEstimator(9.0, name="fb")],
            tiny_table,
        )
        served = svc.serve(far_query())
        svc.record_actual(far_query(), served, 4000.0, tenant="t0")
        board = obs.get_exemplars().worst_qerror("t0")
        assert board, "a 4000x q-error must make the board"
        assert board[0].estimator.startswith("ood->")

    def test_record_actual_feeds_quarantine(self, tiny_table):
        svc, guard = self.service(
            [StubEstimator(1.0, name="learned"), StubEstimator(9.0, name="fb")],
            tiny_table,
        )
        guard.monitor = QuarantineMonitor(
            svc,
            [in_range_query()],
            qerror_threshold=4.0,
            window=4,
            min_samples=2,
            breach_fraction=1.0,
        )
        served = svc.serve(in_range_query())
        for _ in range(2):
            svc.record_actual(in_range_query(), served, 1000.0)
        assert guard.monitor.state == QUARANTINED

    def test_guardless_service_unchanged(self, tiny_table):
        svc = EstimatorService(
            [StubEstimator(4.0, name="plain")], deadline_ms=None
        )
        svc.fit(tiny_table)
        served = svc.serve(far_query())
        assert served.estimate == 4.0
        assert all(stage != "guard" for stage, _ in served.attempts)


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
class TestQuarantineMonitor:
    def make(self, table, primary=None, **kwargs):
        svc = EstimatorService(
            [primary or StubEstimator(1.0, name="suspect")],
            deadline_ms=None,
        )
        svc.fit(table)
        kwargs.setdefault("qerror_threshold", 4.0)
        kwargs.setdefault("window", 8)
        kwargs.setdefault("min_samples", 4)
        kwargs.setdefault("breach_fraction", 0.5)
        monitor = QuarantineMonitor(svc, [in_range_query()], **kwargs)
        return svc, monitor

    def test_parameter_validation(self, tiny_table):
        svc = EstimatorService([StubEstimator()], deadline_ms=None)
        svc.fit(tiny_table)
        probe = [in_range_query()]
        with pytest.raises(ValueError):
            QuarantineMonitor(svc, probe, qerror_threshold=0.5)
        with pytest.raises(ValueError):
            QuarantineMonitor(svc, probe, breach_fraction=0.0)
        with pytest.raises(ValueError):
            QuarantineMonitor(svc, probe, window=2, min_samples=4)
        with pytest.raises(ValueError):
            QuarantineMonitor(svc, probe, probe_interval=0)

    def test_sustained_violation_demotes(self, tiny_table):
        svc, monitor = self.make(tiny_table)
        generation = svc.model_generation
        for _ in range(4):
            monitor.observe("default", 100.0)
        assert monitor.state == QUARANTINED
        assert monitor.demotions == 1
        assert svc.primary_estimator.name != "suspect"
        assert svc.model_generation == generation + 1
        assert monitor.status().offending_tenant == "default"
        registry = obs.get_registry()
        assert registry.counter(GUARD_QUARANTINE).value(action="demote") == 1.0

    def test_single_outlier_does_not_demote(self, tiny_table):
        svc, monitor = self.make(tiny_table)
        monitor.observe("default", 1e6)
        for _ in range(7):
            monitor.observe("default", 1.0)
        assert monitor.state == HEALTHY

    def test_windows_are_per_tenant(self, tiny_table):
        svc, monitor = self.make(tiny_table, breach_fraction=1.0)
        for _ in range(3):
            monitor.observe("alpha", 100.0)
            monitor.observe("beta", 1.0)
        assert monitor.state == HEALTHY  # neither window is full and bad
        monitor.observe("alpha", 100.0)
        assert monitor.state == QUARANTINED
        assert monitor.status().offending_tenant == "alpha"

    def test_probe_readmits_a_healthy_model(self, tiny_table):
        svc, monitor = self.make(
            tiny_table, primary=OracleEstimator(), probe_interval=3
        )
        monitor.quarantine("default")
        demoted_generation = svc.model_generation
        # The oracle answers probes perfectly; after probe_interval
        # feedback samples the gate re-admits it.
        for _ in range(3):
            monitor.observe("default", 1.0)
        assert monitor.state == HEALTHY
        assert monitor.readmissions == 1
        assert svc.primary_estimator.name == "oracle"
        assert svc.model_generation == demoted_generation + 1
        registry = obs.get_registry()
        assert registry.counter(GUARD_QUARANTINE).value(action="readmit") == 1.0

    def test_failed_probe_keeps_quarantine(self, tiny_table):
        # A constant-1 suspect loses the gate against the heuristic.
        svc, monitor = self.make(tiny_table, probe_interval=2)
        monitor.quarantine("default")
        for _ in range(2):
            monitor.observe("default", 1.0)
        assert monitor.state == QUARANTINED
        assert monitor.probes_failed >= 1

    def test_double_quarantine_is_idempotent(self, tiny_table):
        svc, monitor = self.make(tiny_table)
        monitor.quarantine("a")
        monitor.quarantine("b")
        assert monitor.demotions == 1
        assert monitor.status().offending_tenant == "a"

    def test_on_promotion_clears_quarantine(self, tiny_table):
        svc, monitor = self.make(tiny_table)
        monitor.quarantine("default")
        monitor.on_promotion()
        assert monitor.state == HEALTHY
        assert monitor.status().offending_tenant is None

    def test_readmission_noop_when_healthy(self, tiny_table):
        svc, monitor = self.make(tiny_table)
        assert monitor.attempt_readmission() is None


class TestLifecycleQuarantineHook:
    def test_promotion_supersedes_quarantine(
        self, small_census, census_workloads, tmp_path
    ):
        train, _ = census_workloads
        probe = Workload(
            queries=train.queries[:40], cardinalities=train.cardinalities[:40]
        )
        svc = EstimatorService(
            [OracleEstimator(), HeuristicConstantEstimator()], deadline_ms=None
        )
        svc.fit(small_census, train)
        monitor = QuarantineMonitor(svc, list(probe.queries))
        manager = ModelLifecycleManager(
            svc,
            OracleEstimator,
            DriftDetector(probe),
            checkpoint_dir=tmp_path,
            gate=PromotionGate(list(probe.queries), rule_checks=0),
            quarantine=monitor,
        )
        monitor.quarantine("default")
        assert monitor.state == QUARANTINED
        # The safe tier is now the incumbent; a freshly gated candidate
        # that beats it supersedes the standing quarantine.
        report = manager.force_retrain(small_census, train)
        assert report.promoted
        assert monitor.state == HEALTHY


# ----------------------------------------------------------------------
# Guarded sharded serving
# ----------------------------------------------------------------------
class TestGuardedShard:
    def router(self, table, worker, guard, **kwargs):
        primary = StubEstimator(4.0, name="clean")
        primary.fit(table)
        fallback = HeuristicConstantEstimator()
        fallback.fit(table)
        return ShardRouter(
            primary,
            [fallback],
            num_shards=1,
            mode="inline",
            worker_estimator=worker,
            guard=guard,
            **kwargs,
        )

    def test_worker_bound_violation_is_clamped(self, tiny_table):
        guard = EstimateGuard(ood_enabled=False)
        guard.fit(tiny_table)
        worker = StubEstimator(10.0, name="wild-worker")
        worker.fit(tiny_table)
        query = Query((Predicate(0, 1.0, 1.0),))  # provable upper bound 2
        with self.router(tiny_table, worker, guard) as router:
            served = router.serve_batch([ShardRequest(query=query)])
        assert served[0].estimate == 2.0
        assert served[0].attempts[-1][1] == "guard-clamped"
        registry = obs.get_registry()
        assert registry.counter(GUARD_CLAMPED).value(reason="above-upper") == 1.0

    def test_worker_clamp_events_carry_the_raw_answer(self, tiny_table):
        guard = EstimateGuard(ood_enabled=False)
        guard.fit(tiny_table)
        worker = StubEstimator(1e9, name="wild-worker")
        worker.fit(tiny_table)
        query = Query((Predicate(0, 1.0, 1.0),))  # provable upper bound 2
        with self.router(tiny_table, worker, guard) as router:
            served = router.serve_batch([ShardRequest(query=query)])
        assert served[0].estimate == 2.0
        assert served[0].attempts == (("worker", "guard-clamped"),)
        events = obs.get_events()
        [clamp] = events.events("guard.clamp", tier="worker")
        assert clamp.get("raw") == 1e9
        assert clamp.get("served") == 2.0
        # The worker's answer also overshot the table, as the service
        # path reports: one serve.sanitized event with the raw value.
        [sanitized] = events.events("serve.sanitized", tier="worker")
        assert sanitized.get("raw") == 1e9
        assert sanitized.get("served") == tiny_table.num_rows

    def test_ood_queries_split_to_fallback_chain(self, tiny_table):
        guard = EstimateGuard()
        guard.fit(tiny_table)
        worker = StubEstimator(4.0, name="worker")
        worker.fit(tiny_table)
        with self.router(tiny_table, worker, guard) as router:
            served = router.serve_batch(
                [
                    ShardRequest(query=far_query()),
                    ShardRequest(query=in_range_query()),
                ]
            )
        # The OOD query never reached the worker: the in-process chain
        # (whose guard skips the learned primary) answered it.
        assert ("guard", "ood-reroute") in served[0].attempts
        assert ("guard", "ood-reroute") not in served[1].attempts
        assert router.totals().fallback_served == 1

    def test_guardless_router_unchanged(self, tiny_table):
        worker = StubEstimator(4.0, name="worker")
        worker.fit(tiny_table)
        with self.router(tiny_table, worker, None) as router:
            served = router.serve_batch(
                [ShardRequest(query=q) for q in [in_range_query(), far_query()]]
            )
        assert [s.estimate for s in served] == [4.0, 4.0]


# ----------------------------------------------------------------------
# Adversarial faults
# ----------------------------------------------------------------------
class TestAdversarialFaults:
    def fitted_stub(self, table, value=4.0):
        stub = StubEstimator(value)
        stub.fit(table)
        return stub

    def test_correlated_shift_inflates_per_predicate(self, tiny_table):
        fault = CorrelatedShiftFault(self.fitted_stub(tiny_table), magnitude=8.0)
        fault.fit(tiny_table)
        one = Query((Predicate(0, 1.0, 3.0),))
        two = Query((Predicate(0, 1.0, 3.0), Predicate(1, 20.0, 40.0)))
        assert fault.estimate(one) == 4.0 * 8.0
        assert fault.estimate(two) == 4.0 * 64.0

    def test_correlated_shift_underestimate_direction(self, tiny_table):
        fault = CorrelatedShiftFault(
            self.fitted_stub(tiny_table, 64.0), magnitude=0.5
        )
        fault.fit(tiny_table)
        assert fault.estimate(in_range_query()) == 32.0

    def test_correlated_shift_rejects_identity_magnitude(self, tiny_table):
        for magnitude in (1.0, 0.0, -2.0):
            with pytest.raises(ValueError):
                CorrelatedShiftFault(
                    self.fitted_stub(tiny_table), magnitude=magnitude
                )

    def test_until_closes_the_incident_window(self, tiny_table):
        fault = CorrelatedShiftFault(
            self.fitted_stub(tiny_table), magnitude=8.0, after=1, until=3
        )
        fault.fit(tiny_table)
        answers = [fault.estimate(in_range_query()) for _ in range(5)]
        assert answers == [4.0, 32.0, 32.0, 4.0, 4.0]
        assert fault.faults_fired == 2

    def test_until_before_after_rejected(self, tiny_table):
        with pytest.raises(ValueError):
            CorrelatedShiftFault(
                self.fitted_stub(tiny_table), magnitude=8.0, after=5, until=3
            )

    def test_domain_shift_translates_the_query(self, small_census):
        oracle = OracleEstimator()
        oracle.fit(small_census)
        fault = DomainShiftFault(oracle, shift_fraction=0.5)
        fault.fit(small_census)
        column = small_census.data[:, 0]
        span = float(column.max() - column.min())
        lo, hi = float(column.min()), float(column.min()) + 0.1 * span
        query = Query((Predicate(0, lo, hi),))
        shifted = Query((Predicate(0, lo + 0.5 * span, hi + 0.5 * span),))
        assert fault.estimate(query) == float(small_census.cardinality(shifted))

    def test_domain_shift_rejects_zero_shift(self, tiny_table):
        with pytest.raises(ValueError):
            DomainShiftFault(self.fitted_stub(tiny_table), shift_fraction=0.0)

    def test_update_skew_feeds_model_a_biased_slice(self, tiny_table):
        class RecordingEstimator(StubEstimator):
            def _update(self, table, appended, workload) -> None:
                self.seen_table = table
                self.seen_appended = appended
                self.seen_workload = workload

        inner = RecordingEstimator()
        inner.fit(tiny_table)
        fault = UpdateSkewFault(inner, column=0)
        fault.fit(tiny_table)
        rows = np.array(
            [[1.0, 10.0, 1.0], [2.0, 20.0, 2.0], [30.0, 30.0, 3.0], [40.0, 40.0, 1.0]]
        )
        bigger = tiny_table.append_rows(rows)
        workload = Workload(
            queries=[in_range_query()],
            cardinalities=bigger.cardinalities([in_range_query()]),
        )
        fault.update(bigger, rows, workload)
        assert fault.updates_skewed == 1
        # Only the at-or-below-median half of the append reached the model.
        assert len(inner.seen_appended) == 2
        assert inner.seen_table.num_rows == tiny_table.num_rows + 2
        assert float(inner.seen_table.data[:, 0].max()) < 30.0
        # The training labels were recomputed against the skewed table.
        expected = inner.seen_table.cardinalities([in_range_query()])
        assert inner.seen_workload.cardinalities == pytest.approx(expected)

    def test_update_skew_passes_through_empty_updates(self, tiny_table):
        inner = self.fitted_stub(tiny_table)
        fault = UpdateSkewFault(inner)
        fault.fit(tiny_table)
        fault.update(tiny_table, None, None)
        assert fault.updates_skewed == 0


# ----------------------------------------------------------------------
# Guardrails end-to-end: adversarial fault meets guarded service
# ----------------------------------------------------------------------
class TestGuardrailsEndToEnd:
    def test_bounds_contain_a_correlated_shift(self, small_census, census_workloads):
        train, test = census_workloads
        oracle = OracleEstimator()
        oracle.fit(small_census)
        wild = CorrelatedShiftFault(copy.deepcopy(oracle), magnitude=50.0)
        guard = EstimateGuard(ood_enabled=False)
        svc = EstimatorService([wild], deadline_ms=None, guard=guard)
        svc.fit(small_census, train)
        worst = 1.0
        for query, actual in zip(test.queries[:50], test.cardinalities[:50]):
            served = svc.serve(query)
            if actual > 0:
                worst = max(worst, served.estimate / actual)
        # Every inflated answer was pulled down to its provable ceiling.
        assert guard.clamped > 0
        # The unguarded fault inflates the (perfect) inner estimate by
        # 50**num_predicates, so its worst q-error is exactly that.
        unguarded_worst = max(
            50.0 ** q.num_predicates
            for q, a in zip(test.queries[:50], test.cardinalities[:50])
            if a > 0
        )
        assert worst < unguarded_worst / 10.0
