"""Tests for the crash-safe model lifecycle (repro.lifecycle)."""

import numpy as np
import pytest

from repro import obs
from repro.core import Table, generate_workload
from repro.core.workload import Workload
from repro.datasets import census
from repro.datasets.updates import apply_update
from repro.estimators.learned import LwNnEstimator
from repro.estimators.traditional import PostgresEstimator, SamplingEstimator
from repro.faults import (
    CrashAtEpochFault,
    FlakyRetrainFault,
    HangingRetrainFault,
    NaNFault,
    SimulatedCrash,
    truncate_file,
)
from repro.lifecycle import (
    NO_DRIFT,
    PROMOTED,
    RETRAIN_FAILED,
    ROLLED_BACK,
    AttemptTimeout,
    CheckpointStore,
    DriftDetector,
    ModelLifecycleManager,
    PromotionGate,
    RetrainJob,
    RetryPolicy,
)
from repro.serve import EstimatorService, HeuristicConstantEstimator


def small_lwnn(**overrides) -> LwNnEstimator:
    """An lw-nn small enough to train in milliseconds."""
    kwargs = dict(hidden_units=(8,), epochs=6, update_epochs=2, seed=0)
    kwargs.update(overrides)
    return LwNnEstimator(**kwargs)


@pytest.fixture(scope="module")
def lifecycle_table() -> Table:
    return census(num_rows=600)


@pytest.fixture(scope="module")
def lifecycle_workloads(lifecycle_table):
    rng = np.random.default_rng(5)
    train = generate_workload(lifecycle_table, 120, rng)
    probe = generate_workload(lifecycle_table, 30, rng)
    return train, probe


# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_and_latest_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {"epochs_trained": 3, "blob": np.arange(4.0)}
        store.save(state, 3)
        ckpt = store.latest()
        assert ckpt is not None
        assert ckpt.epoch == 3
        np.testing.assert_array_equal(ckpt.state["blob"], np.arange(4.0))

    def test_prunes_beyond_keep(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for epoch in range(5):
            store.save({"epoch": epoch}, epoch)
        assert store.epochs() == [3, 4]

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 1}, 1)
        path = store.save({"n": 2}, 2)
        truncate_file(path)
        ckpt = store.latest()
        assert ckpt.epoch == 1
        assert store.corrupt_skipped == 1
        assert obs.get_events().kinds()["lifecycle.checkpoint.corrupt"] == 1

    def test_all_corrupt_means_no_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        truncate_file(store.save({"n": 1}, 1), keep_fraction=0.3)
        assert store.latest() is None

    def test_clear_removes_everything(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({}, 1)
        store.save({}, 2)
        store.clear()
        assert len(store) == 0
        assert store.latest() is None

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)
        with pytest.raises(ValueError, match="epoch"):
            CheckpointStore(tmp_path).save({}, -1)


# ----------------------------------------------------------------------
class TestResumableTraining:
    def test_resume_matches_uninterrupted_step_for_step(
        self, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        full = small_lwnn().fit(lifecycle_table, train)

        half = small_lwnn()
        half.begin_training(lifecycle_table, train)
        half.train_epochs(train, 3)
        state = half.training_state()

        resumed = small_lwnn()
        resumed.restore_training(lifecycle_table, train, state)
        assert resumed.epochs_trained == 3
        resumed.train_epochs(train, resumed.target_epochs - 3)

        for p_full, p_res in zip(
            full._model.parameters(), resumed._model.parameters()
        ):
            np.testing.assert_array_equal(p_full.value, p_res.value)
        queries = list(train.queries)[:20]
        np.testing.assert_allclose(
            resumed.estimate_many(queries), full.estimate_many(queries)
        )

    def test_restore_rejects_wrong_estimator_state(
        self, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        est = small_lwnn()
        est.begin_training(lifecycle_table, train)
        est.train_epochs(train, 1)
        state = est.training_state()
        state["estimator"] = "someone-else"
        with pytest.raises(ValueError, match="belongs to"):
            small_lwnn().restore_training(lifecycle_table, train, state)


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential_then_capped(self):
        policy = RetryPolicy(
            max_attempts=6,
            backoff_base_seconds=1.0,
            backoff_cap_seconds=4.0,
            jitter=0.0,
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_seconds(a, rng) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(backoff_base_seconds=1.0, jitter=0.2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert 0.8 <= policy.backoff_seconds(0, rng) <= 1.2

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base_seconds=-1.0)


# ----------------------------------------------------------------------
class TestRetrainJob:
    def test_crash_then_resume_from_checkpoint(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        est = CrashAtEpochFault(small_lwnn(), crash_epoch=3)
        job = RetrainJob(
            est,
            lifecycle_table,
            train,
            store=CheckpointStore(tmp_path),
            policy=RetryPolicy(max_attempts=2, backoff_base_seconds=0.0),
            sleep=lambda _: None,
        )
        report = job.run()
        assert report.succeeded
        assert report.total_attempts == 2
        assert report.attempts[0].outcome == "error"
        assert "crash" in report.attempts[0].error
        assert report.attempts[1].resumed_from_epoch == 3
        assert report.resumed
        assert est.epochs_trained == est.target_epochs

    def test_crash_resume_equals_uninterrupted_training(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        full = small_lwnn().fit(lifecycle_table, train)

        wrapped = CrashAtEpochFault(small_lwnn(), crash_epoch=4)
        job = RetrainJob(
            wrapped,
            lifecycle_table,
            train,
            store=CheckpointStore(tmp_path),
            policy=RetryPolicy(max_attempts=2, backoff_base_seconds=0.0),
            sleep=lambda _: None,
        )
        assert job.run().succeeded
        queries = list(train.queries)[:20]
        np.testing.assert_allclose(
            wrapped.estimate_many(queries), full.estimate_many(queries)
        )

    def test_checkpoints_cleared_after_success(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        store = CheckpointStore(tmp_path)
        job = RetrainJob(small_lwnn(), lifecycle_table, train, store=store)
        assert job.run().succeeded
        assert len(store) == 0

    def test_torn_checkpoint_falls_back(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        store = CheckpointStore(tmp_path)
        pilot = small_lwnn()
        pilot.begin_training(lifecycle_table, train)
        pilot.train_epochs(train, 2)
        store.save(pilot.training_state(), 2)
        pilot.train_epochs(train, 2)
        truncate_file(store.save(pilot.training_state(), 4))

        est = small_lwnn()
        job = RetrainJob(est, lifecycle_table, train, store=store)
        report = job.run()
        assert report.succeeded
        # Resumed from the older intact checkpoint, not the torn one.
        assert report.attempts[0].resumed_from_epoch == 2
        assert store.corrupt_skipped >= 1

    def test_hanging_attempt_times_out_then_recovers(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        # The stall advances the job's fake clock, so only the hanging
        # attempt overruns its deadline, however slow the host.
        now = [0.0]

        def stall(seconds: float) -> None:
            now[0] += seconds

        est = HangingRetrainFault(
            small_lwnn(), hang_seconds=0.10, hang_attempts=1, sleep=stall
        )
        job = RetrainJob(
            est,
            lifecycle_table,
            train,
            store=CheckpointStore(tmp_path),
            policy=RetryPolicy(max_attempts=2, backoff_base_seconds=0.0),
            attempt_deadline_seconds=0.05,
            clock=lambda: now[0],
            sleep=lambda _: None,
        )
        report = job.run()
        assert report.succeeded
        assert report.attempts[0].outcome == "timeout"
        assert est.epochs_trained == est.target_epochs

    def test_flaky_retrain_backs_off_then_succeeds(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        slept = []
        est = FlakyRetrainFault(small_lwnn(), fail_attempts=2)
        job = RetrainJob(
            est,
            lifecycle_table,
            train,
            store=CheckpointStore(tmp_path),
            policy=RetryPolicy(
                max_attempts=3, backoff_base_seconds=1.0, jitter=0.0
            ),
            sleep=slept.append,
        )
        report = job.run()
        assert report.succeeded
        assert [a.outcome for a in report.attempts] == [
            "error",
            "error",
            "succeeded",
        ]
        assert slept == [1.0, 2.0]

    def test_exhausted_retries_reports_failure(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, _ = lifecycle_workloads
        est = FlakyRetrainFault(small_lwnn(), fail_attempts=99)
        job = RetrainJob(
            est,
            lifecycle_table,
            train,
            store=CheckpointStore(tmp_path),
            policy=RetryPolicy(max_attempts=3, backoff_base_seconds=0.0),
            sleep=lambda _: None,
        )
        report = job.run()
        assert not report.succeeded
        assert report.total_attempts == 3
        assert obs.get_events().kinds()["lifecycle.retrain.exhausted"] == 1

    def test_non_resumable_estimator_uses_plain_fit(
        self, tmp_path, lifecycle_table
    ):
        job = RetrainJob(
            SamplingEstimator(),
            lifecycle_table,
            None,
            store=CheckpointStore(tmp_path),
        )
        report = job.run()
        assert report.succeeded
        assert report.attempts[0].resumed_from_epoch is None


# ----------------------------------------------------------------------
class _ConstantEstimator(PostgresEstimator):
    """A deliberately terrible but perfectly 'logical' candidate."""

    name = "constant"

    def _estimate(self, query):
        return 1.0

    def _estimate_batch(self, queries):
        return np.ones(len(queries))


class TestPromotionGate:
    @pytest.fixture()
    def fitted(self, lifecycle_table):
        incumbent = PostgresEstimator().fit(lifecycle_table)
        candidate = SamplingEstimator().fit(lifecycle_table)
        return incumbent, candidate

    def test_reasonable_candidate_passes(
        self, lifecycle_table, lifecycle_workloads, fitted
    ):
        _, probe = lifecycle_workloads
        incumbent, candidate = fitted
        gate = PromotionGate(list(probe.queries), regression_tolerance=50.0)
        report = gate.evaluate(candidate, incumbent, lifecycle_table)
        assert report.passed, report.reasons
        assert "PASS" in report.summary()

    def test_nan_candidate_rejected_on_sanity(
        self, lifecycle_table, lifecycle_workloads, fitted
    ):
        _, probe = lifecycle_workloads
        incumbent, candidate = fitted
        gate = PromotionGate(list(probe.queries))
        report = gate.evaluate(
            NaNFault(candidate, probability=1.0), incumbent, lifecycle_table
        )
        assert not report.passed
        assert any("sanity" in r for r in report.reasons)

    def test_regressed_candidate_rejected(
        self, lifecycle_table, lifecycle_workloads, fitted
    ):
        _, probe = lifecycle_workloads
        incumbent, _ = fitted
        regressed = _ConstantEstimator().fit(lifecycle_table)
        gate = PromotionGate(list(probe.queries), regression_tolerance=1.1)
        report = gate.evaluate(regressed, incumbent, lifecycle_table)
        assert not report.passed
        assert any("regression" in r for r in report.reasons)
        assert report.candidate_p95 > report.incumbent_p95

    def test_raising_candidate_rejected_outright(
        self, lifecycle_table, lifecycle_workloads, fitted
    ):
        _, probe = lifecycle_workloads
        incumbent, _ = fitted
        gate = PromotionGate(list(probe.queries))
        report = gate.evaluate(PostgresEstimator(), incumbent, lifecycle_table)
        assert not report.passed
        assert any("raised" in r for r in report.reasons)

    def test_invalid_configuration_rejected(self, lifecycle_workloads):
        _, probe = lifecycle_workloads
        queries = list(probe.queries)
        with pytest.raises(ValueError, match="regression_tolerance"):
            PromotionGate(queries, regression_tolerance=0.5)
        with pytest.raises(ValueError, match="at least one"):
            PromotionGate([])


# ----------------------------------------------------------------------
def build_manager(table, train, probe, tmp_path, candidate_factory, **kwargs):
    service = EstimatorService(
        [small_lwnn(), HeuristicConstantEstimator()], cache=64
    ).fit(table, train)
    manager_kwargs = dict(
        checkpoint_dir=tmp_path,
        gate=PromotionGate(list(probe.queries), regression_tolerance=50.0),
        policy=RetryPolicy(max_attempts=3, backoff_base_seconds=0.0),
        sleep=lambda _: None,
    )
    manager_kwargs.update(kwargs)
    manager = ModelLifecycleManager(
        service, candidate_factory, DriftDetector(probe), **manager_kwargs
    )
    return service, manager


def drifted_update(table, seed=11):
    rng = np.random.default_rng(seed)
    new_table, appended = apply_update(table, rng, fraction=0.5)
    new_train = generate_workload(new_table, 120, rng)
    return new_table, appended, new_train


class TestLifecycleManager:
    def test_no_drift_leaves_everything_alone(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        service, manager = build_manager(
            lifecycle_table, train, probe, tmp_path, small_lwnn
        )
        incumbent = manager.incumbent
        report = manager.on_update(lifecycle_table, lifecycle_table.data[:0], train)
        assert report.state == NO_DRIFT
        assert report.retrain is None
        assert manager.incumbent is incumbent
        assert report.generation == 0

    def test_drift_retrain_promote(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        service, manager = build_manager(
            lifecycle_table, train, probe, tmp_path, small_lwnn
        )
        old_incumbent = manager.incumbent
        baseline_before = manager.detector.baseline_p95

        # Warm the estimate cache so promotion must invalidate it.
        for query in probe.queries[:5]:
            service.serve(query)
        assert len(service.cache) > 0

        new_table, appended, new_train = drifted_update(lifecycle_table)
        report = manager.on_update(new_table, appended, new_train)

        assert report.state == PROMOTED and report.promoted
        assert "rows" in report.drift.reasons
        assert manager.incumbent is not old_incumbent
        assert report.generation == 1
        assert service.model_generation == 1
        assert service.cache.generation == 1
        assert all(q not in service.cache for q in probe.queries[:5])
        assert manager.detector.baseline_p95 != baseline_before
        # Promotion leaves no stale checkpoints behind.
        assert len(manager.store) == 0

        kinds = obs.get_events().kinds()
        assert kinds["lifecycle.transition"] >= 3
        assert kinds["serve.model_swap"] == 1
        registry = obs.get_registry()
        assert registry.get(obs.LIFECYCLE_PROMOTIONS).value(outcome=PROMOTED) == 1

    def test_regressed_candidate_rolls_back(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        service, manager = build_manager(
            lifecycle_table,
            train,
            probe,
            tmp_path,
            lambda: NaNFault(small_lwnn(), probability=1.0),
        )
        incumbent = manager.incumbent
        new_table, appended, new_train = drifted_update(lifecycle_table)
        report = manager.on_update(new_table, appended, new_train)

        assert report.state == ROLLED_BACK
        assert not report.gate.passed
        assert manager.incumbent is incumbent
        assert report.generation == 0
        # The incumbent still answers every probe sanely.
        for query in probe.queries[:10]:
            assert np.isfinite(service.estimate(query))

    def test_exhausted_retrain_keeps_incumbent_serving(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        backoff_answers = []

        def serve_probes(_seconds: float) -> None:
            # a backoff window: no retrain attempt is running
            backoff_answers.extend(
                service.serve(q).estimate for q in probe.queries[:5]
            )

        service, manager = build_manager(
            lifecycle_table,
            train,
            probe,
            tmp_path,
            lambda: FlakyRetrainFault(small_lwnn(), fail_attempts=99),
            sleep=serve_probes,
        )
        incumbent = manager.incumbent
        new_table, appended, new_train = drifted_update(lifecycle_table)
        report = manager.on_update(new_table, appended, new_train)

        assert report.state == RETRAIN_FAILED
        assert report.retrain.total_attempts == 3
        assert manager.incumbent is incumbent
        for query in probe.queries[:10]:
            assert np.isfinite(service.estimate(query))
        # two backoff windows between the three attempts, five probes each
        assert len(backoff_answers) == 10
        num_rows = service.table.num_rows
        assert all(0.0 <= a <= num_rows for a in backoff_answers)

    def test_crash_mid_retrain_resumes_and_promotes(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        service, manager = build_manager(
            lifecycle_table,
            train,
            probe,
            tmp_path,
            lambda: CrashAtEpochFault(small_lwnn(), crash_epoch=3),
        )
        new_table, appended, new_train = drifted_update(lifecycle_table)
        report = manager.on_update(new_table, appended, new_train)
        assert report.state == PROMOTED
        assert report.retrain.resumed
        assert report.retrain.total_attempts == 2

    def test_force_retrain_ignores_drift(
        self, tmp_path, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        service, manager = build_manager(
            lifecycle_table, train, probe, tmp_path, small_lwnn
        )
        report = manager.force_retrain(lifecycle_table, train)
        assert report.state in (PROMOTED, ROLLED_BACK)
        assert report.retrain is not None


# ----------------------------------------------------------------------
class TestDriftDetector:
    def test_no_baseline_no_drift_on_identical_table(
        self, lifecycle_table, lifecycle_workloads
    ):
        train, probe = lifecycle_workloads
        est = SamplingEstimator().fit(lifecycle_table)
        detector = DriftDetector(probe)
        detector.set_baseline(est, lifecycle_table)
        decision = detector.check(est, lifecycle_table)
        assert not decision.drifted
        assert decision.reasons == ()

    def test_row_growth_triggers_drift(self, lifecycle_table, lifecycle_workloads):
        _, probe = lifecycle_workloads
        est = SamplingEstimator().fit(lifecycle_table)
        detector = DriftDetector(probe, row_growth_threshold=0.10)
        detector.set_baseline(est, lifecycle_table)
        new_table, _, _ = drifted_update(lifecycle_table)
        decision = detector.check(est, new_table)
        assert decision.drifted
        assert "rows" in decision.reasons
        assert decision.row_growth >= 0.10

    def test_qerror_degradation_triggers_drift(
        self, lifecycle_table, lifecycle_workloads
    ):
        _, probe = lifecycle_workloads
        est = SamplingEstimator().fit(lifecycle_table)
        detector = DriftDetector(
            probe, degradation_factor=1.0, row_growth_threshold=10.0
        )
        detector.set_baseline(est, lifecycle_table)
        # Same model, heavily shifted data: q-error must degrade.
        new_table, _, _ = drifted_update(lifecycle_table)
        decision = detector.check(est, new_table)
        assert decision.qerror_p95 >= decision.baseline_p95 or not decision.drifted


# ----------------------------------------------------------------------
class TestDistillationGate:
    """The fastpath student ships only through the promotion gate.

    A student that fails the gate must leave the incumbent teacher
    serving, keep the estimate cache's generation (cached answers are
    still the serving model's answers), and emit the rejection event;
    a passing student hot-swaps in and invalidates the cache.
    """

    def build_service(self, table, train):
        service = EstimatorService(
            [small_lwnn(), HeuristicConstantEstimator()], cache=64
        ).fit(table, train)
        return service

    def test_failing_student_leaves_teacher_serving(
        self, lifecycle_table, lifecycle_workloads
    ):
        from repro.fastpath import DistilledStudent, distill_into_service

        train, probe = lifecycle_workloads
        service = self.build_service(lifecycle_table, train)
        teacher = service.primary_estimator
        # Warm the cache: surviving entries prove no generation bump.
        for query in probe.queries[:5]:
            service.serve(query)
        assert len(service.cache) > 0
        generation_before = service.model_generation

        # A student whose every answer is NaN cannot pass the sanity
        # rule, whatever the tolerance.
        broken = NaNFault(
            DistilledStudent(teacher, num_queries=32, num_trees=2, seed=1),
            probability=1.0,
        )
        gate = PromotionGate(list(probe.queries), regression_tolerance=50.0)
        _, report = distill_into_service(
            service, lifecycle_table, gate=gate, student=broken
        )

        assert not report.passed
        assert service.primary_estimator is teacher
        assert service.model_generation == generation_before
        assert service.cache.generation == generation_before
        assert all(q in service.cache for q in probe.queries[:5])
        kinds = obs.get_events().kinds()
        assert kinds.get("fastpath.student_rejected", 0) == 1
        assert "fastpath.student_promoted" not in kinds

    def test_passing_student_hot_swaps_and_invalidates_cache(
        self, lifecycle_table, lifecycle_workloads
    ):
        from repro.fastpath import distill_into_service

        train, probe = lifecycle_workloads
        service = self.build_service(lifecycle_table, train)
        teacher = service.primary_estimator
        for query in probe.queries[:5]:
            service.serve(query)
        generation_before = service.model_generation

        gate = PromotionGate(list(probe.queries), regression_tolerance=50.0)
        student, report = distill_into_service(
            service, lifecycle_table, gate=gate, num_queries=256, seed=2
        )

        assert report.passed, report.reasons
        assert service.primary_estimator is student
        assert service.model_generation == generation_before + 1
        assert service.cache.generation == generation_before + 1
        assert all(q not in service.cache for q in probe.queries[:5])
        kinds = obs.get_events().kinds()
        assert kinds.get("fastpath.student_promoted", 0) == 1
        assert student.report is not None
        assert student.report.teacher == teacher.name
