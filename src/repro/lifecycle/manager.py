"""The model-lifecycle manager: train -> validate -> promote -> serve.

:class:`ModelLifecycleManager` closes the loop the paper's Section 5
leaves open: data updates arrive, drift is detected, a *candidate* is
retrained under crash-safe supervision, validated against the incumbent,
and only then hot-swapped into the serving chain.  The incumbent keeps
answering every query throughout — stale but valid — so serving
availability is never sacrificed to a failing retrain.

State machine (one :meth:`on_update` call walks it):

.. code-block:: text

    idle --drift?--> training --success--> validating --pass--> promoted
      ^     |no        |retries exhausted      |fail
      |     v          v                       v
      +-- no-drift   retrain-failed         rolled-back
           (incumbent serves on, unchanged, in all non-promoted ends)

Every transition is emitted as a ``lifecycle.transition`` event and
counted in :data:`~repro.obs.LIFECYCLE_TRANSITIONS`; promotions and
rollbacks additionally update :data:`~repro.obs.LIFECYCLE_PROMOTIONS`
and the :data:`~repro.obs.LIFECYCLE_MODEL_GENERATION` gauge, so the
whole lifecycle is reconstructable from telemetry alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.table import Table
from ..core.workload import Workload
from ..obs import (
    LIFECYCLE_MODEL_GENERATION,
    LIFECYCLE_PROMOTIONS,
    LIFECYCLE_TRANSITIONS,
    get_events,
    get_registry,
    span,
)
from ..serve.service import EstimatorService
from .checkpoint import CheckpointStore
from .drift import DriftDecision, DriftDetector
from .gate import GateReport, PromotionGate
from .retrain import RetrainJob, RetrainReport, RetryPolicy

#: Terminal states of one lifecycle pass.
NO_DRIFT = "no-drift"
PROMOTED = "promoted"
ROLLED_BACK = "rolled-back"
RETRAIN_FAILED = "retrain-failed"


@dataclass(frozen=True)
class LifecycleReport:
    """Everything one :meth:`ModelLifecycleManager.on_update` pass did."""

    #: terminal state: no-drift | promoted | rolled-back | retrain-failed
    state: str
    drift: DriftDecision
    retrain: RetrainReport | None
    gate: GateReport | None
    #: service model generation after the pass
    generation: int

    @property
    def promoted(self) -> bool:
        return self.state == PROMOTED


class ModelLifecycleManager:
    """Owns the incumbent model's whole retrain/promote/rollback loop."""

    def __init__(
        self,
        service: EstimatorService,
        candidate_factory: Callable[[], CardinalityEstimator],
        detector: DriftDetector,
        *,
        checkpoint_dir: str | Path,
        gate: PromotionGate | None = None,
        policy: RetryPolicy | None = None,
        attempt_deadline_seconds: float | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        quarantine=None,
    ) -> None:
        self.service = service
        #: optional guard QuarantineMonitor — a gate-passed promotion
        #: supersedes any standing quarantine of the old primary
        self.quarantine = quarantine
        self.candidate_factory = candidate_factory
        self.detector = detector
        self.gate = gate or PromotionGate(list(detector.probe.queries), seed=seed)
        self.policy = policy or RetryPolicy()
        self.store = CheckpointStore(checkpoint_dir)
        self.attempt_deadline_seconds = attempt_deadline_seconds
        self.seed = seed
        self._sleep = sleep
        self.state = "idle"
        self.passes = 0
        if not self.detector.has_baseline:
            self.detector.set_baseline(self.incumbent, service.table)

    # ------------------------------------------------------------------
    @property
    def incumbent(self) -> CardinalityEstimator:
        """The currently serving primary model."""
        return self.service.primary_estimator

    @property
    def generation(self) -> int:
        return self.service.model_generation

    # ------------------------------------------------------------------
    def on_update(
        self,
        new_table: Table,
        appended: np.ndarray,
        workload: Workload | None = None,
    ) -> LifecycleReport:
        """React to a data update: check drift, maybe retrain + promote.

        ``workload`` is the fresh training workload labelled against
        ``new_table`` (required when the candidate is query-driven).
        The incumbent — and the whole serving chain — is left untouched
        unless a candidate passes the gate, so a crashing, flaky, or
        regressed retrain can never take serving down.
        """
        self.passes += 1
        with span("lifecycle.pass", generation=self.generation):
            decision = self.detector.check(self.incumbent, new_table)
            get_events().emit(
                "lifecycle.drift",
                drifted=decision.drifted,
                reasons=",".join(decision.reasons),
                qerror_p95=decision.qerror_p95,
                baseline_p95=decision.baseline_p95,
                row_growth=decision.row_growth,
            )
            if not decision.drifted:
                self._transition(NO_DRIFT)
                return LifecycleReport(
                    state=NO_DRIFT,
                    drift=decision,
                    retrain=None,
                    gate=None,
                    generation=self.generation,
                )
            return self._retrain_and_promote(decision, new_table, workload)

    def force_retrain(
        self, new_table: Table, workload: Workload | None = None
    ) -> LifecycleReport:
        """Run the retrain/validate/promote pass regardless of drift."""
        self.passes += 1
        decision = self.detector.check(self.incumbent, new_table)
        return self._retrain_and_promote(decision, new_table, workload)

    # ------------------------------------------------------------------
    def _retrain_and_promote(
        self,
        decision: DriftDecision,
        new_table: Table,
        workload: Workload | None,
    ) -> LifecycleReport:
        self._transition("training")
        candidate = self.candidate_factory()
        job = RetrainJob(
            candidate,
            new_table,
            workload,
            store=self.store,
            policy=self.policy,
            attempt_deadline_seconds=self.attempt_deadline_seconds,
            seed=self.seed,
            sleep=self._sleep,
        )
        retrain = job.run()
        if not retrain.succeeded:
            # Incumbent keeps serving; checkpoints stay on disk so the
            # next pass resumes instead of restarting.
            self._transition(RETRAIN_FAILED, attempts=retrain.total_attempts)
            return LifecycleReport(
                state=RETRAIN_FAILED,
                drift=decision,
                retrain=retrain,
                gate=None,
                generation=self.generation,
            )

        self._transition("validating")
        with span("lifecycle.validate"):
            report = self.gate.evaluate(candidate, self.incumbent, new_table)
        get_events().emit(
            "lifecycle.validated",
            passed=report.passed,
            reasons="; ".join(report.reasons),
            candidate_p95=report.candidate_p95,
            incumbent_p95=report.incumbent_p95,
        )
        if report.passed:
            return self._promote(decision, retrain, report, candidate, new_table)
        return self._rollback(decision, retrain, report)

    def _promote(
        self,
        decision: DriftDecision,
        retrain: RetrainReport,
        report: GateReport,
        candidate: CardinalityEstimator,
        new_table: Table,
    ) -> LifecycleReport:
        self.service.replace_primary(candidate)
        if self.quarantine is not None:
            self.quarantine.on_promotion()
        self.detector.set_baseline(candidate, new_table)
        self._transition(PROMOTED, generation=self.generation)
        self._count_promotion(PROMOTED)
        get_registry().gauge(
            LIFECYCLE_MODEL_GENERATION, "Serving model generation"
        ).set(self.generation)
        return LifecycleReport(
            state=PROMOTED,
            drift=decision,
            retrain=retrain,
            gate=report,
            generation=self.generation,
        )

    def _rollback(
        self, decision: DriftDecision, retrain: RetrainReport, report: GateReport
    ) -> LifecycleReport:
        # "Rollback" is a non-event by construction: the incumbent was
        # never unplugged, so rejecting the candidate is just... not
        # promoting it.  The event still narrates why.
        self._transition(ROLLED_BACK, reasons="; ".join(report.reasons))
        self._count_promotion(ROLLED_BACK)
        return LifecycleReport(
            state=ROLLED_BACK,
            drift=decision,
            retrain=retrain,
            gate=report,
            generation=self.generation,
        )

    # ------------------------------------------------------------------
    def _transition(self, state: str, **fields) -> None:
        previous, self.state = self.state, state
        get_events().emit(
            "lifecycle.transition", state=state, previous=previous, **fields
        )
        get_registry().counter(
            LIFECYCLE_TRANSITIONS, "Lifecycle state transitions"
        ).inc(state=state)

    def _count_promotion(self, outcome: str) -> None:
        get_registry().counter(
            LIFECYCLE_PROMOTIONS, "Promotion-gate outcomes"
        ).inc(outcome=outcome)
