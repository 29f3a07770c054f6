"""Retraining as a supervised job: checkpoints, retries, backoff.

:class:`RetrainJob` owns one attempt-loop around training a candidate
estimator.  For estimators implementing the resumable-training protocol
(``supports_resumable_training``) it drives training in
:data:`CHECKPOINT_EVERY`-epoch chunks, persisting a
:class:`~repro.lifecycle.checkpoint.CheckpointStore` snapshot after each
chunk — so a crash (injected or real) costs at most one chunk of
epochs: the next attempt **resumes from the last good checkpoint instead
of restarting from epoch 0**.

Attempts are bounded by :class:`RetryPolicy` (max attempts, exponential
backoff with seeded jitter) and by a cooperative per-attempt deadline:
the clock is checked between epoch chunks, so a hanging attempt is
abandoned with :class:`AttemptTimeout` at the next chunk boundary and
its progress survives in the checkpoint store.

``clock`` and ``sleep`` are injectable for tests (``tests/test_lifecycle.py``
uses ``sleep`` as a hook to keep serving probe traffic during backoff,
proving availability through a failing retrain).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.table import Table
from ..core.workload import Workload
from ..obs import LIFECYCLE_RETRAIN_ATTEMPTS, get_events, get_registry, span
from .checkpoint import CheckpointStore

#: epochs trained between two checkpoint saves
CHECKPOINT_EVERY = 1


class RetrainError(RuntimeError):
    """A retrain attempt failed."""


class AttemptTimeout(RetrainError):
    """An attempt exceeded its per-attempt deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter."""

    max_attempts: int = 3
    backoff_base_seconds: float = 0.5
    backoff_cap_seconds: float = 30.0
    #: relative jitter: each backoff is scaled by 1 +/- jitter
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_seconds < 0.0 or self.backoff_cap_seconds < 0.0:
            raise ValueError("backoff seconds must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2.0**attempt),
        )
        return raw * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))


@dataclass(frozen=True)
class AttemptRecord:
    """What happened in one attempt of the retry loop."""

    attempt: int
    #: "succeeded" | "timeout" | "error"
    outcome: str
    #: epoch resumed from (0 = fresh start); None for non-resumable fits
    resumed_from_epoch: int | None
    epochs_run: int
    error: str | None
    #: backoff slept after this attempt (0.0 for the last / a success)
    backoff_seconds: float


@dataclass(frozen=True)
class RetrainReport:
    """Outcome of a whole :class:`RetrainJob` run."""

    succeeded: bool
    attempts: tuple[AttemptRecord, ...] = field(default_factory=tuple)

    @property
    def total_attempts(self) -> int:
        return len(self.attempts)

    @property
    def resumed(self) -> bool:
        """True when any attempt continued from a saved checkpoint."""
        return any((a.resumed_from_epoch or 0) > 0 for a in self.attempts)

    @property
    def total_epochs_run(self) -> int:
        return sum(a.epochs_run for a in self.attempts)


class RetrainJob:
    """Train ``estimator`` on ``table``/``workload`` under supervision."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        table: Table,
        workload: Workload | None,
        *,
        store: CheckpointStore | None = None,
        policy: RetryPolicy | None = None,
        attempt_deadline_seconds: float | None = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempt_deadline_seconds is not None and attempt_deadline_seconds <= 0.0:
            raise ValueError("attempt_deadline_seconds must be positive")
        self.estimator = estimator
        self.table = table
        self.workload = workload
        self.store = store
        self.policy = policy or RetryPolicy()
        self.attempt_deadline_seconds = attempt_deadline_seconds
        self._rng = np.random.default_rng(seed)
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    @property
    def resumable(self) -> bool:
        return bool(getattr(self.estimator, "supports_resumable_training", False))

    def run(self) -> RetrainReport:
        """Execute the attempt loop; never raises on training failure."""
        records: list[AttemptRecord] = []
        with span(
            "lifecycle.retrain",
            estimator=self.estimator.name,
            resumable=self.resumable,
        ):
            for attempt in range(self.policy.max_attempts):
                get_events().emit(
                    "lifecycle.retrain.attempt",
                    attempt=attempt,
                    estimator=self.estimator.name,
                )
                epochs_before = self._epochs_trained()
                self._attempt_resumed_from: int | None = None
                try:
                    resumed_from = self._attempt()
                except Exception as exc:
                    # A failed attempt may still have resumed (and made
                    # progress) before dying; report where it started.
                    resumed_from = self._attempt_resumed_from
                    outcome = (
                        "timeout" if isinstance(exc, AttemptTimeout) else "error"
                    )
                    self._count_attempt(outcome)
                    backoff = 0.0
                    last = attempt == self.policy.max_attempts - 1
                    if not last:
                        backoff = self.policy.backoff_seconds(attempt, self._rng)
                    get_events().emit(
                        "lifecycle.retrain.failed",
                        attempt=attempt,
                        outcome=outcome,
                        error=str(exc),
                        backoff_seconds=backoff,
                    )
                    records.append(
                        AttemptRecord(
                            attempt=attempt,
                            outcome=outcome,
                            resumed_from_epoch=resumed_from,
                            epochs_run=max(
                                0, self._epochs_trained() - epochs_before
                            ),
                            error=str(exc),
                            backoff_seconds=backoff,
                        )
                    )
                    if not last:
                        self._sleep(backoff)
                    continue
                self._count_attempt("succeeded")
                records.append(
                    AttemptRecord(
                        attempt=attempt,
                        outcome="succeeded",
                        resumed_from_epoch=resumed_from,
                        epochs_run=max(0, self._epochs_trained() - epochs_before),
                        error=None,
                        backoff_seconds=0.0,
                    )
                )
                if self.store is not None:
                    # Training completed; checkpoints have served their
                    # purpose, and the next retrain must start fresh.
                    self.store.clear()
                get_events().emit(
                    "lifecycle.retrain.succeeded",
                    attempt=attempt,
                    estimator=self.estimator.name,
                )
                return RetrainReport(succeeded=True, attempts=tuple(records))
        get_events().emit(
            "lifecycle.retrain.exhausted",
            attempts=self.policy.max_attempts,
            estimator=self.estimator.name,
        )
        return RetrainReport(succeeded=False, attempts=tuple(records))

    # ------------------------------------------------------------------
    def _attempt(self) -> int | None:
        if not self.resumable:
            # No mid-training checkpoints possible: the whole fit is one
            # unit of work per attempt.
            self.estimator.fit(self.table, self.workload)
            return None

        est = self.estimator
        checkpoint = self.store.latest() if self.store is not None else None
        if checkpoint is not None:
            est.restore_training(self.table, self.workload, checkpoint.state)
            resumed_from = checkpoint.epoch
            get_events().emit(
                "lifecycle.retrain.resume",
                epoch=checkpoint.epoch,
                estimator=est.name,
            )
        else:
            est.begin_training(self.table, self.workload)
            resumed_from = 0
        self._attempt_resumed_from = resumed_from

        target = est.target_epochs
        start = self._clock()
        while est.epochs_trained < target:
            if (
                self.attempt_deadline_seconds is not None
                and self._clock() - start > self.attempt_deadline_seconds
            ):
                raise AttemptTimeout(
                    f"attempt exceeded {self.attempt_deadline_seconds}s "
                    f"at epoch {est.epochs_trained}/{target}"
                )
            chunk = min(CHECKPOINT_EVERY, target - est.epochs_trained)
            est.train_epochs(self.workload, chunk)
            if self.store is not None:
                self.store.save(est.training_state(), est.epochs_trained)
        return resumed_from

    def _epochs_trained(self) -> int:
        return int(getattr(self.estimator, "epochs_trained", 0) or 0)

    # ------------------------------------------------------------------
    def _count_attempt(self, outcome: str) -> None:
        get_registry().counter(
            LIFECYCLE_RETRAIN_ATTEMPTS, "Retrain attempts, by outcome"
        ).inc(outcome=outcome)
