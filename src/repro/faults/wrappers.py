"""Composable fault-injecting estimator wrappers.

Each wrapper implements the estimator protocol around an inner
estimator and misbehaves on a seeded schedule, reproducing the failure
modes the paper documents (and the ones operations people meet in
production):

* :class:`LatencyFault` — estimates stall, blowing the serving deadline.
* :class:`ExceptionFault` — estimates raise.
* :class:`NaNFault` — estimates come back NaN (or any chosen garbage
  value, e.g. ``inf``), bypassing the base-class clamp exactly like a
  buggy model wrapper would.
* :class:`CorruptionFault` — the model's numpy arrays are perturbed in
  place once, simulating a corrupted/bad artifact shipped to serving.
* :class:`StaleModelFault` — ``update()`` silently does nothing, so the
  model keeps answering from pre-update state (the Section 5 staleness
  hazard, composable with :mod:`repro.dynamic`'s environment machinery).

Faults fire with probability ``probability`` per call after the first
``after`` calls (and, when ``until`` is set, only through call number
``until`` — a bounded incident window), driven by a dedicated ``numpy``
generator, so a given ``seed`` yields an identical fault schedule on
every run.

**Adversarial distribution faults** produce *plausible-looking but
systematically wrong* answers — the guardrail hazards
:mod:`repro.guard` defends against (none of them trip the NaN/inf
sanity checks; only provable bounds, OOD detection, or q-error
quarantine catch them):

* :class:`CorrelatedShiftFault` — estimates are inflated by
  ``magnitude`` per predicate, the signature of an independence
  assumption meeting correlated columns.
* :class:`DomainShiftFault` — queries are answered as if translated
  across the column domain, the signature of a model trained on a
  different region of the data than it is serving.
* :class:`UpdateSkewFault` — ``update()`` forwards only a biased slice
  of the appended rows, so the model's view of the table silently
  drifts from the truth with every update.

**Update-path faults** target the training/retraining lifecycle instead
of the query path (the hazards :mod:`repro.lifecycle` defends against):

* :class:`CrashAtEpochFault` — training dies with :class:`SimulatedCrash`
  when it reaches a chosen epoch, a configurable number of times.
* :class:`FlakyRetrainFault` — the first N retrain attempts fail at
  startup (transient infrastructure trouble).
* :class:`HangingRetrainFault` — epochs stall, blowing the retrain
  job's per-attempt deadline.

**Worker-level faults** target a forked serving worker rather than the
model (the hazards :mod:`repro.shard`'s supervisor defends against):

* :class:`WorkerCrashFault` — the hosting *process* dies mid-estimate
  (``os._exit``; injectable for in-process unit tests), so a sharded
  worker disappears mid-batch exactly like an OOM kill.
* :class:`WorkerHangFault` — an estimate stalls far past any heartbeat
  or request deadline (injectable sleep), simulating a wedged worker.
* :class:`SlowWorkerFault` — every *batch* pays a fixed delay,
  simulating a degraded-but-alive worker (distinct from
  :class:`LatencyFault`, which stalls per query).

:func:`queue_flood` is the matching traffic generator: it tiles a
workload into a seeded burst that overflows any bounded admission queue.

All fault wrappers transparently delegate the resumable-training
protocol (``begin_training`` / ``train_epochs`` / ``training_state`` /
``restore_training``) to the wrapped estimator, so a fault-wrapped
candidate drops straight into a :class:`repro.lifecycle.RetrainJob`.
:func:`truncate_file` simulates a torn checkpoint on disk.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Predicate, Query
from ..core.table import Table
from ..core.workload import Workload


class SimulatedCrash(RuntimeError):
    """An injected process death during training (see CrashAtEpochFault)."""


def truncate_file(path, keep_fraction: float = 0.5) -> int:
    """Chop a file to its leading ``keep_fraction`` — a torn write.

    Simulates the crash-mid-write hazard the checkpoint/artifact layer
    must survive: the truncated file still exists at the final path but
    fails its content checksum.  Returns the new size in bytes.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    size = os.path.getsize(path)
    kept = int(size * keep_fraction)
    os.truncate(path, kept)
    return kept


class FaultInjector(CardinalityEstimator):
    """Base wrapper: delegate to ``inner``, inject a fault on schedule.

    Subclasses override :meth:`_fault`.  The public :meth:`estimate` is
    overridden (rather than ``_estimate``) so injected garbage reaches
    the caller unclamped — the whole point is to exercise the serving
    layer's defenses, not the base class's.
    """

    kind = "fault"

    def __init__(
        self,
        inner: CardinalityEstimator,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        until: int | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if after < 0:
            raise ValueError("after must be non-negative")
        if until is not None and until < after:
            raise ValueError("until must be >= after")
        self.inner = inner
        self.probability = probability
        self.after = after
        self.until = until
        self.name = f"{self.kind}({inner.name})"
        self.requires_workload = inner.requires_workload
        self._rng = np.random.default_rng(seed)
        self._calls = 0
        self.faults_fired = 0
        # Adopt an already-fitted inner estimator.
        try:
            self._table = inner.table
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        self.inner.fit(table, workload)

    def _update(self, table: Table, appended, workload: Workload | None) -> None:
        self.inner.update(table, appended, workload)

    def _scheduled(self) -> bool:
        """Roll the seeded schedule for the current call number."""
        if self._calls <= self.after:
            return False
        if self.until is not None and self._calls > self.until:
            return False
        return self._rng.random() < self.probability

    def estimate(self, query: Query) -> float:
        if self._table is None:
            raise RuntimeError(f"{self.name} must be fit before estimating")
        self._calls += 1
        if self._scheduled():
            self.faults_fired += 1
            return self._fault(query)
        return self.inner.estimate(query)

    def estimate_many(self, queries) -> np.ndarray:
        """Batch path: one scheduled fault roll per query, unclamped.

        The base class's batched dispatch would clamp/sanitize through
        ``_estimate_batch``; faults must reach the caller raw (NaN, inf,
        exceptions), so the batch is routed through the overridden
        :meth:`estimate` — the fault schedule advances exactly as if the
        queries had been served one by one.
        """
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)

    def _estimate(self, query: Query) -> float:
        return self.inner.estimate(query)

    def model_size_bytes(self) -> int:
        return self.inner.model_size_bytes()

    # ------------------------------------------------------------------
    # Resumable-training protocol: transparent delegation, so a
    # fault-wrapped estimator can be driven by repro.lifecycle's
    # checkpointing trainer.  Update-path faults override pieces.
    # ------------------------------------------------------------------
    @property
    def supports_resumable_training(self) -> bool:  # type: ignore[override]
        return getattr(self.inner, "supports_resumable_training", False)

    @property
    def epochs_trained(self) -> int:
        return self.inner.epochs_trained

    @property
    def target_epochs(self) -> int:
        return self.inner.target_epochs

    def begin_training(self, table: Table, workload: Workload) -> None:
        self.inner.begin_training(table, workload)
        self._table = table

    def train_epochs(self, workload: Workload, epochs: int) -> None:
        self.inner.train_epochs(workload, epochs)

    def training_state(self) -> dict:
        return self.inner.training_state()

    def restore_training(self, table: Table, workload: Workload, state: dict) -> None:
        self.inner.restore_training(table, workload, state)
        self._table = table

    # ------------------------------------------------------------------
    def _fault(self, query: Query) -> float:
        """Produce one faulty response (may raise or stall)."""
        raise NotImplementedError


class LatencyFault(FaultInjector):
    """Stall for ``delay_seconds`` before answering correctly."""

    kind = "latency"

    def __init__(
        self,
        inner: CardinalityEstimator,
        delay_seconds: float = 0.05,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
    ) -> None:
        super().__init__(inner, probability, seed, after)
        if delay_seconds < 0.0:
            raise ValueError("delay_seconds must be non-negative")
        self.delay_seconds = delay_seconds

    def _fault(self, query: Query) -> float:
        time.sleep(self.delay_seconds)
        return self.inner.estimate(query)


class ExceptionFault(FaultInjector):
    """Raise instead of answering."""

    kind = "exception"

    def __init__(
        self,
        inner: CardinalityEstimator,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        message: str = "injected estimator fault",
    ) -> None:
        super().__init__(inner, probability, seed, after)
        self.message = message

    def _fault(self, query: Query) -> float:
        raise RuntimeError(self.message)


class NaNFault(FaultInjector):
    """Answer with NaN (or any chosen garbage value, e.g. ``inf``)."""

    kind = "nan"

    def __init__(
        self,
        inner: CardinalityEstimator,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        value: float = float("nan"),
    ) -> None:
        super().__init__(inner, probability, seed, after)
        self.value = float(value)

    def _fault(self, query: Query) -> float:
        return self.value


class CorruptionFault(FaultInjector):
    """Perturb the inner model's float arrays once — a bad artifact.

    On the first scheduled firing, every float ndarray reachable from
    the inner estimator (model weights, histogram counts, SPN
    parameters; the training :class:`Table` itself is left alone) gets
    additive Gaussian noise of ``magnitude`` standard deviations.  From
    then on the corrupted model answers natively — typically garbage,
    often out of bounds, exactly what a truncated or bit-flipped
    artifact produces after a clean unpickle.
    """

    kind = "corruption"

    def __init__(
        self,
        inner: CardinalityEstimator,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        magnitude: float = 5.0,
    ) -> None:
        super().__init__(inner, probability, seed, after)
        if magnitude <= 0.0:
            raise ValueError("magnitude must be positive")
        self.magnitude = magnitude
        self.corrupted = False
        self.arrays_corrupted = 0

    def _fault(self, query: Query) -> float:
        if not self.corrupted:
            self.corrupted = True
            self.arrays_corrupted = self._corrupt(self.inner, set(), depth=0)
        return self.inner.estimate(query)

    def _corrupt(self, obj, seen: set[int], depth: int) -> int:
        if id(obj) in seen or depth > 8:
            return 0
        seen.add(id(obj))
        count = 0
        if isinstance(obj, np.ndarray):
            if np.issubdtype(obj.dtype, np.floating) and obj.size:
                scale = self.magnitude * (float(obj.std()) + 1.0)
                obj += self._rng.normal(0.0, scale, size=obj.shape)
                count += 1
            return count
        if isinstance(obj, Table):
            return 0  # corrupt the model, not the data it was built from
        if isinstance(obj, dict):
            values = obj.values()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            values = obj
        elif hasattr(obj, "__dict__"):
            values = vars(obj).values()
        else:
            return 0
        for value in values:
            count += self._corrupt(value, seen, depth + 1)
        return count


class CrashAtEpochFault(FaultInjector):
    """Kill training when it reaches ``crash_epoch``, ``times`` times.

    Models the mid-retrain process death of the lifecycle story: the
    wrapper delegates training epoch by epoch and raises
    :class:`SimulatedCrash` the moment the wrapped estimator's epoch
    counter reaches ``crash_epoch`` (each crash consumes one of
    ``times``; afterwards training proceeds normally, e.g. after a
    resume from checkpoint).  Query-path behaviour is untouched.
    """

    kind = "crash-at-epoch"

    def __init__(
        self,
        inner: CardinalityEstimator,
        crash_epoch: int,
        times: int = 1,
    ) -> None:
        super().__init__(inner, probability=0.0)
        if crash_epoch < 0:
            raise ValueError("crash_epoch must be non-negative")
        if times < 0:
            raise ValueError("times must be non-negative")
        self.crash_epoch = crash_epoch
        self.crashes_left = times
        self.crashes_fired = 0

    def train_epochs(self, workload: Workload, epochs: int) -> None:
        for _ in range(epochs):
            if self.crashes_left and self.inner.epochs_trained >= self.crash_epoch:
                self.crashes_left -= 1
                self.crashes_fired += 1
                raise SimulatedCrash(
                    f"injected crash at epoch {self.inner.epochs_trained}"
                )
            self.inner.train_epochs(workload, 1)

    def _fault(self, query: Query) -> float:  # pragma: no cover - never fires
        return self.inner.estimate(query)


class FlakyRetrainFault(FaultInjector):
    """The first ``fail_attempts`` training attempts die at startup.

    Each call to :meth:`begin_training` or :meth:`restore_training`
    counts as one attempt; transient infrastructure failures (OOM kills,
    lost workers) present exactly like this to a retry loop.
    """

    kind = "flaky-retrain"

    def __init__(self, inner: CardinalityEstimator, fail_attempts: int = 2) -> None:
        super().__init__(inner, probability=0.0)
        if fail_attempts < 0:
            raise ValueError("fail_attempts must be non-negative")
        self.fail_attempts = fail_attempts
        self.attempts = 0

    def _maybe_fail(self) -> None:
        self.attempts += 1
        if self.attempts <= self.fail_attempts:
            raise RuntimeError(
                f"injected flaky retrain failure (attempt {self.attempts})"
            )

    def begin_training(self, table: Table, workload: Workload) -> None:
        self._maybe_fail()
        super().begin_training(table, workload)

    def restore_training(self, table: Table, workload: Workload, state: dict) -> None:
        self._maybe_fail()
        super().restore_training(table, workload, state)

    def _fault(self, query: Query) -> float:  # pragma: no cover - never fires
        return self.inner.estimate(query)


class HangingRetrainFault(FaultInjector):
    """Epochs stall for ``hang_seconds`` during the first ``hang_attempts``
    training attempts, blowing any per-attempt deadline.

    The stall happens *before* each delegated epoch chunk, so a
    cooperative deadline check (see
    :class:`repro.lifecycle.RetrainJob`) observes the overrun after the
    chunk returns and abandons the attempt; later attempts run clean.
    ``sleep`` performs the stall; a test passes one that advances the
    fake clock its ``RetrainJob`` reads, so no real deadline is raced.
    """

    kind = "hanging-retrain"

    def __init__(
        self,
        inner: CardinalityEstimator,
        hang_seconds: float = 0.05,
        hang_attempts: int = 1,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner, probability=0.0)
        if hang_seconds < 0.0:
            raise ValueError("hang_seconds must be non-negative")
        if hang_attempts < 0:
            raise ValueError("hang_attempts must be non-negative")
        self.hang_seconds = hang_seconds
        self.hang_attempts = hang_attempts
        self._sleep = sleep
        self.attempts = 0
        self.hangs_fired = 0

    def begin_training(self, table: Table, workload: Workload) -> None:
        self.attempts += 1
        super().begin_training(table, workload)

    def restore_training(self, table: Table, workload: Workload, state: dict) -> None:
        self.attempts += 1
        super().restore_training(table, workload, state)

    def train_epochs(self, workload: Workload, epochs: int) -> None:
        if self.attempts <= self.hang_attempts:
            self.hangs_fired += 1
            self._sleep(self.hang_seconds)
        self.inner.train_epochs(workload, epochs)

    def _fault(self, query: Query) -> float:  # pragma: no cover - never fires
        return self.inner.estimate(query)


class WorkerCrashFault(FaultInjector):
    """Kill the hosting process mid-estimate — a serving worker dying.

    When the seeded schedule fires, the wrapper terminates the *process*
    via ``os._exit(exit_code)`` (no cleanup, no exception propagation —
    exactly what an OOM kill or segfault looks like from the parent's
    end of the pipe).  Inside a forked :mod:`repro.shard` worker the
    supervisor observes a dead pipe mid-batch; that is the scenario this
    wrapper exists to produce.

    Unit tests run in the parent process, so ``_exit`` is injectable:
    pass a callable (e.g. one raising :class:`SimulatedCrash`) and it is
    invoked instead of ``os._exit``.
    """

    kind = "worker-crash"

    def __init__(
        self,
        inner: CardinalityEstimator,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        exit_code: int = 3,
        _exit: Callable[[int], None] | None = None,
    ) -> None:
        super().__init__(inner, probability, seed, after)
        self.exit_code = exit_code
        self._exit = os._exit if _exit is None else _exit

    def _fault(self, query: Query) -> float:
        self._exit(self.exit_code)
        # Only reachable with an injected (non-exiting) _exit double.
        return self.inner.estimate(query)


class WorkerHangFault(FaultInjector):
    """Stall an estimate far past any request deadline — a wedged worker.

    Unlike :class:`LatencyFault` (a *slow but recovering* tier), the
    hang is meant to exceed the supervisor's heartbeat/request timeout
    so the worker gets killed and restarted; ``hang_seconds`` defaults
    high enough that a test that fails to time out hangs visibly rather
    than passing silently.  ``sleep`` is injectable for unit tests.
    """

    kind = "worker-hang"

    def __init__(
        self,
        inner: CardinalityEstimator,
        hang_seconds: float = 30.0,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner, probability, seed, after)
        if hang_seconds < 0.0:
            raise ValueError("hang_seconds must be non-negative")
        self.hang_seconds = hang_seconds
        self._sleep = sleep

    def _fault(self, query: Query) -> float:
        self._sleep(self.hang_seconds)
        return self.inner.estimate(query)


class SlowWorkerFault(FaultInjector):
    """Delay every *batch* by a fixed amount — a degraded, alive worker.

    A slow worker is not a hung worker: it keeps answering correctly,
    just late enough to erode the deadline budget and trip
    deadline-aware admission control.  The delay is paid once per
    ``estimate_many`` call (and once per scalar call), not per query, so
    batch size controls the per-query cost exactly like a worker whose
    host is CPU-starved.  ``sleep`` is injectable for unit tests.
    """

    kind = "slow-worker"

    def __init__(
        self,
        inner: CardinalityEstimator,
        delay_seconds: float = 0.01,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner, probability, seed, after)
        if delay_seconds < 0.0:
            raise ValueError("delay_seconds must be non-negative")
        self.delay_seconds = delay_seconds
        self._sleep = sleep

    def estimate_many(self, queries) -> np.ndarray:
        """One fault roll — and at most one delay — for the whole batch."""
        if self._table is None:
            raise RuntimeError(f"{self.name} must be fit before estimating")
        self._calls += 1
        if self._scheduled():
            self.faults_fired += 1
            self._sleep(self.delay_seconds)
        return np.asarray(self.inner.estimate_many(queries), dtype=np.float64)

    def _fault(self, query: Query) -> float:
        self._sleep(self.delay_seconds)
        return self.inner.estimate(query)


def queue_flood(
    queries: Sequence[Query], multiplier: int = 8, seed: int = 0
) -> list[Query]:
    """Tile a workload into a seeded burst that overflows bounded queues.

    Returns ``multiplier`` copies of ``queries`` in a deterministic
    shuffled order — the traffic shape of a dashboard stampede or a
    retry storm: the same parametrized queries, all at once, far beyond
    any per-shard admission capacity.  The multiset of queries is
    preserved exactly, so availability accounting stays exact under the
    flood.
    """
    if multiplier < 1:
        raise ValueError(f"multiplier must be at least 1, got {multiplier}")
    flood = [q for q in queries for _ in range(multiplier)]
    order = np.random.default_rng(seed).permutation(len(flood))
    return [flood[i] for i in order]


class StaleModelFault(FaultInjector):
    """Silently drop updates: the model keeps serving pre-update state.

    This is the Section 5 hazard as a serving fault: the wrapper accepts
    ``update()`` calls (and reports near-zero update cost) but never
    propagates them to the inner model, so after a data update —
    e.g. one produced by :func:`repro.datasets.updates.apply_update` and
    replayed through :mod:`repro.dynamic`'s environment machinery —
    every estimate comes from the stale model.
    """

    kind = "stale"

    def __init__(self, inner: CardinalityEstimator, seed: int = 0) -> None:
        super().__init__(inner, probability=0.0, seed=seed)
        self.dropped_updates = 0

    def _update(self, table: Table, appended, workload: Workload | None) -> None:
        self.dropped_updates += 1

    def _fault(self, query: Query) -> float:  # pragma: no cover - never fires
        return self.inner.estimate(query)


class CorrelatedShiftFault(FaultInjector):
    """Inflate estimates by ``magnitude`` per predicate — AVI gone wrong.

    The attribute-value-independence assumption multiplies per-column
    selectivities; when the columns are in fact correlated, the product
    under- or over-shoots *geometrically in the number of predicates*.
    Each scheduled answer is the inner estimate times
    ``magnitude ** num_predicates``: ``magnitude > 1`` reproduces the
    overestimate direction (only a provable upper bound stops it),
    ``magnitude < 1`` the underestimate direction on positively
    correlated data (no bound catches it — only q-error feedback).
    Either way the result is finite and positive, sailing straight
    through NaN/inf sanity checks.
    """

    kind = "correlated-shift"

    def __init__(
        self,
        inner: CardinalityEstimator,
        magnitude: float = 8.0,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        until: int | None = None,
    ) -> None:
        super().__init__(inner, probability, seed, after, until)
        if magnitude <= 0.0 or magnitude == 1.0:
            raise ValueError("magnitude must be positive and not 1.0")
        self.magnitude = magnitude

    def _fault(self, query: Query) -> float:
        inflation = self.magnitude ** max(len(query.predicates), 1)
        return self.inner.estimate(query) * inflation


class DomainShiftFault(FaultInjector):
    """Answer queries as if translated across the column domain.

    Models a train/serve domain mismatch: the scheduled answer is the
    inner estimate for the query *shifted* by ``shift_fraction`` of each
    predicated column's value range — i.e. the model responds from a
    different region of the distribution than the one being asked
    about.  Like all adversarial faults the answer is perfectly sane in
    isolation; only comparing against the true domain (bounds, OOD
    scoring, q-error feedback) reveals it.
    """

    kind = "domain-shift"

    def __init__(
        self,
        inner: CardinalityEstimator,
        shift_fraction: float = 0.5,
        probability: float = 1.0,
        seed: int = 0,
        after: int = 0,
        until: int | None = None,
    ) -> None:
        super().__init__(inner, probability, seed, after, until)
        if shift_fraction == 0.0:
            raise ValueError("shift_fraction must be non-zero")
        self.shift_fraction = shift_fraction

    def _fault(self, query: Query) -> float:
        data = self.inner.table.data
        shifted = []
        for pred in query.predicates:
            column = data[:, pred.column]
            span = float(column.max() - column.min()) or 1.0
            shift = self.shift_fraction * span
            shifted.append(
                Predicate(
                    column=pred.column,
                    lo=None if pred.lo is None else pred.lo + shift,
                    hi=None if pred.hi is None else pred.hi + shift,
                )
            )
        return self.inner.estimate(Query(predicates=tuple(shifted)))


class UpdateSkewFault(FaultInjector):
    """Forward only a biased slice of appended rows — silent data skew.

    On every ``update()`` the wrapper keeps just the appended rows whose
    ``column`` value is at or below the append batch's median and shows
    the inner model a table containing only those (the wrapper itself —
    and therefore the serving layer — still sees the true table).  The
    model's view of the distribution drifts further from the truth with
    each update, the creeping version of the Section 5 staleness hazard
    that no single-query sanity check can catch.
    """

    kind = "update-skew"

    def __init__(
        self, inner: CardinalityEstimator, column: int = 0, seed: int = 0
    ) -> None:
        super().__init__(inner, probability=0.0, seed=seed)
        self.column = column
        self.updates_skewed = 0

    def _update(self, table: Table, appended, workload: Workload | None) -> None:
        if appended is None or len(appended) == 0:
            self.inner.update(table, appended, workload)
            return
        self.updates_skewed += 1
        values = appended[:, self.column]
        biased = appended[values <= np.median(values)]
        old_rows = table.data[: table.num_rows - len(appended)]
        skewed = Table(
            name=table.name,
            data=np.vstack([old_rows, biased]),
            column_names=list(table.column_names),
        )
        if workload is not None:
            # The model's whole training view is the skewed world: any
            # retraining labels are recomputed against the biased table.
            workload = Workload(
                queries=workload.queries,
                cardinalities=skewed.cardinalities(list(workload.queries)),
            )
        self.inner.update(skewed, biased, workload)

    def _fault(self, query: Query) -> float:  # pragma: no cover - never fires
        return self.inner.estimate(query)
