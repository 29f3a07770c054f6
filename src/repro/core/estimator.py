"""Estimator protocol shared by all thirteen methods.

Every estimator implements:

* ``fit(table, workload=None)`` — build the model/statistics.  Query-driven
  methods (``requires_workload`` true) need a labelled training workload;
  data-driven methods ignore it.
* ``estimate(query)`` — estimated COUNT(*) for one query.
* ``update(table, appended, workload=None)`` — react to appended rows, the
  dynamic-environment protocol of Section 5.  The default is a full refit;
  learned methods override it with the incremental procedure described in
  their original papers (e.g. Naru trains one more epoch, DeepDB inserts a
  sample into its SPN).

The base class instruments these calls through :mod:`repro.obs` — every
fit/estimate/update emits a tracing span (when a collector is installed)
and a latency-histogram sample, and the same measurement feeds the
backward-compatible :class:`TimingRecord` that Figure 4
(training/inference cost) and Figures 6-8 (dynamic environments) read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import observe_phase, timed_span
from .query import Query, QueryBatch
from .table import Table
from .workload import Workload


@dataclass
class TimingRecord:
    """Wall-clock costs captured by the harness for one estimator."""

    #: cumulative wall-clock across every fit() call (a refit adds to
    #: the total instead of silently overwriting the first fit's cost)
    fit_seconds: float = 0.0
    fit_count: int = 0
    #: cumulative wall-clock across every update() call (a dynamic run
    #: updates many times; per-call times are returned by update())
    update_seconds: float = 0.0
    update_count: int = 0
    total_inference_seconds: float = 0.0
    inference_count: int = 0

    @property
    def mean_fit_seconds(self) -> float:
        if self.fit_count == 0:
            return 0.0
        return self.fit_seconds / self.fit_count

    @property
    def mean_inference_ms(self) -> float:
        if self.inference_count == 0:
            return 0.0
        return 1000.0 * self.total_inference_seconds / self.inference_count

    @property
    def mean_update_seconds(self) -> float:
        if self.update_count == 0:
            return 0.0
        return self.update_seconds / self.update_count


class CardinalityEstimator(ABC):
    """Base class for all cardinality estimators in the benchmark."""

    #: Short name used in tables and the registry.
    name: str = "estimator"
    #: True for query-driven (regression) methods that need labelled queries.
    requires_workload: bool = False
    #: True when the estimator implements the resumable-training protocol
    #: (``begin_training`` / ``train_epochs`` / ``training_state`` /
    #: ``restore_training``) that :mod:`repro.lifecycle` drives for
    #: crash-safe checkpointed retraining.
    supports_resumable_training: bool = False

    def __init__(self) -> None:
        self.timing = TimingRecord()
        self._table: Table | None = None

    # ------------------------------------------------------------------
    # Public API (timed)
    # ------------------------------------------------------------------
    def fit(self, table: Table, workload: Workload | None = None) -> "CardinalityEstimator":
        """Build the estimator from ``table`` (and queries, if query-driven)."""
        if self.requires_workload and workload is None:
            raise ValueError(f"{self.name} is query-driven and needs a workload")
        with timed_span("estimator.fit", estimator=self.name) as timer:
            self._table = table
            self._fit(table, workload)
        self.timing.fit_seconds += timer.elapsed
        self.timing.fit_count += 1
        observe_phase("fit", self.name, timer.elapsed)
        return self

    def estimate(self, query: Query) -> float:
        """Estimated COUNT(*) for one query (clamped to be non-negative)."""
        if self._table is None:
            raise RuntimeError(f"{self.name} must be fit before estimating")
        with timed_span("estimator.estimate", estimator=self.name) as timer:
            value = self._estimate(query)
        self.timing.total_inference_seconds += timer.elapsed
        self.timing.inference_count += 1
        observe_phase("estimate", self.name, timer.elapsed)
        return max(0.0, float(value))

    def estimate_many(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimates for a batch of queries through the batched hot path.

        Dispatches to :meth:`_estimate_batch` (vectorized in subclasses
        where batching is real math, a scalar loop otherwise) under **one**
        ``estimator.estimate_batch`` span — a batch is one logical
        inference, so it must not inflate span counts N-fold the way the
        old per-query re-entry did.  Timing accounting stays per-query
        (``inference_count`` grows by ``len(queries)``), and every element
        gets exactly the scalar path's non-negativity clamp.  A
        :class:`~repro.core.query.QueryBatch` is passed through as it is,
        so a columnar batch stays columnar.
        """
        if self._table is None:
            raise RuntimeError(f"{self.name} must be fit before estimating")
        if not isinstance(queries, QueryBatch):
            queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        with timed_span(
            "estimator.estimate_batch", estimator=self.name, batch=len(queries)
        ) as timer:
            raw = np.asarray(self._estimate_batch(queries), dtype=np.float64)
        if raw.shape != (len(queries),):
            raise ValueError(
                f"{self.name}._estimate_batch returned shape {raw.shape} "
                f"for {len(queries)} queries"
            )
        self.timing.total_inference_seconds += timer.elapsed
        self.timing.inference_count += len(queries)
        observe_phase("estimate", self.name, timer.elapsed)
        # max(0.0, x) semantics per element: NaN compares False, so it
        # clamps to 0.0 exactly like the scalar path's ``max``.
        return np.where(raw > 0.0, raw, 0.0)

    def update(
        self,
        table: Table,
        appended: np.ndarray,
        workload: Workload | None = None,
    ) -> float:
        """React to ``appended`` rows; returns the update wall-clock seconds.

        ``table`` is the post-update relation (original rows plus
        ``appended``).  Query-driven methods receive a fresh training
        ``workload`` labelled against the new table.
        """
        if self._table is None:
            raise RuntimeError(f"{self.name} must be fit before updating")
        with timed_span("estimator.update", estimator=self.name) as timer:
            self._table = table
            self._update(table, appended, workload)
        self.timing.update_seconds += timer.elapsed
        self.timing.update_count += 1
        observe_phase("update", self.name, timer.elapsed)
        return timer.elapsed

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _fit(self, table: Table, workload: Workload | None) -> None:
        """Build internal state from the table (and optional workload)."""

    @abstractmethod
    def _estimate(self, query: Query) -> float:
        """Return the estimated cardinality (may be un-clamped)."""

    def _estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Raw estimates for a batch; override where batching is real math.

        The default issues the queries one by one through
        :meth:`_estimate`, preserving the paper's scalar semantics
        (including the order in which any stateful inference RNG is
        consumed).  Vectorized overrides must return bit-identical or
        numerically equivalent values (within 1e-9 relative) to the
        scalar loop — `tests/test_batch_equivalence.py` enforces this
        for every registered estimator.
        """
        return np.array([self._estimate(q) for q in queries], dtype=np.float64)

    def _update(
        self, table: Table, appended: np.ndarray, workload: Workload | None
    ) -> None:
        """Default update: rebuild from scratch on the new table."""
        self._fit(table, workload)

    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        if self._table is None:
            raise RuntimeError(f"{self.name} has not been fit")
        return self._table

    def model_size_bytes(self) -> int:
        """Approximate model footprint; 0 when not meaningful."""
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
