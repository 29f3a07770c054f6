"""The guard facade: bounds + OOD + quarantine behind one object.

:class:`EstimateGuard` is what the serving layers actually hold.  It is
deliberately passive — the :class:`~repro.serve.EstimatorService` and
:class:`~repro.shard.Shard` call into it at three hook points:

* ``fit``/``update`` — (re)build the :class:`~repro.guard.BoundSketch`
  and the :class:`~repro.guard.DomainSnapshot` from the table the chain
  was fitted on;
* ``clamp(query, value)`` — pull any accepted estimate into the
  provable ``[lower, upper]`` interval, returning the violation reason
  (``"above-upper"`` / ``"below-lower"``) when the raw value broke it;
* ``is_ood(query)`` — decide whether the learned primary should be
  skipped for this query.

Batch callers use ``clamp_many`` and ``is_ood_many``/``ood_flags``, one
vectorized pass per batch with the same per-query results.  A batch of
one (every scalar ``serve``) is answered by the scalar forms instead:
they give the same bits and skip the vectorized pass's fixed cost.

The guard also relays accuracy feedback to an attached
:class:`~repro.guard.QuarantineMonitor` (see :meth:`observe_qerror`),
so ``service.record_actual`` drives demotion without the service layer
knowing the quarantine machinery exists.  Every piece degrades to a
no-op when unfitted or disabled, so a guard can be installed on an
unfitted chain and simply wake up at ``fit`` time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.query import Query
from .bounds import BoundSketch
from .ood import DomainSnapshot, OodDetector, OodVerdict


class EstimateGuard:
    """Bounds clamp + OOD routing + quarantine relay (see module doc)."""

    def __init__(
        self,
        *,
        bounds_enabled: bool = True,
        ood_enabled: bool = True,
    ) -> None:
        self.bounds_enabled = bounds_enabled
        self.ood_enabled = ood_enabled
        self.sketch: BoundSketch | None = None
        self.detector: OodDetector | None = None
        #: attached by the caller after the service exists (the monitor
        #: needs the service reference to demote)
        self.monitor = None
        # Introspection counters (metrics/events are emitted by the
        # serving layer, which owns the telemetry sinks).
        self.clamped = 0
        self.ood_rerouted = 0

    # ------------------------------------------------------------------
    # Fit-time hooks
    # ------------------------------------------------------------------
    def fit(self, table, workload=None) -> None:
        """Capture the bound sketch and training-domain snapshot."""
        if self.bounds_enabled:
            self.sketch = BoundSketch(table)
        if self.ood_enabled:
            self.detector = OodDetector(DomainSnapshot.capture(table, workload))

    def update(self, table, appended=None) -> None:
        """Fold a data update into the sketch (snapshot follows the
        refitted model: the chain's ``update`` retrains on the new
        table, so its value ranges become the training domain)."""
        if self.sketch is not None:
            self.sketch.update(table, appended)
        if self.detector is not None:
            self.detector = OodDetector(DomainSnapshot.capture(table, None))

    # ------------------------------------------------------------------
    # Serve-time hooks
    # ------------------------------------------------------------------
    def bounds(self, query: Query) -> tuple[float, float] | None:
        if self.sketch is None:
            return None
        return self.sketch.bounds(query)

    def clamp(self, query: Query, value: float) -> tuple[float, str | None]:
        """Pull ``value`` into the provable interval; name the reason."""
        if self.sketch is None:
            return value, None
        lower, upper = self.sketch.bounds(query)
        if value > upper:
            self.clamped += 1
            return upper, "above-upper"
        if value < lower:
            self.clamped += 1
            return lower, "below-lower"
        return value, None

    def clamp_many(
        self, queries: Sequence[Query], values: np.ndarray
    ) -> tuple[np.ndarray, list[str | None]]:
        """:meth:`clamp` for a batch: the clamped values and, per query,
        the violation reason or ``None``."""
        values = np.asarray(values, dtype=np.float64)
        if self.sketch is None:
            return values, [None] * len(values)
        if len(values) == 1:
            value, reason = self.clamp(queries[0], float(values[0]))
            return np.array([value]), [reason]
        upper = self.sketch.upper_bounds(queries)
        lower = self.sketch.lower_bounds(queries)
        above = values > upper
        below = ~above & (values < lower)
        self.clamped += int(np.count_nonzero(above | below))
        served = np.where(above, upper, np.where(below, lower, values))
        reasons = [
            "above-upper" if a else "below-lower" if b else None
            for a, b in zip(above.tolist(), below.tolist())
        ]
        return served, reasons

    def ood_verdict(self, query: Query) -> OodVerdict | None:
        if self.detector is None:
            return None
        return self.detector.score(query)

    def is_ood(self, query: Query) -> bool:
        if self.detector is None:
            return False
        if self.detector.is_ood(query):
            self.ood_rerouted += 1
            return True
        return False

    def ood_flags(self, queries: Sequence[Query]) -> np.ndarray:
        """Per-query :meth:`is_ood` decisions for a batch, counting none
        (a caller that only splits the batch leaves the reroute count to
        the chain that serves the split)."""
        if self.detector is None:
            return np.zeros(len(queries), dtype=bool)
        if len(queries) == 1:
            return np.array([self.detector.is_ood(queries[0])])
        return self.detector.scores(queries) > self.detector.threshold

    def is_ood_many(self, queries: Sequence[Query]) -> np.ndarray:
        """:meth:`is_ood` for a batch, counting every reroute."""
        flags = self.ood_flags(queries)
        self.ood_rerouted += int(np.count_nonzero(flags))
        return flags

    # ------------------------------------------------------------------
    # Feedback relay
    # ------------------------------------------------------------------
    def observe_qerror(self, tenant: str, qerror: float) -> None:
        if self.monitor is not None:
            self.monitor.observe(tenant, qerror)
