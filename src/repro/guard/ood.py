"""Training-domain snapshots and out-of-distribution query scoring.

Section 6 of the paper probes the estimators with queries drawn from the
*whole* value domain (``ood_probability = 1.0``) instead of from data
tuples, and the learned models fail worst exactly there: the query
lands where the model never saw training mass.  A serving stack cannot
retrain its way out of that per query, but it *can* notice that a query
is unlike anything in the training distribution and route it to a tier
whose error is bounded by construction (the DBMS/heuristic fallbacks)
instead of the learned primary.

:class:`DomainSnapshot` is captured during ``fit`` and records what the
model actually saw:

* per-column **value ranges** of the training table,
* the **predicate-arity** distribution of the training workload
  (min/max predicates per query), and
* the **predicate-width** distribution (per-column maximum width,
  normalized by the training range).

:class:`OodDetector` scores an incoming query's distance from that
snapshot as a sum of per-violation penalties (0 = indistinguishable
from training).  The score is interpretable — each contribution names
the predicate and the reason — and monotone: the further outside the
training domain, the larger the score.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.query import PredicateArrays, Query
from ..core.workload import Workload

#: score above which a query is treated as out-of-distribution
DEFAULT_OOD_THRESHOLD = 0.25


@dataclass(frozen=True)
class OodVerdict:
    """One query's distance from the training distribution."""

    score: float
    #: human-readable contributions, e.g. "col 2 range overshoot 1.40"
    reasons: tuple[str, ...] = ()

    @property
    def is_ood(self) -> bool:  # against the default threshold
        return self.score > DEFAULT_OOD_THRESHOLD


@dataclass
class DomainSnapshot:
    """What the model saw at fit time (see module docstring)."""

    #: per-column (min, max) of the training table
    column_ranges: list[tuple[float, float]]
    #: observed predicates-per-query range in the training workload
    arity_range: tuple[int, int]
    #: per-column maximum predicate width / training range (1.0 when the
    #: column was never predicated or the workload was absent)
    max_norm_width: list[float] = field(default_factory=list)

    @classmethod
    def capture(cls, table, workload: Workload | None) -> "DomainSnapshot":
        ranges = [
            (float(table.data[:, c].min()), float(table.data[:, c].max()))
            for c in range(table.num_columns)
        ]
        arity = (1, table.num_columns)
        widths = [1.0] * table.num_columns
        if workload is not None and len(workload):
            arities = [q.num_predicates for q in workload.queries]
            arity = (int(min(arities)), int(max(arities)))
            seen = [0.0] * table.num_columns
            for query in workload.queries:
                for p in query.predicates:
                    lo_t, hi_t = ranges[p.column]
                    span = max(hi_t - lo_t, 1e-12)
                    lo = lo_t if p.lo is None else p.lo
                    hi = hi_t if p.hi is None else p.hi
                    seen[p.column] = max(seen[p.column], (hi - lo) / span)
            # A column never predicated in training keeps the permissive
            # default: there is no width evidence to judge against.
            widths = [w if w > 0.0 else 1.0 for w in seen]
        return cls(column_ranges=ranges, arity_range=arity, max_norm_width=widths)


class OodDetector:
    """Score queries against a :class:`DomainSnapshot`."""

    def __init__(
        self,
        snapshot: DomainSnapshot,
        threshold: float = DEFAULT_OOD_THRESHOLD,
    ) -> None:
        if threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        self.snapshot = snapshot
        self.threshold = threshold
        self._lows = np.array([r[0] for r in snapshot.column_ranges])
        self._highs = np.array([r[1] for r in snapshot.column_ranges])
        self._spans = np.maximum(self._highs - self._lows, 1e-12)
        # Columns past the snapshot's width list judge against 1.0, as
        # in score().
        known = snapshot.max_norm_width[: len(self._lows)]
        self._trained_widths = np.ones(len(self._lows))
        self._trained_widths[: len(known)] = known

    # ------------------------------------------------------------------
    def score(self, query: Query) -> OodVerdict:
        """Distance of ``query`` from the training distribution."""
        total = 0.0
        reasons: list[str] = []
        lo_a, hi_a = self.snapshot.arity_range
        d = query.num_predicates
        if d > hi_a or d < lo_a:
            overshoot = (d - hi_a) if d > hi_a else (lo_a - d)
            total += 0.25 * overshoot
            reasons.append(f"arity {d} outside trained [{lo_a}, {hi_a}]")
        for p in query.predicates:
            if p.is_empty:
                continue
            t_lo, t_hi = self._lows[p.column], self._highs[p.column]
            span = self._spans[p.column]
            lo = t_lo if p.lo is None else p.lo
            hi = t_hi if p.hi is None else p.hi
            # How far the predicate box sticks out of the trained range,
            # normalized by that range: 0 when fully inside.
            overhang = max(0.0, t_lo - lo) + max(0.0, hi - t_hi)
            if overhang > 0.0:
                amount = overhang / span
                total += amount
                reasons.append(f"col {p.column} range overshoot {amount:.2f}")
            width = (hi - lo) / span
            trained_w = (
                self.snapshot.max_norm_width[p.column]
                if p.column < len(self.snapshot.max_norm_width)
                else 1.0
            )
            if width > trained_w:
                total += width - trained_w
                reasons.append(
                    f"col {p.column} width {width:.2f} > trained {trained_w:.2f}"
                )
        return OodVerdict(score=total, reasons=tuple(reasons))

    def scores(self, queries: Sequence[Query]) -> np.ndarray:
        """``score(q).score`` for every query, without the reasons.

        The per-predicate terms are computed for the whole batch at
        once, laid out per query in :meth:`score`'s order (arity term,
        then each predicate's range and width terms, 0.0 where a term
        does not apply) and summed left to right by ``cumsum``, so each
        query gets the scalar loop's bits.
        """
        preds = PredicateArrays.of(queries)
        arity = preds.arity
        lo_a, hi_a = self.snapshot.arity_range
        overshoot = np.where(
            arity > hi_a, arity - hi_a, np.where(arity < lo_a, lo_a - arity, 0)
        )
        cols = preds.column
        t_lo, t_hi, span = self._lows[cols], self._highs[cols], self._spans[cols]
        lo = np.where(preds.lo_open, t_lo, preds.lo)
        hi = np.where(preds.hi_open, t_hi, preds.hi)
        live = ~preds.is_empty
        with np.errstate(invalid="ignore", over="ignore"):
            # np.where(x > 0, x, 0) is Python's max(0.0, x), NaN included.
            below, above = t_lo - lo, hi - t_hi
            overhang = np.where(below > 0.0, below, 0.0) + np.where(
                above > 0.0, above, 0.0
            )
            width = (hi - lo) / span
            trained = self._trained_widths[cols]
            terms = np.zeros((len(arity), 1 + 2 * int(arity.max(initial=0))))
            terms[:, 0] = 0.25 * overshoot
            pos = np.arange(len(cols)) - (np.cumsum(arity) - arity)[preds.query]
            terms[preds.query, 1 + 2 * pos] = np.where(
                live & (overhang > 0.0), overhang / span, 0.0
            )
            terms[preds.query, 2 + 2 * pos] = np.where(
                live & (width > trained), width - trained, 0.0
            )
        return np.cumsum(terms, axis=1)[:, -1]

    def is_ood(self, query: Query) -> bool:
        return self.score(query).score > self.threshold
