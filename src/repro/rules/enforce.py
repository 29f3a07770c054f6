"""Rule enforcement wrappers (paper Section 7.2, "Make Learned
Estimators Trustworthy").

The paper proposes enforcing logical rules as constraints around
black-box models.  :class:`LogicalGuard` wraps any estimator and fixes
the cheaply-enforceable rules at inference time:

* **Fidelity-B** — a contradictory predicate answers 0 without invoking
  the model.
* **Fidelity-A** — a query covering every column's full domain answers
  the table size exactly.
* **Bounds** — estimates are clamped to ``[0, num_rows]``.
* **Stability** — per-query memoisation: repeated estimates of the same
  query return the first answer (fixes stochastic inference a la Naru).
* **Monotonicity (partial)** — the memo is consulted for *containing*
  queries seen earlier: an estimate is capped by the cached estimate of
  any query whose box contains this one, and floored by any contained
  one.

Monotonicity across unseen query pairs and consistency cannot be
enforced by a stateless wrapper (the paper's point that constraints
must move into model design), so violations of those remain possible.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import PredicateArrays, Query
from ..core.table import Table
from ..core.workload import Workload


def clamp_to_bounds(value: float, num_rows: int) -> float:
    """The Bounds rule: an estimate lives in ``[0, num_rows]``."""
    return max(0.0, min(float(value), float(num_rows)))


def is_sane(value: float, num_rows: int) -> bool:
    """True when ``value`` is finite and already within bounds."""
    return math.isfinite(value) and 0.0 <= value <= num_rows


def trivial_answer(query: Query, table: Table) -> float | None:
    """The rule-implied answer that needs no model, or ``None``.

    Fidelity-B: a contradictory predicate matches nothing.  Fidelity-A:
    a query covering every column's full domain matches the whole table.
    Both :class:`LogicalGuard` and the serving layer short-circuit on
    these before invoking any estimator.
    """
    if any(p.is_empty for p in query.predicates):
        return 0.0
    if covers_all_columns(query, table):
        return float(table.num_rows)
    return None


def trivial_answers(queries: Sequence[Query], table: Table) -> np.ndarray:
    """:func:`trivial_answer` for a batch: per query the rule-implied
    answer, or NaN where a model has to answer.  One vectorized pass
    over the batch's :class:`~repro.core.query.PredicateArrays`; a batch
    of one takes the scalar rule, which gives the same answer without
    the pass's fixed cost."""
    if len(queries) == 1:
        value = trivial_answer(queries[0], table)
        return np.array([math.nan if value is None else value])
    arrays = PredicateArrays.of(queries)
    out = np.full(len(arrays.arity), np.nan)
    domain_min, domain_max = table.domain_bounds
    cols = arrays.column
    # An open side reads -inf / inf, which covers any (finite) domain; a
    # NaN bound compares False and covers nothing, as in the scalar rule.
    covered = (arrays.lo <= domain_min[cols]) & (arrays.hi >= domain_max[cols])
    # Fidelity-A: every column predicated over its full domain.
    uncovered = np.bincount(arrays.query, weights=~covered, minlength=len(out))
    out[(arrays.arity >= table.num_columns) & (uncovered == 0)] = float(table.num_rows)
    # Fidelity-B: any contradictory predicate (wins over Fidelity-A).
    empty = np.bincount(arrays.query, weights=arrays.is_empty, minlength=len(out))
    out[empty > 0] = 0.0
    return out


def covers_all_columns(query: Query, table: Table) -> bool:
    """True when every column's full domain is covered (Fidelity-A)."""
    if query.num_predicates < table.num_columns:
        return False
    for pred in query.predicates:
        column = table.columns[pred.column]
        lo_open = pred.lo is None or pred.lo <= column.domain_min
        hi_open = pred.hi is None or pred.hi >= column.domain_max
        if not (lo_open and hi_open):
            return False
    return True


def _query_key(query: Query) -> tuple:
    return tuple((p.column, p.lo, p.hi) for p in query.predicates)


def _contains(outer: Query, inner: Query) -> bool:
    """True when ``outer``'s box contains ``inner``'s box.

    Every predicate of the outer query must exist (same column) in the
    inner query and contain its interval; columns unconstrained in the
    outer query are unbounded and contain anything.
    """
    for pred in outer.predicates:
        inner_pred = inner.predicate_on(pred.column)
        if inner_pred is None or not pred.contains(inner_pred):
            return False
    return True


class LogicalGuard(CardinalityEstimator):
    """Wraps an estimator and enforces the cheap logical rules."""

    requires_workload = False  # set from the inner estimator in __init__

    def __init__(self, inner: CardinalityEstimator, memo_size: int = 4096) -> None:
        super().__init__()
        if memo_size < 0:
            raise ValueError("memo_size must be non-negative")
        self.inner = inner
        self.name = f"guarded-{inner.name}"
        self.requires_workload = inner.requires_workload
        self.memo_size = memo_size
        self._memo: OrderedDict[tuple, tuple[Query, float]] = OrderedDict()

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        self._memo.clear()
        self.inner.fit(table, workload)

    def _update(self, table, appended, workload) -> None:
        self._memo.clear()
        self.inner.update(table, appended, workload)

    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        # Fidelity-B / Fidelity-A: rule-implied answers skip the model.
        trivial = trivial_answer(query, self.table)
        if trivial is not None:
            return trivial
        # Stability: repeat queries return the memoised answer.
        key = _query_key(query)
        if key in self._memo:
            self._memo.move_to_end(key)
            return self._memo[key][1]

        estimate = clamp_to_bounds(self.inner.estimate(query), self.table.num_rows)
        estimate = self._monotone_clamp(query, estimate)
        self._remember(key, query, estimate)
        return estimate

    def _monotone_clamp(self, query: Query, estimate: float) -> float:
        """Cap by cached containing queries, floor by contained ones."""
        for cached_query, cached_estimate in self._memo.values():
            if _contains(cached_query, query):
                estimate = min(estimate, cached_estimate)
            elif _contains(query, cached_query):
                estimate = max(estimate, cached_estimate)
        return estimate

    def _remember(self, key: tuple, query: Query, estimate: float) -> None:
        if self.memo_size == 0:
            return
        self._memo[key] = (query, estimate)
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    def model_size_bytes(self) -> int:
        return self.inner.model_size_bytes()
