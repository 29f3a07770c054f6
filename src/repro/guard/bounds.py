"""Provable cardinality bounds from per-column sketches.

The paper's Section 6 failure mode is a learned model that answers with
confidence and is off by five orders of magnitude.  A *provable* upper
bound turns that unbounded failure into a bounded one: for a conjunctive
query ``p1 AND p2 AND ... AND pd``, the number of matching rows can
never exceed the number of rows matching any *single* predicate, so

    |rows matching all preds|  <=  min_i  count(p_i)

holds unconditionally — no attribute-value-independence assumption, no
uniformity assumption, nothing learned ("Is it Bigger than a Breadbox?"
calls this the practical safety net).  :class:`BoundSketch` keeps one
conservative per-column structure so ``count(p_i)`` is cheap and *never*
an undercount:

* **exact mode** (low-cardinality columns): the sorted distinct values
  with a prefix-sum of their multiplicities; a range count is two binary
  searches and is exact.
* **bucket mode** (high-cardinality columns): equi-depth bucket edges
  with exact per-bucket row counts; a range count sums every bucket the
  range *touches* — deliberately counting partially-overlapped buckets
  in full, which keeps the bound sound where an interpolated histogram
  (e.g. :class:`~repro.estimators.traditional.histograms
  .EquiDepthHistogram`) would not.

The lower bound is the trivial 0 (a sound nonzero lower bound needs
join/sample evidence; the clamp only ever needs it to reject negative
garbage).  :meth:`BoundSketch.update` folds appended rows in without a
rebuild, preserving soundness: exact-mode multiplicities are merged,
bucket-mode edges are widened to cover new extremes and each appended
row increments exactly the one bucket that contains it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.query import Predicate, PredicateArrays, Query

#: distinct-value ceiling under which a column keeps exact counts
DEFAULT_MAX_EXACT = 4096

#: equi-depth buckets for high-cardinality columns
DEFAULT_NUM_BUCKETS = 64


class ColumnBound:
    """Conservative ``count(lo, hi)`` for one column (see module doc)."""

    def __init__(
        self,
        values: np.ndarray,
        max_exact: int = DEFAULT_MAX_EXACT,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        values = np.sort(np.asarray(values, dtype=np.float64))
        if values.size == 0:
            raise ValueError("cannot bound a column with no values")
        uniq, counts = np.unique(values, return_counts=True)
        self.total = int(values.size)
        if len(uniq) <= max_exact:
            self.exact = True
            self.values = uniq
            self.counts = counts.astype(np.int64)
            self._prefix = np.concatenate(([0], np.cumsum(self.counts)))
        else:
            self.exact = False
            num_buckets = max(1, min(num_buckets, values.size))
            positions = np.linspace(0, values.size - 1, num_buckets + 1)
            edges = values[positions.astype(np.int64)]
            # Duplicate quantile edges (heavy hitters) would make empty
            # zero-width buckets; dedupe keeps the counts exact.
            self.edges = np.unique(edges)
            if len(self.edges) < 2:
                self.edges = np.array([self.edges[0], self.edges[0]])
            # Exact rows per bucket [edges[b], edges[b+1]) — last bucket
            # closed — via one vectorized search over the sorted values.
            cuts = np.searchsorted(values, self.edges[1:-1], side="left")
            splits = np.concatenate(([0], cuts, [values.size]))
            self.bucket_counts = np.diff(splits).astype(np.int64)

    # ------------------------------------------------------------------
    def count(self, lo: float | None, hi: float | None) -> int:
        """Rows with value in ``[lo, hi]`` — never an undercount."""
        lo_v = -np.inf if lo is None else lo
        hi_v = np.inf if hi is None else hi
        if hi_v < lo_v:
            return 0
        if self.exact:
            # The ndarray method skips np.searchsorted's Python wrapper,
            # a measurable share of a B=1 guard clamp.
            a = int(self.values.searchsorted(lo_v, side="left"))
            b = int(self.values.searchsorted(hi_v, side="right"))
            # A NaN bound sorts past the end, so b < a is possible; NaN
            # matches no rows and 0 is still never an undercount.
            return max(0, int(self._prefix[b] - self._prefix[a]))
        if hi_v < self.edges[0] or lo_v > self.edges[-1]:
            return 0
        # Every bucket the range touches contributes its full count:
        # partial overlap is rounded *up* to keep the bound sound.
        first = max(0, int(self.edges.searchsorted(lo_v, side="right")) - 1)
        # side="right" so a range ending exactly on an interior edge
        # still counts the bucket that holds rows equal to that edge.
        last = min(
            len(self.bucket_counts) - 1,
            max(0, int(self.edges.searchsorted(hi_v, side="right")) - 1),
        )
        return int(self.bucket_counts[first : last + 1].sum())

    def count_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`count` for paired bound arrays (``-inf``/``inf`` for an
        open side): one vectorized search per bound array."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if self.exact:
            a = np.searchsorted(self.values, lo, side="left")
            b = np.searchsorted(self.values, hi, side="right")
            counts = self._prefix[b] - self._prefix[a]
        else:
            nb = len(self.bucket_counts)
            first = np.maximum(0, np.searchsorted(self.edges, lo, side="right") - 1)
            last = np.minimum(
                nb - 1,
                np.maximum(0, np.searchsorted(self.edges, hi, side="right") - 1),
            )
            prefix = np.concatenate(([0], np.cumsum(self.bucket_counts)))
            counts = prefix[last + 1] - prefix[first]
            counts[(hi < self.edges[0]) | (lo > self.edges[-1])] = 0
        counts[hi < lo] = 0
        return np.maximum(counts, 0)

    def add(self, values: np.ndarray) -> None:
        """Fold appended rows in; the bound stays sound."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.total += int(values.size)
        if self.exact:
            uniq, counts = np.unique(values, return_counts=True)
            merged_values = np.union1d(self.values, uniq)
            merged_counts = np.zeros(len(merged_values), dtype=np.int64)
            merged_counts[np.searchsorted(merged_values, self.values)] += self.counts
            merged_counts[np.searchsorted(merged_values, uniq)] += counts
            self.values = merged_values
            self.counts = merged_counts
            self._prefix = np.concatenate(([0], np.cumsum(self.counts)))
            return
        # Widen the outer edges to cover new extremes, then drop each
        # appended row into exactly one bucket.
        self.edges[0] = min(self.edges[0], float(values.min()))
        self.edges[-1] = max(self.edges[-1], float(values.max()))
        idx = np.clip(
            np.searchsorted(self.edges, values, side="right") - 1,
            0,
            len(self.bucket_counts) - 1,
        )
        np.add.at(self.bucket_counts, idx, 1)

    def nbytes(self) -> int:
        if self.exact:
            return int(self.values.nbytes + self.counts.nbytes + self._prefix.nbytes)
        return int(self.edges.nbytes + self.bucket_counts.nbytes)


class BoundSketch:
    """Provable ``[lower, upper]`` cardinality bounds for one table.

    Built at fit time from the training table; ``upper_bound`` is the
    AVI-free min over per-predicate conservative counts, ``lower_bound``
    is the trivial 0.  Survives :meth:`update` without a rebuild.
    """

    def __init__(
        self,
        table,
        *,
        max_exact: int = DEFAULT_MAX_EXACT,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        self._num_rows = int(table.num_rows)
        self._columns = [
            ColumnBound(table.data[:, c], max_exact, num_buckets)
            for c in range(table.num_columns)
        ]

    @property
    def num_rows(self) -> int:
        return self._num_rows

    # ------------------------------------------------------------------
    def predicate_bound(self, predicate: Predicate) -> int:
        """Rows that could match ``predicate`` alone (never undercounts)."""
        if predicate.is_empty:
            return 0
        return self._columns[predicate.column].count(predicate.lo, predicate.hi)

    def upper_bound(self, query: Query) -> float:
        """Provable ceiling on the query's true cardinality."""
        if not query.predicates:
            return float(self._num_rows)
        bound = min(self.predicate_bound(p) for p in query.predicates)
        return float(min(bound, self._num_rows))

    def upper_bounds(self, queries: Sequence[Query]) -> np.ndarray:
        """:meth:`upper_bound` for a batch: one :meth:`ColumnBound
        .count_many` per column, then the min over each query's
        predicates."""
        preds = PredicateArrays.of(queries)
        counts = np.empty(len(preds.column), dtype=np.int64)
        for column in np.unique(preds.column).tolist():
            on = preds.column == column
            counts[on] = self._columns[column].count_many(preds.lo[on], preds.hi[on])
        bounds = np.full(len(queries), self._num_rows, dtype=np.int64)
        np.minimum.at(bounds, preds.query, counts)
        return bounds.astype(np.float64)

    def lower_bound(self, query: Query) -> float:
        """Trivial floor (0; contradictions are caught by the shortcut)."""
        return 0.0

    def lower_bounds(self, queries: Sequence[Query]) -> np.ndarray:
        """:meth:`lower_bound` for a batch."""
        return np.zeros(len(queries))

    def bounds(self, query: Query) -> tuple[float, float]:
        return self.lower_bound(query), self.upper_bound(query)

    # ------------------------------------------------------------------
    def update(self, table, appended: np.ndarray | None) -> None:
        """Fold an append-only data update into the sketch.

        ``appended`` is the row block :meth:`Table.append_rows` added;
        when it is ``None`` (unknown delta) the sketch is rebuilt from
        the table, which is always sound.
        """
        if appended is None or len(self._columns) != table.num_columns:
            self.__init__(table)  # full rebuild: sound, O(n log n)
            return
        appended = np.asarray(appended, dtype=np.float64)
        for c, column in enumerate(self._columns):
            column.add(appended[:, c])
        self._num_rows = int(table.num_rows)

    def nbytes(self) -> int:
        """Sketch size in bytes (it should stay a *sketch*)."""
        return sum(c.nbytes() for c in self._columns)
