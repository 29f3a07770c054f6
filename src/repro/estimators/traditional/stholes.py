"""STHoles [Bruno et al. 2001]: a workload-aware multi-dim histogram.

The paper's QuickSel baseline is motivated by beating query-driven
histograms "including STHoles and ISOMER"; this module provides the
STHoles side of that comparison so the claim can be reproduced.

STHoles maintains a tree of nested buckets.  Each training query
*drills holes*: for every bucket the query box intersects, the
intersection becomes a candidate child bucket whose tuple count is
inferred from the query's true cardinality under a uniformity
assumption, and the parent's count shrinks accordingly.  When the
bucket budget is exceeded, the lowest-frequency leaf is merged back
into its parent.  Estimation sums, over all buckets, the bucket's
*exclusive* frequency times the fractional overlap of the query box
with the bucket's exclusive region.
"""

from __future__ import annotations

import numpy as np

from ...core.estimator import CardinalityEstimator
from ...core.query import Query
from ...core.table import Table
from ...core.workload import Workload


class _Bucket:
    """A box with child holes; ``frequency`` counts tuples in the box
    that are in none of the children."""

    __slots__ = ("lows", "highs", "frequency", "children", "parent")

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        frequency: float,
        parent: "_Bucket | None" = None,
    ) -> None:
        self.lows = lows
        self.highs = highs
        self.frequency = max(0.0, frequency)
        self.children: list[_Bucket] = []
        self.parent = parent

    # -- geometry ------------------------------------------------------
    def volume(self) -> float:
        return float(np.prod(np.maximum(self.highs - self.lows, 1e-12)))

    def intersect(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        lo = np.maximum(self.lows, lows)
        hi = np.minimum(self.highs, highs)
        if np.any(hi <= lo):
            return None
        return lo, hi

    def exclusive_volume(self) -> float:
        vol = self.volume() - sum(c.volume() for c in self.children)
        return max(vol, 1e-12)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class StHolesEstimator(CardinalityEstimator):
    """STHoles query-driven histogram (simplified merge policy)."""

    name = "stholes"
    requires_workload = True

    def __init__(self, max_buckets: int = 400) -> None:
        super().__init__()
        if max_buckets < 1:
            raise ValueError("need at least one bucket")
        self.max_buckets = max_buckets
        self._root: _Bucket | None = None
        self._mins: np.ndarray | None = None
        self._maxs: np.ndarray | None = None
        self._num_buckets = 1

    # ------------------------------------------------------------------
    def _query_box(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        assert self._mins is not None and self._maxs is not None
        lows = self._mins.copy()
        highs = self._maxs.copy()
        for pred in query.predicates:
            d = pred.column
            # Bounds at or beyond the true domain keep the half-tuple
            # margin, so a full-domain predicate covers the whole root.
            if pred.lo is not None and pred.lo > self._mins[d] + 0.5:
                lows[d] = max(lows[d], pred.lo)
            if pred.hi is not None and pred.hi < self._maxs[d] - 0.5:
                highs[d] = min(highs[d], pred.hi)
            if pred.is_equality:
                lows[d], highs[d] = pred.lo - 0.5, pred.hi + 0.5  # type: ignore[operator]
            if pred.is_empty:
                lows[d], highs[d] = self._maxs[d], self._mins[d]
        span = self._maxs - self._mins
        return (lows - self._mins) / span, (highs - self._mins) / span

    def _fit(self, table: Table, workload: Workload | None) -> None:
        assert workload is not None
        self._mins = np.array([c.domain_min for c in table.columns]) - 0.5
        self._maxs = np.array([c.domain_max for c in table.columns]) + 0.5
        # Buckets live in normalised [0, 1]^n coordinates for numeric
        # stability across wildly different column scales.
        self._root = _Bucket(
            np.zeros(table.num_columns),
            np.ones(table.num_columns),
            float(table.num_rows),
        )
        self._num_buckets = 1
        for query, actual in zip(workload.queries, workload.cardinalities):
            self._refine(query, float(actual))

    # ------------------------------------------------------------------
    # Refinement: drill holes, then merge back to budget
    # ------------------------------------------------------------------
    def _refine(self, query: Query, actual: float) -> None:
        assert self._root is not None
        lows, highs = self._query_box(query)
        q_volume = float(np.prod(np.maximum(highs - lows, 1e-12)))
        for bucket in list(self._root.walk()):
            clipped = bucket.intersect(lows, highs)
            if clipped is None:
                continue
            c_lo, c_hi = clipped
            if np.allclose(c_lo, bucket.lows) and np.allclose(c_hi, bucket.highs):
                # The hole would be the whole bucket; drilling it would
                # strand the bucket's leftover mass on a zero-volume
                # region, so leave the bucket as is.
                continue
            # Real STHoles shrinks candidates until they are disjoint
            # from existing holes; we skip overlapping candidates, which
            # keeps children disjoint (exclusive volumes stay valid).
            if any(child.intersect(c_lo, c_hi) is not None
                   for child in bucket.children):
                continue
            hole_volume = float(np.prod(np.maximum(c_hi - c_lo, 1e-12)))
            # Uniformity inside the query box: tuples in the hole.
            hole_count = actual * hole_volume / q_volume
            hole_count = min(hole_count, bucket.frequency)
            if hole_count <= 0.0:
                continue
            hole = _Bucket(c_lo, c_hi, hole_count, parent=bucket)
            bucket.children.append(hole)
            bucket.frequency -= hole_count
            self._num_buckets += 1
        self._shrink_to_budget()

    def _shrink_to_budget(self) -> None:
        assert self._root is not None
        while self._num_buckets > self.max_buckets:
            leaves = [
                b for b in self._root.walk()
                if not b.children and b.parent is not None
            ]
            if not leaves:
                return
            victim = min(leaves, key=lambda b: b.frequency)
            parent = victim.parent
            assert parent is not None
            parent.children.remove(victim)
            parent.frequency += victim.frequency
            self._num_buckets -= 1

    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        assert self._root is not None
        lows, highs = self._query_box(query)
        if np.any(highs <= lows):
            return 0.0
        total = 0.0
        for bucket in self._root.walk():
            clipped = bucket.intersect(lows, highs)
            if clipped is None:
                continue
            c_lo, c_hi = clipped
            overlap = float(np.prod(np.maximum(c_hi - c_lo, 1e-12)))
            # Subtract the parts of the overlap that fall into children
            # (they are accounted by the children themselves).
            for child in bucket.children:
                sub = child.intersect(c_lo, c_hi)
                if sub is not None:
                    overlap -= float(
                        np.prod(np.maximum(sub[1] - sub[0], 1e-12))
                    )
            if overlap <= 0.0:
                continue
            total += bucket.frequency * overlap / bucket.exclusive_volume()
        return total

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    def model_size_bytes(self) -> int:
        if self._mins is None:
            return 0
        return self._num_buckets * 8 * (2 * len(self._mins) + 1)
