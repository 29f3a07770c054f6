"""QuickSel [Park et al. 2020]: selectivity learning with uniform mixtures.

QuickSel models the data distribution as a mixture of uniform
distributions whose support boxes are placed at observed (training)
query predicates, and fits the mixture weights so that the model's
answers match the observed selectivities.  We solve the weight fit as a
non-negative least-squares problem with a sum-to-one penalty, which is
the quadratic program of the original paper in penalty form.
"""

from __future__ import annotations

import numpy as np

from ...core.estimator import CardinalityEstimator
from ...core.query import Query
from ...core.table import Table
from ...core.workload import Workload


class _Box:
    """An axis-aligned box in the normalised [0, 1]^n domain."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows: np.ndarray, highs: np.ndarray) -> None:
        self.lows = lows
        self.highs = highs

    def volume(self) -> float:
        return float(np.prod(np.maximum(self.highs - self.lows, 0.0)))

    def overlap_volume(self, other: "_Box") -> float:
        lo = np.maximum(self.lows, other.lows)
        hi = np.minimum(self.highs, other.highs)
        return float(np.prod(np.maximum(hi - lo, 0.0)))


class QuickSelEstimator(CardinalityEstimator):
    """Query-driven uniform mixture model."""

    name = "quicksel"
    requires_workload = True

    def __init__(self, num_kernels: int = 300, seed: int = 0) -> None:
        super().__init__()
        if num_kernels < 1:
            raise ValueError("need at least one kernel")
        self.num_kernels = num_kernels
        self.seed = seed
        self._kernels: list[_Box] = []
        self._weights: np.ndarray | None = None
        self._mins: np.ndarray | None = None
        self._spans: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _query_box(self, query: Query) -> _Box:
        """Normalised box of a query; equality predicates get width ~one value."""
        assert self._mins is not None and self._spans is not None
        n = len(self._mins)
        lows = np.zeros(n)
        highs = np.ones(n)
        for pred in query.predicates:
            d = pred.column
            span = self._spans[d]
            lo = self._mins[d] if pred.lo is None else pred.lo
            hi = self._mins[d] + span if pred.hi is None else pred.hi
            if pred.is_equality:
                lo, hi = lo - 0.5, hi + 0.5
            lows[d] = np.clip((lo - self._mins[d]) / span, 0.0, 1.0)
            highs[d] = np.clip((hi - self._mins[d]) / span, 0.0, 1.0)
        return _Box(lows, highs)

    def _fit(self, table: Table, workload: Workload | None) -> None:
        assert workload is not None
        self._mins = np.array([c.domain_min for c in table.columns])
        spans = np.array([max(c.domain_size, 1.0) for c in table.columns])
        self._spans = spans

        boxes = [self._query_box(q) for q in workload.queries]
        sels = workload.cardinalities / table.num_rows

        rng = np.random.default_rng(self.seed)
        # Kernel 0 is the uniform distribution over the whole domain; the
        # rest sit on a subset of observed query boxes.
        candidates = [b for b in boxes if b.volume() > 0.0]
        take = min(self.num_kernels - 1, len(candidates))
        chosen = (
            list(rng.choice(len(candidates), size=take, replace=False))
            if take
            else []
        )
        full = _Box(np.zeros(table.num_columns), np.ones(table.num_columns))
        self._kernels = [full] + [candidates[i] for i in chosen]

        k = len(self._kernels)
        a = np.empty((len(boxes), k))
        vols = np.array([max(kern.volume(), 1e-12) for kern in self._kernels])
        for i, box in enumerate(boxes):
            a[i] = [box.overlap_volume(kern) for kern in self._kernels] / vols
        # Penalty row enforcing that mixture weights sum to one.
        penalty = 10.0
        a_aug = np.vstack([a, penalty * np.ones((1, k))])
        b_aug = np.concatenate([sels, [penalty]])
        # Imported here, not with the package (see kde._batch_box_probability).
        from scipy import optimize

        weights, _ = optimize.nnls(a_aug, b_aug, maxiter=10 * k)
        total = weights.sum()
        self._weights = weights / total if total > 0 else np.full(k, 1.0 / k)

    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        assert self._weights is not None
        box = self._query_box(query)
        vols = np.array([max(kern.volume(), 1e-12) for kern in self._kernels])
        overlaps = np.array([box.overlap_volume(kern) for kern in self._kernels])
        sel = float(self._weights @ (overlaps / vols))
        return sel * self.table.num_rows

    def model_size_bytes(self) -> int:
        if self._weights is None:
            return 0
        per_kernel = 8 * (2 * len(self._mins) + 1)  # type: ignore[arg-type]
        return len(self._kernels) * per_kernel
