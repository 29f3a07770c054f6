"""KDE-FB [Heimel et al. 2015]: feedback-tuned kernel density estimator.

A Gaussian product-kernel density over a uniform sample.  The probability
mass of a query box factorises per dimension into differences of normal
CDFs, so a batch of queries is evaluated with one vectorised ``erf``
expression.  "FB" = the bandwidths are tuned on a feedback workload of
labelled queries (the original optimises bandwidths by gradient descent
on observed errors; we use coordinate descent over per-dimension scale
factors, which matches its published behaviour at this scale).
"""

from __future__ import annotations

import numpy as np

from ...core.estimator import CardinalityEstimator
from ...core.query import Query
from ...core.table import Table
from ...core.workload import Workload

_SQRT2 = np.sqrt(2.0)


def _normal_cdf(z: np.ndarray, erf) -> np.ndarray:
    return 0.5 * (1.0 + erf(z / _SQRT2))


class KdeFeedbackEstimator(CardinalityEstimator):
    """Gaussian KDE over a sample with feedback-optimised bandwidths."""

    name = "kde-fb"
    requires_workload = True

    def __init__(
        self,
        sample_fraction: float = 0.015,
        max_sample: int = 2000,
        feedback_queries: int = 1000,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.sample_fraction = sample_fraction
        self.max_sample = max_sample
        self.feedback_queries = feedback_queries
        self.seed = seed
        self._points: np.ndarray | None = None
        self._bandwidths: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        assert workload is not None
        rng = np.random.default_rng(self.seed)
        count = min(
            self.max_sample, max(2, int(round(table.num_rows * self.sample_fraction)))
        )
        idx = rng.choice(table.num_rows, size=count, replace=False)
        self._points = table.data[idx]

        # Scott's rule as the starting bandwidth per dimension.
        n, d = self._points.shape
        sigma = self._points.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        self._bandwidths = sigma * n ** (-1.0 / (d + 4))

        self._tune_bandwidths(table, workload)

    def _tune_bandwidths(self, table: Table, workload: Workload) -> None:
        assert self._bandwidths is not None
        take = min(self.feedback_queries, len(workload))
        queries = workload.queries[:take]
        actual = np.maximum(workload.cardinalities[:take], 1.0)
        boxes = np.array([self._box(q) for q in queries])  # (Q, d, 2)

        def loss(bandwidths: np.ndarray) -> float:
            sels = self._batch_box_probability(boxes, bandwidths)
            est = np.maximum(sels * table.num_rows, 1.0)
            return float(np.mean(np.log(np.maximum(est / actual, actual / est)) ** 2))

        factors = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        # Pass 1: one global scale.  Pass 2: per-dimension refinement.
        base = self._bandwidths
        global_losses = [loss(base * f) for f in factors]
        best = base * factors[int(np.argmin(global_losses))]
        for dim in range(len(best)):
            trial_losses = []
            for f in factors:
                trial = best.copy()
                trial[dim] *= f
                trial_losses.append(loss(trial))
            best[dim] *= factors[int(np.argmin(trial_losses))]
        self._bandwidths = best

    # ------------------------------------------------------------------
    def _box(self, query: Query) -> np.ndarray:
        """(d, 2) array of [lo, hi] per dimension; +-inf for open sides."""
        d = self.table.num_columns
        box = np.empty((d, 2))
        box[:, 0] = -np.inf
        box[:, 1] = np.inf
        for pred in query.predicates:
            lo = -np.inf if pred.lo is None else pred.lo
            hi = np.inf if pred.hi is None else pred.hi
            if pred.is_equality:
                lo, hi = lo - 0.5, hi + 0.5
            box[pred.column] = (lo, hi)
        return box

    def _batch_box_probability(
        self, boxes: np.ndarray, bandwidths: np.ndarray
    ) -> np.ndarray:
        """P(box) for each of Q boxes; boxes shape (Q, d, 2)."""
        # scipy is imported on first use, not with the package: it adds
        # ~40 MB to every process that imports repro.
        from scipy.special import erf

        assert self._points is not None
        pts = self._points  # (S, d)
        h = np.maximum(bandwidths, 1e-9)
        # (Q, S, d) z-scores for both box faces.
        z_hi = (boxes[:, None, :, 1] - pts[None, :, :]) / h
        z_lo = (boxes[:, None, :, 0] - pts[None, :, :]) / h
        per_dim = _normal_cdf(z_hi, erf) - _normal_cdf(z_lo, erf)
        return np.prod(per_dim, axis=2).mean(axis=1)

    def _estimate(self, query: Query) -> float:
        assert self._bandwidths is not None
        boxes = self._box(query)[None]
        sel = float(self._batch_box_probability(boxes, self._bandwidths)[0])
        return sel * self.table.num_rows

    def model_size_bytes(self) -> int:
        return self._points.nbytes if self._points is not None else 0
