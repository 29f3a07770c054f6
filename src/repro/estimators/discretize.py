"""Column discretisation shared by the distribution-based estimators.

Naru and the Bayesian network operate over per-column categorical
distributions.  Columns whose distinct count fits the bin budget are
dictionary-encoded exactly (one bin per distinct value, as Naru does);
wider columns fall back to equi-depth bins, in which case a range
predicate covers its boundary bins fractionally under a uniform-spread
assumption.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.query import Predicate
from ..core.table import Table

#: Resolution of fractional bin coverage (see
#: :meth:`ColumnDiscretizer.predicate_weights_many`).
WEIGHT_GRID = 2.0**-20


class ColumnDiscretizer:
    """Discretisation of one column."""

    def __init__(self, values: np.ndarray, max_bins: int) -> None:
        distinct = np.unique(np.asarray(values, dtype=np.float64))
        if len(distinct) <= max_bins:
            self.exact = True
            self.values = distinct
            self.edges = None
            self.num_bins = len(distinct)
        else:
            self.exact = False
            qs = np.linspace(0.0, 1.0, max_bins + 1)
            edges = np.unique(np.quantile(values, qs))
            # Guard against duplicate quantiles collapsing edges.
            self.edges = edges
            self.values = None
            self.num_bins = len(edges) - 1
        if self.num_bins < 1:
            raise ValueError("column produced no bins")

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Map raw values to bin indices."""
        values = np.asarray(values, dtype=np.float64)
        if self.exact:
            assert self.values is not None
            idx = np.searchsorted(self.values, values)
            idx = np.clip(idx, 0, self.num_bins - 1)
            return idx
        assert self.edges is not None
        idx = np.searchsorted(self.edges[1:-1], values, side="right")
        return np.clip(idx, 0, self.num_bins - 1)

    def bin_value(self, bin_index: int) -> float:
        """A representative raw value for a bin (used when sampling)."""
        if self.exact:
            assert self.values is not None
            return float(self.values[bin_index])
        assert self.edges is not None
        return float((self.edges[bin_index] + self.edges[bin_index + 1]) / 2.0)

    def predicate_weights(self, predicate: Predicate) -> np.ndarray:
        """Per-bin coverage weights in [0, 1] for a range predicate.

        The one-row case of :meth:`predicate_weights_many`.
        """
        lo = -np.inf if predicate.lo is None else predicate.lo
        hi = np.inf if predicate.hi is None else predicate.hi
        return self.predicate_weights_many(
            np.array([lo], dtype=np.float64),
            np.array([hi], dtype=np.float64),
            [predicate.is_equality],
        )[0]

    def predicate_weights_many(
        self, lo: np.ndarray, hi: np.ndarray, equality: Sequence[bool]
    ) -> np.ndarray:
        """Stacked ``(len(lo), num_bins)`` coverage weights.

        Row ``j`` covers ``[lo[j], hi[j]]`` (``-inf``/``inf`` for an open
        side); ``equality[j]`` marks an equality predicate.  Exact
        columns get 0/1 indicator weights; binned columns get fractional
        weights on partially covered boundary bins, rounded to a
        multiple of :data:`WEIGHT_GRID`.  On that grid every
        ``counts @ weights`` over integer bin counts below ``2**33`` is
        exact in float64, so a matrix product over stacked rows and a
        per-row dot product give the same bits.
        """
        # An empty range (lo > hi) needs no special case: every value is
        # below lo or above hi, and every bin overlap is negative.
        if self.exact:
            assert self.values is not None
            values = self.values
            outside = (values < lo[:, None]) | (values > hi[:, None])
            return (~outside).astype(np.float64)
        assert self.edges is not None
        # np.unique edges are strictly increasing: every bin has width > 0.
        lows = self.edges[:-1]
        highs = self.edges[1:]
        widths = highs - lows
        with np.errstate(invalid="ignore"):
            overlap = np.minimum(hi[:, None], highs) - np.maximum(lo[:, None], lows)
        # fmax/fmin map a NaN bound's NaN coverage to 0.
        w = np.fmin(np.fmax(overlap / widths, 0.0), 1.0)
        rows = np.flatnonzero(equality)
        if rows.size:
            # An equality on a binned column covers one value of the bin.
            b = np.clip(
                np.searchsorted(self.edges[1:-1], lo[rows], side="right"),
                0,
                self.num_bins - 1,
            )
            w[rows] = 0.0
            w[rows, b] = np.minimum(1.0, 1.0 / np.maximum(widths[b], 1.0))
        w *= 1.0 / WEIGHT_GRID
        np.round(w, out=w)
        w *= WEIGHT_GRID
        return w


class Discretizer:
    """Discretisation of every column of a table."""

    def __init__(self, table: Table, max_bins: int = 256) -> None:
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.columns = [
            ColumnDiscretizer(table.data[:, i], max_bins)
            for i in range(table.num_columns)
        ]

    @property
    def cardinalities(self) -> list[int]:
        return [c.num_bins for c in self.columns]

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Bin indices for every cell, shape preserved."""
        data = np.asarray(data, dtype=np.float64)
        out = np.empty(data.shape, dtype=np.int64)
        for i, col in enumerate(self.columns):
            out[:, i] = col.transform(data[:, i])
        return out

    def predicate_weights(self, predicate: Predicate) -> np.ndarray:
        return self.columns[predicate.column].predicate_weights(predicate)
