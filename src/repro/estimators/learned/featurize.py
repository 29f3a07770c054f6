"""Query featurization for the regression (query-driven) estimators.

* LW-XGB/NN [Dutt et al. 2019] consume *range features* (the normalised
  bounds of every column) plus *CE features* — cheap heuristic estimates
  derivable from DBMS statistics: AVI (attribute-value independence),
  MinSel (minimum single-predicate selectivity) and EBO (exponential
  backoff).
* MSCN [Kipf et al. 2019] consumes a set of per-predicate vectors
  (column one-hot, operator one-hot, normalised literal) plus a bitmap of
  sample tuples satisfying the query.
"""

from __future__ import annotations

import numpy as np

from ...core.query import PredicateArrays, Query
from ...core.table import Table
from ..traditional.dbms import PostgresEstimator

#: EBO dampening exponents (most selective four predicates).
_EBO_POWERS = np.array([1.0, 0.5, 0.25, 0.125])

#: Floor applied to selectivities before log-transforming CE features.
_SEL_FLOOR = 1e-9

#: Predicate-by-sample-row comparisons per pass of
#: :meth:`MscnFeaturizer.bitmaps` (2 MB of gathered float64 values).
_BITMAP_CHUNK = 1 << 18


class RangeFeaturizer:
    """Normalised per-column bounds: 2 features per column in [0, 1]."""

    def __init__(self, table: Table) -> None:
        self.mins = np.array([c.domain_min for c in table.columns])
        self.spans = np.array([max(c.domain_size, 1.0) for c in table.columns])
        self.num_columns = table.num_columns

    def features(self, query: Query) -> np.ndarray:
        out = np.empty(2 * self.num_columns)
        out[0::2] = 0.0
        out[1::2] = 1.0
        for pred in query.predicates:
            d = pred.column
            if pred.lo is not None:
                out[2 * d] = (pred.lo - self.mins[d]) / self.spans[d]
            if pred.hi is not None:
                out[2 * d + 1] = (pred.hi - self.mins[d]) / self.spans[d]
        return out

    def features_many(self, queries: list[Query]) -> np.ndarray:
        out = np.empty((len(queries), 2 * self.num_columns))
        out[:, 0::2] = 0.0
        out[:, 1::2] = 1.0
        qi_lo: list[int] = []
        col_lo: list[int] = []
        val_lo: list[float] = []
        qi_hi: list[int] = []
        col_hi: list[int] = []
        val_hi: list[float] = []
        for qi, query in enumerate(queries):
            for pred in query.predicates:
                if pred.lo is not None:
                    qi_lo.append(qi)
                    col_lo.append(pred.column)
                    val_lo.append(pred.lo)
                if pred.hi is not None:
                    qi_hi.append(qi)
                    col_hi.append(pred.column)
                    val_hi.append(pred.hi)
        if qi_lo:
            cols = np.asarray(col_lo)
            out[np.asarray(qi_lo), 2 * cols] = (
                np.asarray(val_lo) - self.mins[cols]
            ) / self.spans[cols]
        if qi_hi:
            cols = np.asarray(col_hi)
            out[np.asarray(qi_hi), 2 * cols + 1] = (
                np.asarray(val_hi) - self.mins[cols]
            ) / self.spans[cols]
        return out


class CeFeaturizer:
    """Heuristic-estimator features (AVI, MinSel, EBO), log-transformed.

    Per-predicate selectivities come from a Postgres-style statistics
    object, matching the paper's setup ("use Postgres's estimation result
    on single column to compute the CE features").
    """

    def __init__(self, table: Table) -> None:
        self._base = PostgresEstimator()
        self._base.fit(table)

    def features(self, query: Query) -> np.ndarray:
        sels = np.maximum(
            self._base.per_predicate_selectivities(query), _SEL_FLOOR
        )
        avi = float(np.prod(sels))
        min_sel = float(np.min(sels))
        ordered = np.sort(sels)
        ebo = float(
            np.prod([s ** (0.5**i) for i, s in enumerate(ordered[:4])])
        )
        return np.log(np.maximum([avi, min_sel, ebo], _SEL_FLOOR))

    def features_many(self, queries: list[Query]) -> np.ndarray:
        """Vectorized AVI/MinSel/EBO over the batch.

        The per-predicate selectivity matrix is padded with 1.0, which is
        exact for every downstream reduction: products absorb trailing
        1.0s, minima are unaffected (real selectivities are capped at
        1.0), and EBO's extra ``1.0 ** w`` factors are identity.
        """
        sels, _ = self._base.per_predicate_selectivities_many(queries)
        sels = np.maximum(sels, _SEL_FLOOR)
        avi = np.prod(sels, axis=1)
        min_sel = np.min(sels, axis=1)
        ordered = np.sort(sels, axis=1)[:, :4]
        powers = _EBO_POWERS[: ordered.shape[1]]
        ebo = np.prod(ordered ** powers[None, :], axis=1)
        feats = np.stack([avi, min_sel, ebo], axis=1)
        return np.log(np.maximum(feats, _SEL_FLOOR))


class LwFeaturizer:
    """Full LW-XGB/NN feature vector: range features + CE features."""

    def __init__(self, table: Table, use_ce_features: bool = True) -> None:
        self.ranges = RangeFeaturizer(table)
        self.ce = CeFeaturizer(table) if use_ce_features else None

    @property
    def dimension(self) -> int:
        return 2 * self.ranges.num_columns + (3 if self.ce is not None else 0)

    def features(self, query: Query) -> np.ndarray:
        parts = [self.ranges.features(query)]
        if self.ce is not None:
            parts.append(self.ce.features(query))
        return np.concatenate(parts)

    def features_many(self, queries: list[Query]) -> np.ndarray:
        parts = [self.ranges.features_many(queries)]
        if self.ce is not None:
            parts.append(self.ce.features_many(queries))
        return np.concatenate(parts, axis=1)


class MscnFeaturizer:
    """Per-predicate set features and the materialized-sample bitmap."""

    #: operators: 0 = '>=', 1 = '<=', 2 = '='
    NUM_OPS = 3

    def __init__(
        self,
        table: Table,
        sample_size: int = 200,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.num_columns = table.num_columns
        self.mins = np.array([c.domain_min for c in table.columns])
        self.spans = np.array([max(c.domain_size, 1.0) for c in table.columns])
        take = min(sample_size, table.num_rows)
        idx = rng.choice(table.num_rows, size=take, replace=False)
        self.sample = table.data[idx]
        #: width of one predicate feature vector
        self.predicate_dim = self.num_columns + self.NUM_OPS + 1
        #: queries can constrain every column from both sides
        self.max_predicates = 2 * self.num_columns

    def refresh_sample(
        self, table: Table, rng: np.random.Generator
    ) -> None:
        """Re-draw the materialized sample (used on data updates)."""
        take = min(len(self.sample), table.num_rows)
        idx = rng.choice(table.num_rows, size=take, replace=False)
        self.sample = table.data[idx]

    # ------------------------------------------------------------------
    # The kernels below call ufuncs and ndarray methods, not their
    # Python-level wrappers (np.ones, np.repeat, ndarray.all, ...): a
    # one-query batch runs each call on a handful of elements, and a
    # wrapper's overhead is then a sizeable share of a served miss.
    def _atoms(
        self, preds: PredicateArrays
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query index, features) of every atom, query-major, plus the
        per-query atom counts.

        A predicate yields an equality atom (op 2), or a ``>=`` atom
        (op 0) for a bounded low side followed by a ``<=`` atom (op 1)
        for a bounded high side: a closed range splits in two.  Both
        candidate atoms of every predicate are featurized, and a mask
        keeps the real ones.
        """
        column = preds.column
        eq = preds.is_equality
        nc = self.num_columns
        feats = np.zeros((column.size, 2, self.predicate_dim))
        feats[np.arange(column.size), :, column] = 1.0
        feats[:, 0, nc] = ~eq
        feats[:, 0, nc + 2] = eq
        feats[:, 1, nc + 1] = 1.0
        mins, spans = self.mins[column], self.spans[column]
        feats[:, 0, -1] = (preds.lo - mins) / spans
        feats[:, 1, -1] = (preds.hi - mins) / spans
        keep = np.empty((column.size, 2), dtype=bool)
        np.logical_not(preds.lo_open, out=keep[:, 0])
        np.logical_not(preds.hi_open | eq, out=keep[:, 1])
        keep = keep.ravel()
        query = preds.query.repeat(2)[keep]
        counts = np.bincount(query, minlength=preds.arity.size)
        return query, feats.reshape(-1, self.predicate_dim)[keep], counts

    def atoms(self, preds: PredicateArrays) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated atom features plus per-query atom counts.

        The padding-free layout the batched inference path feeds to
        :meth:`~repro.estimators.learned.mscn._MscnNetwork.forward_atoms`:
        one (total_atoms, predicate_dim) matrix in query order, holding
        the valid rows of :meth:`predicate_tensor`.
        """
        _, feats, counts = self._atoms(preds)
        return feats, counts

    def predicate_tensor(
        self, preds: PredicateArrays
    ) -> tuple[np.ndarray, np.ndarray]:
        """(batch, max_preds, predicate_dim) features and a validity mask,
        the padded layout training back-propagates through."""
        batch = preds.arity.size
        feats = np.zeros((batch, self.max_predicates, self.predicate_dim))
        mask = np.zeros((batch, self.max_predicates))
        query, atom_feats, counts = self._atoms(preds)
        slot = _slots(counts)
        feats[query, slot] = atom_feats
        mask[query, slot] = 1.0
        return feats, mask

    def bitmaps(self, preds: PredicateArrays) -> np.ndarray:
        """(batch, sample_size) bitmap of sample tuples satisfying each query.

        Every predicate tests its column of the sample in one comparison,
        into the query's row of a (batch, max_arity, sample_size) stack
        padded with True; the queries' bitmaps are the stack's AND over
        that axis.  Predicates are compared a chunk at a time, which
        bounds the gathered sample columns of a training set to a few MB.
        """
        arity = preds.arity
        size = len(self.sample)
        sat = np.empty(
            (arity.size, np.maximum.reduce(arity, initial=0), size), dtype=bool
        )
        sat.fill(True)
        slot = _slots(arity)
        sample_t = self.sample.T
        step = max(1, _BITMAP_CHUNK // size)
        for start in range(0, preds.column.size, step):
            rows = slice(start, start + step)
            vals = sample_t[preds.column[rows]]
            hit = vals >= preds.lo[rows, None]
            hit &= vals <= preds.hi[rows, None]
            sat[preds.query[rows], slot[rows]] = hit
        return np.logical_and.reduce(sat, axis=1).astype(np.float64)


def _slots(counts: np.ndarray) -> np.ndarray:
    """Each element's position inside its segment, for segments of
    ``counts`` consecutive elements."""
    ends = np.add.accumulate(counts)
    total = ends[-1] if ends.size else 0
    return np.arange(total) - (ends - counts).repeat(counts)


def log_cardinality_labels(cardinalities: np.ndarray) -> np.ndarray:
    """Log-transformed labels (cards clamped to one tuple), used by all
    regression methods."""
    return np.log(np.maximum(np.asarray(cardinalities, dtype=np.float64), 1.0))
