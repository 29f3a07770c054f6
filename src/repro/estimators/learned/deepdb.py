"""DeepDB [Hilprecht et al. 2020]: Sum-Product Network estimator.

Structure learning recursively splits the table:

* **column split** — pairwise RDC scores below ``rdc_threshold`` mark
  column groups as independent; independent groups become children of a
  *product* node;
* **row split** — otherwise KMeans (k = 2) clusters the rows and a *sum*
  node combines the clusters with weights proportional to their sizes;
* **leaf** — a single-column histogram once the scope is one column or
  the slice is smaller than ``min_instance_slice``.

Inference computes the probability of the query box bottom-up (leaves
answer per-column coverage, products multiply, sums average), which is
why DeepDB satisfies every logical rule of paper Section 6.3.  Updates
insert a sample of the appended tuples by routing them down the network.

A batch is evaluated once over the whole network (:class:`_BatchPlan`):
each node computes a length-B array in the scalar recursion's operation
order, so ``estimate_many`` returns the scalar loop's bits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...cluster import kmeans, rdc_matrix
from ...core.estimator import CardinalityEstimator
from ...core.query import PredicateArrays, Query
from ...core.table import Table
from ...core.workload import Workload
from ..discretize import Discretizer


class _Node:
    """Base SPN node; ``scope`` is the set of column indices covered."""

    def __init__(self, scope: tuple[int, ...]) -> None:
        self.scope = scope

    def probability(self, weights: dict[int, np.ndarray]) -> float:
        raise NotImplementedError

    def insert(self, rows_binned: np.ndarray) -> None:
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError


class _Leaf(_Node):
    """Single-column histogram over the global discretised bins."""

    def __init__(self, column: int, bin_counts: np.ndarray) -> None:
        super().__init__((column,))
        self.column = column
        self.counts = bin_counts.astype(np.float64)
        self.total = float(self.counts.sum())

    def probability(self, weights: dict[int, np.ndarray]) -> float:
        w = weights.get(self.column)
        if w is None:
            return 1.0
        if self.total == 0.0:
            return 0.0
        return float(self.counts @ w) / self.total

    def insert(self, rows_binned: np.ndarray) -> None:
        add = np.bincount(rows_binned[:, self.column], minlength=len(self.counts))
        self.counts += add[: len(self.counts)]
        self.total = float(self.counts.sum())

    def likelihood(self, row_binned: np.ndarray) -> float:
        """Smoothed per-row likelihood (used to route inserted tuples)."""
        if self.total == 0.0:
            return 1e-6
        return float(
            (self.counts[row_binned[self.column]] + 0.1)
            / (self.total + 0.1 * len(self.counts))
        )

    def size_bytes(self) -> int:
        return self.counts.nbytes


class _Product(_Node):
    """Independent column groups: probabilities multiply."""

    def __init__(self, children: list[_Node]) -> None:
        scope = tuple(sorted(c for child in children for c in child.scope))
        super().__init__(scope)
        self.children = children

    def probability(self, weights: dict[int, np.ndarray]) -> float:
        result = 1.0
        for child in self.children:
            result *= child.probability(weights)
            if result == 0.0:
                return 0.0
        return result

    def insert(self, rows_binned: np.ndarray) -> None:
        for child in self.children:
            child.insert(rows_binned)

    def likelihood(self, row_binned: np.ndarray) -> float:
        result = 1.0
        for child in self.children:
            result *= child.likelihood(row_binned)  # type: ignore[attr-defined]
        return result

    def size_bytes(self) -> int:
        return sum(c.size_bytes() for c in self.children)


class _Sum(_Node):
    """Row clusters: probabilities average, weighted by cluster size."""

    def __init__(self, children: list[_Node], counts: list[float]) -> None:
        super().__init__(children[0].scope)
        self.children = children
        self.counts = [float(c) for c in counts]

    def probability(self, weights: dict[int, np.ndarray]) -> float:
        total = sum(self.counts)
        if total == 0.0:
            return 0.0
        return sum(
            cnt / total * child.probability(weights)
            for child, cnt in zip(self.children, self.counts)
        )

    def insert(self, rows_binned: np.ndarray) -> None:
        # Route each tuple to its most likely cluster, as DeepDB does.
        assignments = np.array(
            [
                int(
                    np.argmax(
                        [c.likelihood(row) for c in self.children]  # type: ignore[attr-defined]
                    )
                )
                for row in rows_binned
            ]
        )
        for k, child in enumerate(self.children):
            subset = rows_binned[assignments == k]
            if len(subset):
                self.counts[k] += len(subset)
                child.insert(subset)

    def likelihood(self, row_binned: np.ndarray) -> float:
        total = sum(self.counts)
        return sum(
            cnt / total * child.likelihood(row_binned)  # type: ignore[attr-defined]
            for child, cnt in zip(self.children, self.counts)
        )

    def size_bytes(self) -> int:
        return 8 * len(self.counts) + sum(c.size_bytes() for c in self.children)


class _BatchPlan:
    """The SPN flattened for per-batch evaluation (derived, never saved).

    Leaves of one column are stacked into a ``(leaves, bins)`` count
    matrix, so a batch costs one matrix product per column; internal
    nodes become post-order steps over length-B arrays.  The plan copies
    counts, so it is rebuilt whenever the network changes.
    """

    def __init__(self, root: _Node) -> None:
        leaves: dict[int, list[_Leaf]] = {}
        #: post-order steps: ("leaf", column, slot), ("product", children)
        #: or ("sum", children, weights, total); children index earlier steps
        self.steps: list[tuple] = []
        self._flatten(root, leaves)
        self.counts = {
            c: np.stack([leaf.counts for leaf in ls]) for c, ls in leaves.items()
        }
        self.totals = {
            c: np.array([leaf.total for leaf in ls]) for c, ls in leaves.items()
        }

    def _flatten(self, node: _Node, leaves: dict[int, list[_Leaf]]) -> int:
        if isinstance(node, _Leaf):
            slots = leaves.setdefault(node.column, [])
            slots.append(node)
            self.steps.append(("leaf", node.column, len(slots) - 1))
        elif isinstance(node, _Product):
            children = [self._flatten(c, leaves) for c in node.children]
            self.steps.append(("product", children))
        else:
            assert isinstance(node, _Sum)
            children = [self._flatten(c, leaves) for c in node.children]
            self.steps.append(("sum", children, list(node.counts), sum(node.counts)))
        return len(self.steps) - 1

    def probability(
        self, size: int, weights: dict[int, tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """Per-query probabilities; ``weights[c]`` is ``(rows, W_c)``:
        the queries that constrain column ``c`` and their stacked
        coverage weights.  A column a query leaves free stays 1.0."""
        columns: dict[int, np.ndarray] = {}
        for column, counts in self.counts.items():
            values = np.ones((len(counts), size))
            if column in weights:
                rows, w = weights[column]
                totals = self.totals[column]
                with np.errstate(divide="ignore", invalid="ignore"):
                    p = (w @ counts.T) / totals
                p[:, totals == 0.0] = 0.0
                values[:, rows] = p.T
            columns[column] = values
        out: list[np.ndarray] = []
        for step in self.steps:
            if step[0] == "leaf":
                out.append(columns[step[1]][step[2]])
            elif step[0] == "product":
                result = out[step[1][0]]
                for child in step[1][1:]:
                    result = result * out[child]
                out.append(result)
            else:
                _, children, counts, total = step
                if total == 0.0:
                    out.append(np.zeros(size))
                    continue
                result = counts[0] / total * out[children[0]]
                for child, cnt in zip(children[1:], counts[1:]):
                    result = result + cnt / total * out[child]
                out.append(result)
        return out[-1]


def _independent_groups(
    scores: np.ndarray, threshold: float
) -> list[list[int]]:
    """Connected components of the "dependent" graph (RDC >= threshold)."""
    n = scores.shape[0]
    unvisited = set(range(n))
    groups: list[list[int]] = []
    while unvisited:
        start = unvisited.pop()
        component = [start]
        frontier = [start]
        while frontier:
            node = frontier.pop()
            linked = [
                j for j in list(unvisited) if scores[node, j] >= threshold
            ]
            for j in linked:
                unvisited.remove(j)
                component.append(j)
                frontier.append(j)
        groups.append(sorted(component))
    return groups


class DeepDbEstimator(CardinalityEstimator):
    """Sum-Product Network over a single table (data-driven)."""

    name = "deepdb"

    def __init__(
        self,
        rdc_threshold: float = 0.3,
        min_instance_slice_fraction: float = 0.01,
        max_bins: int = 256,
        insert_sample_fraction: float = 0.01,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.rdc_threshold = rdc_threshold
        self.min_instance_slice_fraction = min_instance_slice_fraction
        self.max_bins = max_bins
        self.insert_sample_fraction = insert_sample_fraction
        self.seed = seed
        self._disc: Discretizer | None = None
        self._root: _Node | None = None
        self._plan: _BatchPlan | None = None

    # ------------------------------------------------------------------
    # Structure learning
    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        rng = np.random.default_rng(self.seed)
        self._disc = Discretizer(table, self.max_bins)
        binned = self._disc.transform(table.data)
        min_slice = max(32, int(table.num_rows * self.min_instance_slice_fraction))
        self._root = self._learn(
            binned, list(range(table.num_columns)), rng, min_slice, row_split_ok=True
        )
        self._plan = _BatchPlan(self._root)

    def _learn(
        self,
        binned: np.ndarray,
        scope: list[int],
        rng: np.random.Generator,
        min_slice: int,
        row_split_ok: bool,
    ) -> _Node:
        assert self._disc is not None
        if len(scope) == 1:
            return self._leaf(binned, scope[0])
        if len(binned) < min_slice:
            # Naive factorisation: assume independence on tiny slices.
            return _Product([self._leaf(binned, c) for c in scope])

        # Column split: find independent groups by pairwise RDC.
        scores = rdc_matrix(binned[:, scope].astype(np.float64), rng)
        groups = _independent_groups(scores, self.rdc_threshold)
        if len(groups) > 1:
            children = [
                self._learn(
                    binned,
                    [scope[i] for i in group],
                    rng,
                    min_slice,
                    row_split_ok=True,
                )
                for group in groups
            ]
            return _Product(children)

        if not row_split_ok:
            # A row split just happened and the columns are still
            # dependent: factorise to guarantee termination.
            return _Product([self._leaf(binned, c) for c in scope])

        # Row split: KMeans with k = 2 under a sum node.
        labels, _ = kmeans(binned[:, scope].astype(np.float64), 2, rng)
        children = []
        counts = []
        for k in (0, 1):
            subset = binned[labels == k]
            if len(subset) == 0:
                continue
            children.append(
                self._learn(subset, scope, rng, min_slice, row_split_ok=False)
            )
            counts.append(float(len(subset)))
        if len(children) == 1:
            return children[0]
        return _Sum(children, counts)

    def _leaf(self, binned: np.ndarray, column: int) -> _Leaf:
        assert self._disc is not None
        num_bins = self._disc.cardinalities[column]
        counts = np.bincount(binned[:, column], minlength=num_bins)
        return _Leaf(column, counts[:num_bins])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        assert self._disc is not None and self._root is not None
        weights = {
            p.column: self._disc.predicate_weights(p) for p in query.predicates
        }
        return self._root.probability(weights) * self.table.num_rows

    def _estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """One pass over the network for the whole batch (see module doc)."""
        assert self._disc is not None and self._plan is not None
        preds = PredicateArrays.of(queries)
        equality = preds.is_equality
        weights = {}
        for column in np.unique(preds.column).tolist():
            on = preds.column == column
            weights[column] = (
                preds.query[on],
                self._disc.columns[column].predicate_weights_many(
                    preds.lo[on], preds.hi[on], equality[on]
                ),
            )
        return self._plan.probability(len(queries), weights) * self.table.num_rows

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _update(
        self, table: Table, appended: np.ndarray, workload: Workload | None
    ) -> None:
        """Insert a small sample of the appended tuples (the paper's
        DeepDB update procedure: 1% of the appended data)."""
        assert self._disc is not None and self._root is not None
        rng = np.random.default_rng(self.seed + 1)
        count = max(1, int(round(len(appended) * self.insert_sample_fraction)))
        idx = rng.choice(len(appended), size=min(count, len(appended)), replace=False)
        sample_binned = self._disc.transform(appended[idx])
        # The SPN answers *selectivities*; inserting the sample shifts the
        # distribution toward the appended data while the row count used
        # to scale estimates comes from the live table.
        self._root.insert(sample_binned)
        self._plan = _BatchPlan(self._root)

    def model_size_bytes(self) -> int:
        return self._root.size_bytes() if self._root is not None else 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._root is not None:
            self._plan = _BatchPlan(self._root)
