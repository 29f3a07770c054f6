"""Chow-Liu tree Bayesian network estimator [Chow & Liu 1968].

The paper's "Bayes" baseline builds a tree-structured probabilistic
graphical model: the maximum spanning tree of pairwise mutual
information, with conditional probability tables on the edges.  Range
queries are answered *exactly* by dynamic programming over the tree
(sum-product message passing with per-column indicator weights), which
is at least as accurate as the progressive-sampling inference of the
implementation the paper adopted.
"""

from __future__ import annotations

import numpy as np

from ...core.estimator import CardinalityEstimator
from ...core.query import Query
from ...core.table import Table
from ...core.workload import Workload
from ..discretize import Discretizer


def mutual_information(
    x: np.ndarray, y: np.ndarray, kx: int, ky: int
) -> float:
    """Mutual information (nats) between two discretised columns."""
    joint = np.bincount(x * ky + y, minlength=kx * ky).astype(np.float64)
    joint = joint.reshape(kx, ky) / len(x)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    outer = np.outer(px, py)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))


class BayesEstimator(CardinalityEstimator):
    """Tree-structured Bayesian network with exact range inference."""

    name = "bayes"

    def __init__(self, max_bins: int = 64, smoothing: float = 0.1) -> None:
        super().__init__()
        self.max_bins = max_bins
        self.smoothing = smoothing
        self._disc: Discretizer | None = None
        self._root: int = 0
        self._children: dict[int, list[int]] = {}
        self._root_dist: np.ndarray | None = None
        #: child -> CPT with shape (parent_bins, child_bins)
        self._cpts: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        # networkx is imported on first use, not with the package: it
        # adds ~18 MB to every process that imports repro.
        import networkx as nx

        self._disc = Discretizer(table, self.max_bins)
        binned = self._disc.transform(table.data)
        cards = self._disc.cardinalities
        n = table.num_columns

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                mi = mutual_information(binned[:, i], binned[:, j], cards[i], cards[j])
                graph.add_edge(i, j, weight=mi)
        tree = nx.maximum_spanning_tree(graph) if n > 1 else graph

        self._root = 0
        directed = nx.bfs_tree(tree, self._root) if n > 1 else nx.DiGraph()
        directed.add_node(self._root)
        self._children = {
            v: list(directed.successors(v)) for v in range(n)
        }

        counts = np.bincount(binned[:, self._root], minlength=cards[self._root])
        dist = counts + self.smoothing
        self._root_dist = dist / dist.sum()

        self._cpts = {}
        for parent, child in directed.edges:
            kp, kc = cards[parent], cards[child]
            joint = np.bincount(
                binned[:, parent] * kc + binned[:, child], minlength=kp * kc
            ).reshape(kp, kc).astype(np.float64)
            joint += self.smoothing
            self._cpts[child] = joint / joint.sum(axis=1, keepdims=True)
            # Record parenthood implicitly via _children; CPT rows are
            # indexed by the parent's bin.

    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        assert self._disc is not None and self._root_dist is not None
        weights = {
            p.column: self._disc.predicate_weights(p) for p in query.predicates
        }
        message = self._message(self._root, weights)
        prob = float(self._root_dist @ message)
        return prob * self.table.num_rows

    def _message(self, node: int, weights: dict[int, np.ndarray]) -> np.ndarray:
        """Per-bin factor at ``node``: indicator weight times the product
        of child messages marginalised through the CPTs."""
        assert self._disc is not None
        k = self._disc.cardinalities[node]
        factor = weights.get(node, np.ones(k)).copy()
        for child in self._children.get(node, []):
            child_msg = self._message(child, weights)
            factor *= self._cpts[child] @ child_msg
        return factor

    def model_size_bytes(self) -> int:
        total = self._root_dist.nbytes if self._root_dist is not None else 0
        total += sum(cpt.nbytes for cpt in self._cpts.values())
        return total
