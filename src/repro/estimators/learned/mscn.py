"""MSCN [Kipf et al. 2019]: multi-set convolutional network.

The single-table variant used by the paper: the join module is dropped
and the feature vector keeps the predicate module (a per-predicate MLP
followed by average pooling over the predicate set) and the qualifying
materialized-sample bitmap module.  The model minimises the mean q-error
(representable in log space as ``exp(|log est - log act|)``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...core.estimator import CardinalityEstimator
from ...core.query import PredicateArrays, Query
from ...core.table import Table
from ...core.workload import Workload
from ...nn import Adam, Linear, ReLU, Sequential, global_grad_norm, qerror_loss
from ...obs import get_monitor
from ...obs.clock import perf_counter
from .featurize import MscnFeaturizer, log_cardinality_labels


class _MscnNetwork:
    """The three-module MSCN architecture with manual backprop."""

    def __init__(
        self,
        predicate_dim: int,
        sample_size: int,
        hidden: int,
        rng: np.random.Generator,
        use_sample: bool,
    ) -> None:
        self.use_sample = use_sample
        self.predicate_mlp = Sequential(
            Linear(predicate_dim, hidden, rng), ReLU(),
            Linear(hidden, hidden, rng), ReLU(),
        )
        self.sample_mlp = (
            Sequential(
                Linear(sample_size, hidden, rng), ReLU(),
                Linear(hidden, hidden, rng), ReLU(),
            )
            if use_sample
            else None
        )
        merged = hidden * (2 if use_sample else 1)
        self.output_mlp = Sequential(
            Linear(merged, hidden, rng), ReLU(), Linear(hidden, 1, rng)
        )
        self.hidden = hidden
        self._cache: dict[str, np.ndarray] = {}

    def parameters(self) -> list:
        params = self.predicate_mlp.parameters() + self.output_mlp.parameters()
        if self.sample_mlp is not None:
            params += self.sample_mlp.parameters()
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def forward(
        self, pred_feats: np.ndarray, pred_mask: np.ndarray, bitmaps: np.ndarray
    ) -> np.ndarray:
        batch, max_preds, dim = pred_feats.shape
        flat = pred_feats.reshape(batch * max_preds, dim)
        hidden_flat = self.predicate_mlp.forward(flat)
        hidden = hidden_flat.reshape(batch, max_preds, self.hidden)
        counts = np.maximum(pred_mask.sum(axis=1, keepdims=True), 1.0)
        pooled = (hidden * pred_mask[:, :, None]).sum(axis=1) / counts
        self._cache = {"mask": pred_mask, "counts": counts, "shape": np.array([batch, max_preds])}
        if self.sample_mlp is not None:
            sample_hidden = self.sample_mlp.forward(bitmaps)
            merged = np.concatenate([pooled, sample_hidden], axis=1)
        else:
            merged = pooled
        return self.output_mlp.forward(merged).ravel()

    def forward_atoms(
        self, flat_feats: np.ndarray, counts: np.ndarray, bitmaps: np.ndarray
    ) -> np.ndarray:
        """Inference-only forward over the concatenated valid atoms.

        Skips the padded predicate slots entirely: the MLP runs on the
        real atoms and segment sums replace the masked pooling.  The MLP
        rows equal :meth:`forward`'s bit for bit, but the segment sums
        add in order where the padded masked sum uses NumPy's pairwise
        summation, so the outputs agree to the last ulp, not bit for
        bit.  Every served estimate comes from here (scalar ``estimate``
        included).  Not usable for training (no activations are cached
        for backward).
        """
        counts = np.asarray(counts, dtype=np.int64)
        hidden = self.predicate_mlp.forward(flat_feats)
        # Every query has at least one atom, so no segment is empty.  The
        # in-place divide keeps the MLP's dtype: int8 layers emit
        # float32, and a float64 pool here would silently upcast the
        # rest of the net.
        starts = np.add.accumulate(counts) - counts
        pooled = np.add.reduceat(hidden, starts, axis=0)
        np.true_divide(pooled, counts[:, None], out=pooled)
        if self.sample_mlp is not None:
            sample_hidden = self.sample_mlp.forward(bitmaps)
            merged = np.concatenate([pooled, sample_hidden], axis=1)
        else:
            merged = pooled
        return self.output_mlp.forward(merged).ravel()

    def backward(self, grad_out: np.ndarray) -> None:
        grad_merged = self.output_mlp.backward(grad_out[:, None])
        if self.sample_mlp is not None:
            grad_pooled = grad_merged[:, : self.hidden]
            grad_sample = grad_merged[:, self.hidden :]
            self.sample_mlp.backward(grad_sample)
        else:
            grad_pooled = grad_merged
        mask = self._cache["mask"]
        counts = self._cache["counts"]
        batch, max_preds = map(int, self._cache["shape"])
        # Distribute the pooled gradient back onto each valid predicate.
        grad_hidden = (
            grad_pooled[:, None, :] * (mask / counts)[:, :, None]
        ).reshape(batch * max_preds, self.hidden)
        self.predicate_mlp.backward(grad_hidden)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class MscnEstimator(CardinalityEstimator):
    """Multi-set convolutional network (query-driven)."""

    name = "mscn"
    requires_workload = True

    def __init__(
        self,
        hidden_units: int = 64,
        sample_size: int = 200,
        epochs: int = 60,
        update_epochs: int = 15,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        use_sample: bool = True,
        seed: int = 0,
        quantize: str | None = None,
    ) -> None:
        super().__init__()
        if quantize not in (None, "int8"):
            raise ValueError(f"quantize must be None or 'int8', got {quantize!r}")
        self.hidden_units = hidden_units
        self.sample_size = sample_size
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.use_sample = use_sample
        self.seed = seed
        self.quantize = quantize
        self._quantized = False
        self._featurizer: MscnFeaturizer | None = None
        self._network: _MscnNetwork | None = None
        self._optimizer: Adam | None = None
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        assert workload is not None
        rng = np.random.default_rng(self.seed)
        self._featurizer = MscnFeaturizer(table, self.sample_size, rng)
        self._network = _MscnNetwork(
            self._featurizer.predicate_dim,
            len(self._featurizer.sample),
            self.hidden_units,
            rng,
            self.use_sample,
        )
        self._quantized = False
        self._optimizer = Adam(self._network.parameters(), self.learning_rate)
        self.loss_history = []
        self._train(workload, self.epochs, rng)
        if self.quantize == "int8":
            self.quantize_int8()

    def quantize_int8(self) -> None:
        """Pack the three fitted MLPs' weights to int8 (inference-only).

        Every dense layer is swapped for its packed
        :class:`~repro.fastpath.quantize.QuantizedLinear` twin in place;
        the float weights are dropped.  Further training (``update``)
        requires a fresh fit.
        """
        # Deferred import: repro.fastpath builds on the estimator layers.
        from ...fastpath.quantize import quantize_sequential

        if self._network is None:
            raise RuntimeError("fit the estimator before quantizing")
        if self._quantized:
            return
        quantize_sequential(self._network.predicate_mlp)
        if self._network.sample_mlp is not None:
            quantize_sequential(self._network.sample_mlp)
        quantize_sequential(self._network.output_mlp)
        self._optimizer = None
        self._quantized = True

    def _train(
        self, workload: Workload, epochs: int, rng: np.random.Generator
    ) -> None:
        assert self._featurizer is not None and self._network is not None
        assert self._optimizer is not None
        preds = PredicateArrays.of(workload.queries)
        pred_feats, pred_mask = self._featurizer.predicate_tensor(preds)
        bitmaps = self._featurizer.bitmaps(preds)
        labels = log_cardinality_labels(workload.cardinalities)
        n = len(labels)
        monitor = get_monitor()
        for _ in range(epochs):
            epoch_start = perf_counter() if monitor is not None else 0.0
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                pred = self._network.forward(
                    pred_feats[batch], pred_mask[batch], bitmaps[batch]
                )
                loss, grad = qerror_loss(pred, labels[batch])
                self._network.zero_grad()
                self._network.backward(grad)
                self._optimizer.step()
                epoch_loss += loss * len(batch)
            self.loss_history.append(epoch_loss / n)
            if monitor is not None:
                monitor.on_epoch(
                    self.name,
                    epoch=len(self.loss_history) - 1,
                    loss=self.loss_history[-1],
                    grad_norm=global_grad_norm(self._network.parameters()),
                    seconds=perf_counter() - epoch_start,
                )

    def _update(
        self, table: Table, appended: np.ndarray, workload: Workload | None
    ) -> None:
        """Dynamic update (the paper adopts LW's procedure for MSCN):
        refresh the materialized sample and continue training on freshly
        labelled queries for a few epochs."""
        if self._quantized:
            raise RuntimeError(
                "int8-quantized mscn is inference-only; fit a fresh "
                "estimator to train further"
            )
        if workload is None:
            raise ValueError("mscn update needs a fresh training workload")
        assert self._featurizer is not None
        rng = np.random.default_rng(self.seed + 1)
        self._featurizer.refresh_sample(table, rng)
        self._train(workload, self.update_epochs, rng)

    # ------------------------------------------------------------------
    def _estimate(self, query: Query) -> float:
        return float(self._estimate_batch([query])[0])

    def _estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """One network forward over the batch's concatenated atoms.

        The featurizer reads the batch as :class:`PredicateArrays` (a
        decoded :class:`~repro.core.query.QueryBatch` hands over its own
        arrays), and the padding-free atom layout plus segment-sum
        pooling (:meth:`_MscnNetwork.forward_atoms`) spends no
        predicate-MLP work on empty padded slots.
        """
        assert self._featurizer is not None and self._network is not None
        preds = PredicateArrays.of(queries)
        flat_feats, counts = self._featurizer.atoms(preds)
        bitmaps = self._featurizer.bitmaps(preds)
        log_cards = self._network.forward_atoms(flat_feats, counts, bitmaps)
        return np.exp(np.clip(log_cards, -30.0, 30.0))

    def model_size_bytes(self) -> int:
        if self._network is None:
            return 0
        if self._quantized:
            from ...fastpath.quantize import module_size_bytes

            parts = [self._network.predicate_mlp, self._network.output_mlp]
            if self._network.sample_mlp is not None:
                parts.append(self._network.sample_mlp)
            return sum(module_size_bytes(m) for m in parts)
        return sum(p.value.nbytes for p in self._network.parameters())
