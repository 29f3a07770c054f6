"""Confidence-gated distillation: a GBDT student for a slow nn teacher.

LW-XGB is the paper's cheapest accurate learner (Figure 4: microsecond
inference, no network forward), so the fast path distills the expensive
data-driven teachers (naru, mscn) into an lw-xgb-style student: the
teacher labels a generated predicate workload, and a
:class:`~repro.gbdt.GradientBoostedTrees` regressor fits the teacher's
*log* outputs over :class:`~repro.estimators.learned.featurize.LwFeaturizer`
features.

Distillation is lossy in the tails, so the student never serves alone.
A second, smaller GBDT — the **confidence model** — is fit on held-out
distillation queries to predict the absolute log residual between
student and teacher (i.e. the log of their q-error).  At inference the
student answers only when its predicted band is narrow; wide-band
queries fall back to the teacher, with both outcomes counted under
``repro_fastpath_student_total``.  The band threshold is in log space:
:data:`BAND_THRESHOLD` ``= log(4)`` means "fall back whenever the
student is predicted to be more than 4x off the teacher".

Deployment goes through the lifecycle gate: :func:`distill_into_service`
evaluates the student against the serving primary with a
:class:`~repro.lifecycle.PromotionGate` and only hot-swaps on PASS — a
regressed student never ships, the incumbent keeps serving, and the
estimate cache keeps its generation (no spurious invalidation).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Query
from ..core.table import Table
from ..core.workload import Workload, WorkloadConfig, WorkloadGenerator
from ..estimators.learned.featurize import LwFeaturizer
from ..gbdt import GradientBoostedTrees
from ..lifecycle.gate import GateReport, PromotionGate
from ..obs import get_events, get_registry
from ..obs.metrics import FASTPATH_STUDENT

#: label clamp matching the nn estimators' exp() guard
LOG_CLIP = 30.0
#: share of the distillation workload held out for the confidence model
HOLDOUT_FRACTION = 0.25
#: trees in the confidence model (the student's count is ``num_trees``)
CONFIDENCE_TREES = 24
#: student tree depth; the confidence model's is two less
MAX_DEPTH = 6
LEARNING_RATE = 0.15
#: widest predicted log residual the student may answer with (4x)
BAND_THRESHOLD = math.log(4.0)


@dataclass(frozen=True)
class DistillReport:
    """What the distillation run produced."""

    teacher: str
    num_queries: int
    holdout_queries: int
    #: p95 of |log student - log teacher| on the holdout split
    holdout_p95_log_residual: float
    #: fraction of holdout queries the confidence gate sends to the teacher
    holdout_fallback_fraction: float
    student_size_bytes: int
    teacher_size_bytes: int


class DistilledStudent(CardinalityEstimator):
    """GBDT student serving behind a confidence gate, teacher fallback.

    ``fit`` ignores any workload labels: the only supervision is the
    teacher's answers over a workload generated from the table (the
    paper's unified recipe).  The teacher must already be fitted.
    """

    name = "student"

    def __init__(
        self,
        teacher: CardinalityEstimator,
        num_queries: int = 2000,
        num_trees: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_queries < 8:
            raise ValueError("distillation needs at least 8 workload queries")
        self.teacher = teacher
        self.num_queries = num_queries
        self.num_trees = num_trees
        self.seed = seed
        self._featurizer: LwFeaturizer | None = None
        self._student: GradientBoostedTrees | None = None
        self._confidence: GradientBoostedTrees | None = None
        self.report: DistillReport | None = None

    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        rng = np.random.default_rng(self.seed)
        generator = WorkloadGenerator(table, WorkloadConfig())
        queries = [generator.generate_query(rng) for _ in range(self.num_queries)]
        teacher_est = np.asarray(self.teacher.estimate_many(queries), dtype=np.float32)
        log_teacher = np.log(np.maximum(teacher_est, np.float32(1e-9)))

        self._featurizer = LwFeaturizer(table)
        features = self._featurizer.features_many(queries)

        n_holdout = max(2, int(round(self.num_queries * HOLDOUT_FRACTION)))
        order = rng.permutation(self.num_queries)
        train_idx, hold_idx = order[n_holdout:], order[:n_holdout]

        self._student = GradientBoostedTrees(
            num_trees=self.num_trees,
            learning_rate=LEARNING_RATE,
            max_depth=MAX_DEPTH,
            monitor_label=self.name,
        ).fit(features[train_idx], log_teacher[train_idx])

        # The confidence model learns |log residual| on queries the
        # student did NOT train on — train-set residuals flatter the
        # student and would leave the gate blind to real divergence.
        hold_pred = self._student.predict(features[hold_idx])
        hold_residual = np.abs(hold_pred - log_teacher[hold_idx])
        self._confidence = GradientBoostedTrees(
            num_trees=CONFIDENCE_TREES,
            learning_rate=LEARNING_RATE,
            max_depth=MAX_DEPTH - 2,
            monitor_label=f"{self.name}-confidence",
        ).fit(features[hold_idx], hold_residual)

        band = self._confidence.predict(features[hold_idx])
        self.report = DistillReport(
            teacher=self.teacher.name,
            num_queries=self.num_queries,
            holdout_queries=int(hold_idx.size),
            holdout_p95_log_residual=float(np.percentile(hold_residual, 95.0)),
            holdout_fallback_fraction=float(np.mean(band > BAND_THRESHOLD)),
            student_size_bytes=self._model_only_size_bytes(),
            teacher_size_bytes=self.teacher.model_size_bytes(),
        )

    def _update(
        self, table: Table, appended: np.ndarray, workload: Workload | None
    ) -> None:
        """Re-distill against the (already updated) teacher."""
        self._fit(table, workload)

    # ------------------------------------------------------------------
    def _predicted_bands(self, features: np.ndarray) -> np.ndarray:
        assert self._confidence is not None
        return self._confidence.predict(features)

    def _estimate(self, query: Query) -> float:
        values = self._estimate_batch([query])
        return float(values[0])

    def _estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        assert self._featurizer is not None and self._student is not None
        queries = list(queries)
        features = self._featurizer.features_many(queries)
        bands = self._predicted_bands(features)
        wide = bands > BAND_THRESHOLD
        log_pred = self._student.predict(features)
        out = np.exp(np.clip(log_pred, -LOG_CLIP, LOG_CLIP))
        n_wide = int(np.count_nonzero(wide))
        if n_wide:
            wide_queries = [q for q, w in zip(queries, wide) if w]
            out[wide] = self.teacher.estimate_many(wide_queries)
        counter = get_registry().counter(
            FASTPATH_STUDENT, "Student-tier answers, by who served"
        )
        counter.inc(len(queries) - n_wide, outcome="student")
        if n_wide:
            counter.inc(n_wide, outcome="teacher")
        return out

    # ------------------------------------------------------------------
    def _model_only_size_bytes(self) -> int:
        """Packed size of the two GBDTs (24 bytes/node, as lw-xgb)."""
        total = 0
        if self._student is not None:
            total += 24 * self._student.num_nodes()
        if self._confidence is not None:
            total += 24 * self._confidence.num_nodes()
        return total

    def model_size_bytes(self) -> int:
        return self._model_only_size_bytes()


def distill_into_service(
    service,
    table: Table,
    *,
    gate: PromotionGate,
    student: DistilledStudent | None = None,
    **student_kwargs,
) -> tuple[DistilledStudent, GateReport]:
    """Distill the serving primary and promote the student only on PASS.

    Builds a :class:`DistilledStudent` from ``service.primary_estimator``
    (unless a pre-built ``student`` is supplied), fits it on ``table``,
    and runs the lifecycle :class:`PromotionGate` against the incumbent.
    On PASS the student hot-swaps in via ``replace_primary`` (which bumps
    the cache generation); on FAIL the service is left untouched — the
    teacher keeps serving and cached answers stay valid.  Both outcomes
    emit a ``fastpath.student_*`` event carrying the gate verdict.
    """
    teacher = service.primary_estimator
    if student is None:
        student = DistilledStudent(teacher, **student_kwargs)
    student.fit(table)
    report = gate.evaluate(student, teacher, table)
    if report.passed:
        service.replace_primary(student)
        get_events().emit(
            "fastpath.student_promoted",
            teacher=teacher.name,
            candidate_p95=report.candidate_p95,
            incumbent_p95=report.incumbent_p95,
        )
    else:
        get_events().emit(
            "fastpath.student_rejected",
            teacher=teacher.name,
            reasons="; ".join(report.reasons),
            candidate_p95=report.candidate_p95,
            incumbent_p95=report.incumbent_p95,
        )
    return student, report
