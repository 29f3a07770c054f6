"""Validation-gated promotion: no candidate reaches serving unchecked.

The paper's Section 6 verdict — learned estimators can be *illogical*
(6.3) and silently wrong after shifts — means a freshly retrained model
must prove itself against the incumbent before it may serve.  The gate
runs three families of checks on the candidate:

1. **sanity** — validation answers must be finite and within
   ``[0, num_rows]`` (reusing :func:`repro.rules.enforce.is_sane`); a
   small :data:`MAX_INSANE_FRACTION` is tolerated because an
   honest regression model occasionally overshoots ``num_rows``, and
   the serving layer clamps per-answer anyway — the check is aimed at
   NaN-storms and wholesale garbage;
2. **q-error non-regression** — the candidate's p50/p95 q-error on the
   validation workload may not exceed the incumbent's by more than
   ``regression_tolerance``;
3. **logical rules** — monotonicity and consistency violation rates
   (the Table 6 rule checker from :mod:`repro.rules`), judged *relative
   to the incumbent*: learned estimators violate these rules routinely
   (that is Section 6.3's headline), so an absolute bar would veto every
   honest candidate.  The candidate fails only when its violation rate
   exceeds ``max(MAX_VIOLATION_RATE, incumbent rate + RULE_SLACK)`` —
   i.e. it is allowed to be as illogical as the model it replaces, but
   not catastrophically more so.  :data:`RULE_SLACK` is wide because
   violation rates on a small probe set are noisy (Table 6's rates
   swing run to run); the check is a guard against pathological
   candidates, not a fine discriminator.

The outcome is a :class:`GateReport` listing every reason for rejection,
so a rollback is attributable, and lifecycle events/tests can assert the
exact failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.metrics import qerrors
from ..core.table import Table
from ..rules.checks import RuleReport, check_consistency, check_monotonicity
from ..rules.enforce import is_sane

#: share of validation answers allowed to be NaN/inf/out of bounds
MAX_INSANE_FRACTION = 0.05
#: absolute floor of the allowed rule-violation rate
MAX_VIOLATION_RATE = 0.10
#: how far the candidate's violation rate may exceed the incumbent's
RULE_SLACK = 0.50


@dataclass(frozen=True)
class GateReport:
    """Verdict of one candidate-vs-incumbent validation."""

    passed: bool
    reasons: tuple[str, ...]
    candidate_p50: float
    candidate_p95: float
    incumbent_p50: float
    incumbent_p95: float
    insane_fraction: float
    rule_reports: tuple[RuleReport, ...]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        why = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return (
            f"{verdict}{why}: candidate p95={self.candidate_p95:.2f} "
            f"vs incumbent p95={self.incumbent_p95:.2f}"
        )


class PromotionGate:
    """Validates a retrained candidate before it may replace the incumbent."""

    def __init__(
        self,
        validation_queries,
        *,
        regression_tolerance: float = 1.15,
        rule_checks: int = 20,
        seed: int = 0,
    ) -> None:
        if regression_tolerance < 1.0:
            raise ValueError("regression_tolerance must be >= 1")
        if rule_checks < 0:
            raise ValueError("rule_checks must be non-negative")
        self.validation_queries = list(validation_queries)
        if not self.validation_queries:
            raise ValueError("the gate needs at least one validation query")
        self.regression_tolerance = regression_tolerance
        self.rule_checks = rule_checks
        self.seed = seed

    # ------------------------------------------------------------------
    def evaluate(
        self,
        candidate: CardinalityEstimator,
        incumbent: CardinalityEstimator,
        table: Table,
    ) -> GateReport:
        """Judge ``candidate`` against ``incumbent`` on ``table``.

        Both models answer the validation queries; ground truth comes
        from the (post-update) table itself, so the comparison reflects
        the data the candidate would actually serve.
        """
        queries = self.validation_queries
        actuals = table.cardinalities(queries)
        reasons: list[str] = []

        try:
            cand = np.asarray(candidate.estimate_many(queries), dtype=np.float64)
        except Exception as exc:
            # A candidate that cannot even answer is rejected outright.
            return GateReport(
                passed=False,
                reasons=(f"candidate raised: {exc}",),
                candidate_p50=float("inf"),
                candidate_p95=float("inf"),
                incumbent_p50=float("nan"),
                incumbent_p95=float("nan"),
                insane_fraction=1.0,
                rule_reports=(),
            )
        inc = np.asarray(incumbent.estimate_many(queries), dtype=np.float64)

        sane = np.array([is_sane(v, table.num_rows) for v in cand])
        insane_fraction = float(1.0 - np.mean(sane))
        if insane_fraction > MAX_INSANE_FRACTION:
            reasons.append(
                f"sanity: {insane_fraction:.1%} of validation answers "
                "NaN/inf/out-of-bounds"
            )

        cand_q = qerrors(np.where(sane, cand, 0.0), actuals)
        inc_q = qerrors(inc, actuals)
        cand_p50, cand_p95 = (
            float(np.percentile(cand_q, 50.0)),
            float(np.percentile(cand_q, 95.0)),
        )
        inc_p50, inc_p95 = (
            float(np.percentile(inc_q, 50.0)),
            float(np.percentile(inc_q, 95.0)),
        )
        if cand_p95 > inc_p95 * self.regression_tolerance:
            reasons.append(
                f"qerror regression: candidate p95 {cand_p95:.2f} > "
                f"{self.regression_tolerance:.2f}x incumbent p95 {inc_p95:.2f}"
            )

        rule_reports: list[RuleReport] = []
        if self.rule_checks > 0 and not reasons:
            # Rule checks issue extra model calls; skip them when the
            # candidate is already rejected on cheaper grounds.  Both
            # models see the same probe pairs (same seed) so the
            # comparison is apples to apples.
            for check in (check_monotonicity, check_consistency):
                rng = np.random.default_rng(self.seed)
                report = check(candidate, table, rng, num_checks=self.rule_checks)
                rule_reports.append(report)
                rng = np.random.default_rng(self.seed)
                inc_report = check(incumbent, table, rng, num_checks=self.rule_checks)
                allowed = max(
                    MAX_VIOLATION_RATE, inc_report.violation_rate + RULE_SLACK
                )
                if report.violation_rate > allowed:
                    reasons.append(
                        f"rule {report.rule}: violation rate "
                        f"{report.violation_rate:.1%} > allowed {allowed:.1%} "
                        f"(incumbent {inc_report.violation_rate:.1%})"
                    )

        return GateReport(
            passed=not reasons,
            reasons=tuple(reasons),
            candidate_p50=cand_p50,
            candidate_p95=cand_p95,
            incumbent_p50=inc_p50,
            incumbent_p95=inc_p95,
            insane_fraction=insane_fraction,
            rule_reports=tuple(rule_reports),
        )
