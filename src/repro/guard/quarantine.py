"""Model quarantine: demote a misbehaving learned tier, re-admit on proof.

The serving stack already *survives* a bad model (fallback chains,
breakers), but survival is per-query: a model that keeps emitting
plausible-looking garbage keeps being consulted, keeps paying its
latency, and keeps poisoning the estimate cache between clamp events.
:class:`QuarantineMonitor` closes that loop at the *model* level.  It
watches the per-tenant q-error feedback stream (the same samples that
feed :class:`~repro.obs.SloRegistry` and the exemplar boards) and, when
a tenant's recent window shows a sustained violation, **demotes** the
learned primary out of the fallback chain, replacing it with a
bounded-error safe tier (the heuristic constant estimator).
The swap rides :meth:`~repro.serve.EstimatorService.replace_primary`,
so it inherits the lifecycle machinery's guarantees: fresh breaker,
fresh stats, and a cache-generation bump that invalidates every cached
estimate the bad model produced.

Quarantine is *probationary*, not terminal.  Every ``probe_interval``
feedback samples the monitor re-runs the quarantined model through the
lifecycle :class:`~repro.lifecycle.PromotionGate` against the incumbent
safe tier on the probe workload; a clean pass re-admits it (another
``replace_primary``, another generation bump).  A lifecycle promotion
of a freshly-gated model clears quarantine outright (see
:meth:`QuarantineMonitor.on_promotion`).

State machine::

    HEALTHY --(window bad_fraction >= breach_fraction)--> QUARANTINED
    QUARANTINED --(gate passes on probe workload)--------> HEALTHY
    QUARANTINED --(lifecycle promotes a gated model)-----> HEALTHY
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..lifecycle.gate import GateReport, PromotionGate
from ..obs import GUARD_QUARANTINE, get_events, get_registry
from ..serve.heuristic import HeuristicConstantEstimator

HEALTHY = "healthy"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class QuarantineStatus:
    """Point-in-time snapshot of the monitor."""

    state: str
    demotions: int
    readmissions: int
    probes_failed: int
    #: tenant whose window triggered the active quarantine (None when healthy)
    offending_tenant: str | None


class QuarantineMonitor:
    """Watch q-error feedback; demote and re-admit the learned primary.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.EstimatorService` whose primary tier is
        under watch.
    probe_queries:
        Validation queries for the re-admission gate (typically the
        lifecycle probe workload).
    qerror_threshold:
        A feedback sample counts as *bad* when its q-error exceeds this.
    window / min_samples / breach_fraction:
        Per-tenant sliding window: quarantine triggers once at least
        ``min_samples`` samples are in the window and the bad fraction
        reaches ``breach_fraction`` — sustained violation, not a single
        outlier.
    probe_interval:
        Feedback samples between automatic re-admission attempts while
        quarantined.

    The replacement tier is always a fresh
    :class:`~repro.serve.heuristic.HeuristicConstantEstimator` (it
    cannot fail), fitted on the service's table before the swap.  The
    re-admission gate runs without the §6.3 rule checks
    (``rule_checks=0``).
    """

    def __init__(
        self,
        service,
        probe_queries,
        *,
        qerror_threshold: float = 16.0,
        window: int = 64,
        min_samples: int = 16,
        breach_fraction: float = 0.5,
        probe_interval: int = 32,
    ) -> None:
        if qerror_threshold < 1.0:
            raise ValueError("qerror_threshold must be >= 1")
        if not 0.0 < breach_fraction <= 1.0:
            raise ValueError("breach_fraction must be in (0, 1]")
        if min_samples < 1 or window < min_samples:
            raise ValueError("need 1 <= min_samples <= window")
        if probe_interval < 1:
            raise ValueError("probe_interval must be positive")
        self.service = service
        self.qerror_threshold = qerror_threshold
        self.window = window
        self.min_samples = min_samples
        self.breach_fraction = breach_fraction
        self.probe_interval = probe_interval
        self.gate = PromotionGate(list(probe_queries), rule_checks=0)
        self.state = HEALTHY
        self.demotions = 0
        self.readmissions = 0
        self.probes_failed = 0
        self._windows: dict[str, deque] = {}
        self._quarantined = None
        self._offender: str | None = None
        self._since_probe = 0

    # ------------------------------------------------------------------
    def observe(self, tenant: str, qerror: float) -> None:
        """Feed one q-error sample from the accuracy-feedback stream."""
        if self.state == QUARANTINED:
            self._since_probe += 1
            if self._since_probe >= self.probe_interval:
                self._since_probe = 0
                self.attempt_readmission()
            return
        window = self._windows.get(tenant)
        if window is None:
            window = self._windows[tenant] = deque(maxlen=self.window)
        window.append(qerror > self.qerror_threshold)
        if (
            len(window) >= self.min_samples
            and sum(window) / len(window) >= self.breach_fraction
        ):
            self.quarantine(tenant)

    # ------------------------------------------------------------------
    def quarantine(self, tenant: str = "default") -> None:
        """Demote the learned primary out of the chain, effective now."""
        if self.state == QUARANTINED:
            return
        self._quarantined = self.service.primary_estimator
        safe = HeuristicConstantEstimator()
        safe.fit(self.service.table)
        # replace_primary gives the safe tier a fresh breaker and bumps
        # the cache generation — every estimate the bad model cached is
        # invalidated along with it.
        self.service.replace_primary(safe)
        self.state = QUARANTINED
        self._offender = tenant
        self._since_probe = 0
        self.demotions += 1
        self._count("demote")
        get_events().emit(
            "guard.quarantine",
            tenant=tenant,
            demoted=self._quarantined.name,
            replacement=safe.name,
            generation=self.service.model_generation,
        )

    def attempt_readmission(self) -> GateReport | None:
        """Gate the quarantined model against the incumbent safe tier.

        Returns the gate report (``None`` when nothing is quarantined).
        A pass re-admits the model as the primary; a fail leaves it
        quarantined until the next probe interval.
        """
        if self.state != QUARANTINED or self._quarantined is None:
            return None
        report = self.gate.evaluate(
            self._quarantined,
            self.service.primary_estimator,
            self.service.table,
        )
        if report.passed:
            model = self._quarantined
            self.service.replace_primary(model)
            self.state = HEALTHY
            self._quarantined = None
            self._offender = None
            self._windows.clear()
            self.readmissions += 1
            self._count("readmit")
            get_events().emit(
                "guard.readmit",
                model=model.name,
                generation=self.service.model_generation,
            )
        else:
            self.probes_failed += 1
            self._count("probe-failed")
            get_events().emit(
                "guard.probe_failed", reasons=list(report.reasons)
            )
        return report

    def on_promotion(self) -> None:
        """A lifecycle promotion installed a freshly-gated model.

        The new primary already proved itself against the incumbent, so
        any active quarantine (of the model it replaced) is moot.
        """
        self.state = HEALTHY
        self._quarantined = None
        self._offender = None
        self._since_probe = 0
        self._windows.clear()

    # ------------------------------------------------------------------
    def status(self) -> QuarantineStatus:
        return QuarantineStatus(
            state=self.state,
            demotions=self.demotions,
            readmissions=self.readmissions,
            probes_failed=self.probes_failed,
            offending_tenant=self._offender,
        )

    def _count(self, action: str) -> None:
        get_registry().counter(
            GUARD_QUARANTINE, "Quarantine transitions, by action"
        ).inc(action=action)
