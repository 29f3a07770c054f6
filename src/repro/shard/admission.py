"""Admission control for one shard: bounded queues, deadlines, quotas.

A shard's worker pool has finite throughput; under a traffic spike the
choice is between queueing (and blowing every deadline), rejecting
(availability < 1), or **shedding to a cheaper tier**.  The controller
takes the third option, deciding *per request batch* who gets a worker
and who degrades to the heuristic tier — nobody is ever rejected
outright, which is what keeps measured availability at 1.0 under a
queue flood.

Three shedding rules, applied in priority order (highest priority
first, FIFO within a priority):

* **Per-tenant quota** — a tenant may hold at most ``tenant_quota``
  queue slots per batch, so one noisy tenant cannot starve the rest.
* **Queue capacity** — at most ``queue_capacity`` requests are queued
  for workers; the overflow (lowest priority first, by construction of
  the admission order) is shed.
* **Deadline awareness** — a request whose deadline would already be
  blown by its predicted queue wait (position × EWMA per-query service
  time) is shed *immediately* instead of queued to fail later; the
  heuristic answer now beats a worker answer that arrives too late.

Admitted requests are returned in arrival order, so admission never
perturbs result determinism — with shedding disabled (no deadlines, no
quotas, capacity ≥ batch) the admitted batch is exactly the input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.query import Query
from ..obs import SHARD_SHED, EventLog, MetricsRegistry, get_events, get_registry


@dataclass(frozen=True)
class ShardRequest:
    """One query plus its serving metadata (tenant, priority, deadline)."""

    query: Query
    tenant: str = "default"
    #: larger = more important; sheds last under pressure
    priority: int = 0
    #: end-to-end answer deadline; None = no deadline
    deadline_ms: float | None = None


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-shard admission policy."""

    #: queue slots per admission window (the dispatch batch)
    queue_capacity: int = 2048
    #: max queue slots one tenant may hold per window; None = unlimited
    tenant_quota: int | None = None
    #: EWMA smoothing for the per-query service-time estimate
    service_time_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError("tenant_quota must be at least 1 (or None)")
        if not 0.0 < self.service_time_alpha <= 1.0:
            raise ValueError("service_time_alpha must be in (0, 1]")


@dataclass(frozen=True)
class AdmissionDecision:
    """Who got a worker slot and who degrades to the heuristic tier."""

    #: indices into the request batch, in arrival order
    admitted: tuple[int, ...]
    #: (index, reason) for every shed request; reason in
    #: {"capacity", "quota", "deadline"}
    shed: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def shed_reasons(self) -> Counter:
        return Counter(reason for _, reason in self.shed)


class AdmissionController:
    """Decide, per batch, which requests may queue for a worker."""

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        *,
        shard: str = "",
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.shard = shard
        self._events = events
        self._registry = registry
        #: EWMA per-query worker service time (seconds); None until the
        #: first completed dispatch reports in
        self.service_seconds_per_query: float | None = None

    # ------------------------------------------------------------------
    def predicted_wait_ms(self, position: int) -> float:
        """Expected queue wait of a request ``position`` slots deep."""
        if self.service_seconds_per_query is None:
            return 0.0
        return position * self.service_seconds_per_query * 1000.0

    def admit(self, requests: list[ShardRequest]) -> AdmissionDecision:
        """Partition one batch into admitted and shed requests."""
        cfg = self.config
        # Highest priority first; FIFO within a priority (stable sort on
        # the negated priority keeps arrival order for ties).
        order = sorted(range(len(requests)), key=lambda i: -requests[i].priority)
        admitted: list[int] = []
        shed: list[tuple[int, str]] = []
        per_tenant: Counter = Counter()
        for i in order:
            request = requests[i]
            if (
                cfg.tenant_quota is not None
                and per_tenant[request.tenant] >= cfg.tenant_quota
            ):
                shed.append((i, "quota"))
                continue
            if len(admitted) >= cfg.queue_capacity:
                shed.append((i, "capacity"))
                continue
            if (
                request.deadline_ms is not None
                and self.predicted_wait_ms(len(admitted)) > request.deadline_ms
            ):
                shed.append((i, "deadline"))
                continue
            admitted.append(i)
            per_tenant[request.tenant] += 1

        admitted.sort()  # back to arrival order: admission never reorders
        shed.sort()
        if shed:
            reasons = Counter(reason for _, reason in shed)
            counter = self._obs_registry().counter(
                SHARD_SHED, "Requests shed to the heuristic tier, by reason"
            )
            for reason, count in reasons.items():
                counter.inc(count, shard=self.shard, reason=reason)
            self._obs_events().emit(
                "shard.shed",
                shard=self.shard,
                batch=len(requests),
                **{reason: count for reason, count in sorted(reasons.items())},
            )
        return AdmissionDecision(admitted=tuple(admitted), shed=tuple(shed))

    def observe_service(self, queries: int, seconds: float) -> None:
        """Fold one completed dispatch into the service-time EWMA."""
        if queries < 1 or seconds < 0.0:
            return
        per_query = seconds / queries
        if self.service_seconds_per_query is None:
            self.service_seconds_per_query = per_query
        else:
            alpha = self.config.service_time_alpha
            self.service_seconds_per_query = (
                alpha * per_query + (1.0 - alpha) * self.service_seconds_per_query
            )

    # ------------------------------------------------------------------
    def _obs_events(self) -> EventLog:
        return self._events if self._events is not None else get_events()

    def _obs_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()
