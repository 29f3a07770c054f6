"""Fault-tolerant estimator serving (the ByteCard-style deployment story).

The paper's verdict is that learned estimators are accurate *until they
aren't*: stale after updates (Section 5), illogical (Section 6.3), and
pathological under correlation shifts (Section 6).  Production systems
that shipped learned cardinality estimation anyway did it by wrapping
the model in guardrails with traditional fallbacks.  This module is that
wrapper:

:class:`EstimatorService` answers every query from a **fallback chain**
of estimator tiers (e.g. ``naru -> sampling -> postgres -> heuristic``).
For each query it walks the chain and returns the first acceptable
answer, where a tier's answer is rejected when it

* raises an exception,
* exceeds the remaining per-query **deadline budget**,
* is NaN or infinite, or
* (finite but out of bounds) — served after clamping, but counted as a
  failure against the tier, reusing the :mod:`repro.rules` bounds
  checks.

:meth:`~EstimatorService.serve` answers an exact cache hit on its own
fast path and serves a miss as a batch of one, so scalar and batch
serving share one chain walk; :func:`screen_answers`, which the shard
tier also applies to worker answers, is the one judgement of a model's
answer.

Each tier sits behind a :class:`~repro.serve.breaker.CircuitBreaker`, so
a tier that fails repeatedly is skipped without paying its latency until
a recovery probe succeeds.  Rule-implied answers (contradictory or
full-domain queries) are short-circuited before any model runs, exactly
like :class:`~repro.rules.LogicalGuard`.  Per-tier health counters and
latency quantiles are exposed via :meth:`EstimatorService.health`.

The service is fully instrumented through :mod:`repro.obs`: every
:meth:`~EstimatorService.serve` call opens a ``serve`` span with one
child span per tier attempt, fallback activations / sanitizations /
NaN catches are emitted as structured events, and per-tier latencies
feed both the exact-percentile health window and the registry's
exportable histogram.  Pass ``registry`` / ``events`` to aggregate
telemetry across services; the defaults are the process-wide
instances.  Spans go to the process-wide collector, when one is
installed.

The service is itself a :class:`CardinalityEstimator`, so it drops into
every harness, can be persisted, and can even be a tier of another
service.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.metrics import qerror as _qerror
from ..core.query import Query, QueryBatch
from ..core.table import Table
from ..core.workload import Workload
from ..obs import (
    GUARD_CLAMPED,
    GUARD_OOD,
    SERVE_CACHE,
    SERVE_REQUESTS,
    SERVE_TIER_ATTEMPTS,
    SERVE_TIER_SECONDS,
    EventLog,
    Exemplar,
    ExemplarStore,
    LatencyWindow,
    MetricsRegistry,
    SloRegistry,
    format_quantiles_ms,
    get_collector,
    get_events,
    get_exemplars,
    get_registry,
    get_slos,
    span,
)
from ..rules.enforce import clamp_to_bounds, trivial_answers
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .cache import EstimateCache

#: Per-predicate selectivity of the in-service emergency answer, used
#: only when every tier of the chain is skipped or fails.
LAST_RESORT_SELECTIVITY = 0.1

#: Latency samples retained per tier for the p50/p99 estimates.
_LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class ServedEstimate:
    """The outcome of serving one query."""

    estimate: float
    #: name of the tier that produced the answer ("shortcut" when a
    #: rule-implied answer skipped the chain, "last-resort" when every
    #: tier failed)
    tier: str
    #: index of the serving tier in the chain; -1 for the shortcut path
    tier_index: int
    #: True when a tier other than the primary produced the answer
    degraded: bool
    latency_seconds: float
    #: (tier, outcome) per chain step, e.g. ("naru", "nan")
    attempts: tuple[tuple[str, str], ...]
    #: trace id of the serving span (None when no collector is active);
    #: links accuracy feedback and exemplars back to the full span tree
    trace_id: int | None = None


def served_estimate(
    estimate: float,
    tier: str,
    tier_index: int,
    degraded: bool,
    latency_seconds: float,
    attempts: tuple[tuple[str, str], ...],
    trace_id: int | None = None,
) -> ServedEstimate:
    """The one builder of :class:`ServedEstimate` answers.

    Fills ``__dict__`` rather than running the frozen-dataclass
    ``__init__`` (which ``object.__setattr__``'s every field): the
    generated constructor alone costs ~2.5 µs, a third of the whole
    cache-hit latency budget.  ``tests/test_lint.py`` rule 8 keeps every
    other module off the constructor."""
    served = ServedEstimate.__new__(ServedEstimate)
    served.__dict__.update({
        "estimate": estimate,
        "tier": tier,
        "tier_index": tier_index,
        "degraded": degraded,
        "latency_seconds": latency_seconds,
        "attempts": attempts,
        "trace_id": trace_id,
    })
    return served


_SHORTCUT_ATTEMPTS = (("shortcut", "served"),)
_CACHE_ATTEMPTS = (("cache", "served"),)


@dataclass(frozen=True)
class TierHealth:
    """Point-in-time health of one tier of the chain."""

    tier: str
    state: str
    attempts: int
    served: int
    sanitized: int
    failures: dict[str, int]
    skipped_open: int
    skipped_deadline: int
    trips: int
    p50_ms: float
    p99_ms: float
    #: answers pulled into the provable bound interval (repro.guard)
    guard_clamped: int = 0


@dataclass(frozen=True)
class ServiceHealth:
    """Snapshot returned by :meth:`EstimatorService.health`."""

    queries: int
    answered: int
    degraded: int
    shortcuts: int
    last_resort: int
    tiers: tuple[TierHealth, ...]

    @property
    def availability(self) -> float:
        """Fraction of queries answered (the service answers them all)."""
        return self.answered / self.queries if self.queries else 1.0

    @property
    def degraded_rate(self) -> float:
        """Fraction of queries served by a fallback tier."""
        return self.degraded / self.queries if self.queries else 0.0

    def to_text(self) -> str:
        """Monospace rendering for logs and demos."""
        lines = [
            f"queries={self.queries} availability={self.availability:.3f} "
            f"degraded={self.degraded} ({self.degraded_rate:.1%}) "
            f"shortcuts={self.shortcuts} last_resort={self.last_resort}"
        ]
        for t in self.tiers:
            fails = (
                " ".join(f"{k}={v}" for k, v in sorted(t.failures.items()))
                or "none"
            )
            lines.append(
                f"  [{t.state:9s}] {t.tier}: served={t.served}/{t.attempts} "
                f"sanitized={t.sanitized} trips={t.trips} "
                f"skipped(open={t.skipped_open}, deadline={t.skipped_deadline}) "
                f"{format_quantiles_ms(t.p50_ms, t.p99_ms)} failures: {fails}"
            )
        return "\n".join(lines)


@dataclass
class _TierStats:
    attempts: int = 0
    served: int = 0
    sanitized: int = 0
    guard_clamped: int = 0
    failures: Counter = field(default_factory=Counter)
    skipped_open: int = 0
    skipped_deadline: int = 0
    latencies: LatencyWindow = field(
        default_factory=lambda: LatencyWindow(maxlen=_LATENCY_WINDOW)
    )


class _Tier:
    """One link of the fallback chain: estimator + breaker + stats."""

    def __init__(
        self,
        name: str,
        estimator: CardinalityEstimator,
        breaker: CircuitBreaker,
    ) -> None:
        self.name = name
        self.estimator = estimator
        self.breaker = breaker
        self.stats = _TierStats()

    def health(self) -> TierHealth:
        return TierHealth(
            tier=self.name,
            state=self.breaker.state.value,
            attempts=self.stats.attempts,
            served=self.stats.served,
            sanitized=self.stats.sanitized,
            failures=dict(self.stats.failures),
            skipped_open=self.stats.skipped_open,
            skipped_deadline=self.stats.skipped_deadline,
            trips=self.breaker.trips,
            guard_clamped=self.stats.guard_clamped,
            p50_ms=self.stats.latencies.percentile_ms(50.0),
            p99_ms=self.stats.latencies.percentile_ms(99.0),
        )


#: the outcomes of :func:`screen_answers` that reject an answer: the
#: query falls through to the next tier (or the shard's fallback chain)
REJECTED = frozenset({"nan", "inf"})

#: help text of ``repro_guard_clamped_total`` (see :func:`count_guard_clamp`)
_GUARD_CLAMPED_HELP = "Estimates pulled into the provable bound interval"


def count_guard_clamp(registry: MetricsRegistry, reason: str) -> None:
    """Count one answer pulled into the guard's provable interval."""
    registry.counter(GUARD_CLAMPED, _GUARD_CLAMPED_HELP).inc(1, reason=reason)


def _outcome(raw: float, sane: bool, reason: str | None) -> str:
    if math.isnan(raw):
        return "nan"
    if math.isinf(raw):
        return "inf"
    if reason is not None:
        return "guard-clamped"
    return "served" if sane else "sanitized"


@dataclass  # not frozen: that __init__ costs ~2 µs on every serve miss
class ScreenedAnswers:
    """A tier's raw answers after sanitizing and the guard clamp."""

    #: the answers as the tier gave them
    raw: np.ndarray
    #: True where the raw answer already lay in ``[0, num_rows]``
    sane: np.ndarray
    #: raw answers clipped into ``[0, num_rows]`` (NaN where rejected)
    sanitized: np.ndarray
    #: sanitized answers clamped into the guard's provable interval
    served: np.ndarray
    #: the guard's violation reason per answer, or None
    reasons: list[str | None]
    #: per answer, in the ``attempts`` vocabulary: "served", "sanitized",
    #: "guard-clamped", or one of the :data:`REJECTED` "nan" / "inf"
    outcomes: list[str]

    def report(
        self, pos: int, events: EventLog, registry: MetricsRegistry, **fields
    ) -> None:
        """Emit the telemetry answer ``pos`` owes: a ``serve.sanitized``
        event when its raw value left ``[0, num_rows]``, and for a guard
        clamp the ``repro_guard_clamped_total{reason}`` count plus a
        ``guard.clamp`` event.  Both events carry the raw answer and
        ``fields`` (the tier, and the shard on the worker path)."""
        raw = float(self.raw[pos])
        if not self.sane[pos]:
            events.emit(
                "serve.sanitized",
                raw=raw,
                served=float(self.sanitized[pos]),
                **fields,
            )
        reason = self.reasons[pos]
        if reason is not None:
            count_guard_clamp(registry, reason)
            events.emit(
                "guard.clamp",
                raw=raw,
                served=float(self.served[pos]),
                reason=reason,
                **fields,
            )


def screen_answers(
    raw: np.ndarray, num_rows: int, queries: Sequence[Query], guard=None
) -> ScreenedAnswers:
    """The one judgement of model answers, shared by the service's chain
    walk and the shard's worker path: NaN/inf answers are rejected,
    finite ones are clipped into ``[0, num_rows]`` and then pulled into
    the guard's provable interval, one vectorized pass per batch.
    Callers branch on ``outcomes`` and report through
    :meth:`ScreenedAnswers.report`."""
    raw = np.asarray(raw, dtype=np.float64)
    sanitized = np.minimum(np.maximum(raw, 0.0), float(num_rows))
    # Rejected answers sanitize to NaN (a NaN raw answer already is):
    # no bound comparison holds on NaN, so the guard passes them through
    # unclamped and uncounted.
    sanitized[np.isinf(raw)] = np.nan
    sane = sanitized == raw
    served, reasons = sanitized, [None] * len(raw)
    if guard is not None:
        served, reasons = guard.clamp_many(queries, sanitized)
    return ScreenedAnswers(
        raw=raw,
        sane=sane,
        sanitized=sanitized,
        served=served,
        reasons=reasons,
        outcomes=list(map(_outcome, raw.tolist(), sane.tolist(), reasons)),
    )


class EstimatorService(CardinalityEstimator):
    """Serve estimates from a fallback chain of estimator tiers.

    ``tiers[0]`` is the primary (typically the learned model); later
    tiers are consulted in order when earlier ones fail.  Pre-fitted
    tiers are adopted as-is; otherwise call :meth:`fit` to fit the whole
    chain.
    """

    name = "service"

    def __init__(
        self,
        tiers: Sequence[CardinalityEstimator],
        *,
        deadline_ms: float | None = 100.0,
        breaker: BreakerConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
        registry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        cache: EstimateCache | int | None = None,
        slos: SloRegistry | None = None,
        exemplars: ExemplarStore | None = None,
        guard=None,
    ) -> None:
        super().__init__()
        if not tiers:
            raise ValueError("a service needs at least one tier")
        if deadline_ms is not None and deadline_ms <= 0.0:
            raise ValueError("deadline_ms must be positive (or None)")
        # Opt-in keyed estimate cache: an int is a capacity, an
        # EstimateCache is adopted as-is, None (default) disables it.
        self.cache = EstimateCache(cache) if isinstance(cache, int) else cache
        self._clock = clock
        self._deadline = None if deadline_ms is None else deadline_ms / 1000.0
        self.breaker_config = breaker or BreakerConfig()
        # Shared telemetry sinks: callers aggregating across services
        # pass their own; None means the process-wide defaults.
        self._registry = registry
        self._events = events
        self._slos = slos
        self._exemplars = exemplars
        #: optional repro.guard.EstimateGuard: provable bound clamping,
        #: OOD routing, and quarantine feedback (duck-typed so the serve
        #: layer stays import-free of repro.guard)
        self.guard = guard
        self._tiers: list[_Tier] = []
        seen: Counter = Counter()
        for est in tiers:
            seen[est.name] += 1
            label = est.name if seen[est.name] == 1 else f"{est.name}#{seen[est.name]}"
            self._tiers.append(
                _Tier(
                    label,
                    est,
                    CircuitBreaker(
                        self.breaker_config,
                        clock,
                        name=label,
                        events=events,
                        registry=registry,
                    ),
                )
            )
        self.name = f"serve({'->'.join(t.name for t in self._tiers)})"
        self.requires_workload = any(t.requires_workload for t in tiers)
        # Adopt the table of an already-fitted chain so the service can
        # answer immediately without a redundant refit.
        for est in tiers:
            try:
                self._table = est.table
                break
            except RuntimeError:
                continue
        #: (name, labels) -> (registry, BoundCounter): hot-path metric
        #: memoization; see :meth:`_bound_counter`
        self._counters: dict = {}
        self._queries = 0
        self._degraded = 0
        self._shortcuts = 0
        self._last_resort = 0
        #: Monotone counter bumped on every model replacement (update or
        #: lifecycle hot-swap); namespaces the estimate cache.
        self._generation = 0

    # ------------------------------------------------------------------
    # Estimator protocol
    # ------------------------------------------------------------------
    def _fit(self, table: Table, workload: Workload | None) -> None:
        for tier in self._tiers:
            tier.estimator.fit(
                table, workload if tier.estimator.requires_workload else None
            )
        if self.guard is not None:
            self.guard.fit(table, workload)

    def _update(self, table: Table, appended, workload: Workload | None) -> None:
        for tier in self._tiers:
            tier.estimator.update(
                table, appended, workload if tier.estimator.requires_workload else None
            )
        if self.guard is not None:
            self.guard.update(table, appended)
        # Model state changed; every cached estimate is stale.
        self._advance_generation()

    def _estimate(self, query: Query) -> float:
        return self.serve(query).estimate

    def _estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        return np.array(
            [s.estimate for s in self.serve_batch(queries)], dtype=np.float64
        )

    def model_size_bytes(self) -> int:
        return sum(t.estimator.model_size_bytes() for t in self._tiers)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, query: Query) -> ServedEstimate:
        """Answer one query through the chain; never raises, never NaN.

        A cache miss is served as a batch of one: the chain walk and the
        answer judgement are :meth:`serve_batch`'s.
        """
        # Raw-speed path: with no span collector installed the span
        # machinery can only ever yield None, so skip it entirely.  A
        # cache hit then costs single-digit microseconds — the whole
        # point of the fast-path tier — and a miss pays one extra
        # global read before the usual chain walk.
        if get_collector() is None:
            served = self._cached_answer(query)
            if served is None:
                served = self._serve_batch_inner([query])[0]
            return served
        with span("serve", service=self.name) as root:
            served = self._cached_answer(query, root.trace_id)
            if served is None:
                served = self._serve_batch_inner([query], root.trace_id)[0]
            root.attrs["tier"] = served.tier
            root.attrs["degraded"] = served.degraded
            return served

    def _cached_answer(
        self, query: Query, trace_id: int | None = None
    ) -> ServedEstimate | None:
        """Cache lookup; counts the query and the hit/miss metric.
        ``trace_id`` is the serving span's, carried by the answer."""
        if self.cache is None:
            return None
        start = self._clock()
        hit = self.cache.get(query)
        if hit is None:
            self._count_cache("miss")
            return None
        # A semantic cache distinguishes exact hits from subsumption
        # answers via ``last_hit_kind``; the plain LRU cache has no such
        # attribute and every hit is exact.
        kind = getattr(self.cache, "last_hit_kind", None) or "hit"
        self._count_cache(kind)
        self._queries += 1
        self._count_request("cache")
        return served_estimate(
            hit,
            "semantic-cache" if kind == "semantic_hit" else "cache",
            -1,
            False,
            self._clock() - start,
            _CACHE_ATTEMPTS,
            trace_id,
        )

    def serve_many(self, queries: Sequence[Query]) -> list[ServedEstimate]:
        """Serve a batch, one by one (the harness replay path)."""
        return [self.serve(q) for q in queries]

    # ------------------------------------------------------------------
    # Accuracy feedback
    # ------------------------------------------------------------------
    def record_actual(
        self,
        query: Query,
        served: ServedEstimate,
        actual: float,
        tenant: str = "default",
    ) -> float:
        """Feed back the true cardinality for an earlier estimate.

        The execution engine learns the real row count long after the
        estimate was served; calling this closes the loop: the q-error
        sample feeds the per-tenant accuracy SLO (breach detection) and,
        when bad enough, the worst-q-error exemplar board — carrying the
        serving span's ``trace_id`` so the bad estimate links straight
        to its trace.  Returns the q-error.
        """
        q = _qerror(served.estimate, actual)
        slos = self._slos if self._slos is not None else get_slos()
        slos.record_qerror(tenant, q)
        if self.guard is not None:
            # Quarantine watches the same feedback stream the SLOs do.
            self.guard.observe_qerror(tenant, q)
        exemplars = (
            self._exemplars if self._exemplars is not None else get_exemplars()
        )
        # OOD-rerouted answers are surfaced on the board under an
        # "ood->tier" label, so a drifting workload is attributable at a
        # glance.
        estimator_label = served.tier
        if ("guard", "ood-reroute") in served.attempts:
            estimator_label = f"ood->{served.tier}"
        if exemplars.would_record_qerror(tenant, q):
            exemplars.record_qerror(
                Exemplar(
                    tenant=tenant,
                    estimator=estimator_label,
                    query=repr(query),
                    estimate=served.estimate,
                    latency_seconds=served.latency_seconds,
                    actual=actual,
                    qerror=q,
                    trace_id=served.trace_id,
                )
            )
        return q

    def serve_batch(self, queries: Sequence[Query]) -> list[ServedEstimate]:
        """Serve a batch through each tier's batched hot path.

        Each query first probes the cache; the misses walk the chain
        together (see :meth:`_serve_batch_inner`).  Never raises; every
        query gets an answer.
        """
        queries = list(queries)
        with span("serve.batch", service=self.name, batch=len(queries)) as root:
            trace_id = None if root is None else root.trace_id
            results = [self._cached_answer(query, trace_id) for query in queries]
            misses = [i for i, served in enumerate(results) if served is None]
            walked = self._serve_batch_inner([queries[i] for i in misses], trace_id)
            for i, served in zip(misses, walked):
                results[i] = served
            return results  # type: ignore[return-value]

    def _serve_batch_inner(
        self, queries: Sequence[Query], trace_id: int | None = None
    ) -> list[ServedEstimate]:
        """The chain walk, for queries the cache did not answer.

        :meth:`serve` walks a batch of one, :meth:`serve_batch` its
        misses.  The walk is columnar: a batch of two or more is wrapped
        once in a :class:`~repro.core.query.QueryBatch`, whose arrays the rule
        shortcut, the guard's OOD and clamp passes and the tiers' batch
        kernels all read, and each tier gets an order-preserving
        ``take`` of it.  Every still-unanswered query goes to the
        current tier in one ``estimate_many`` call,
        :func:`screen_answers` judges the answers (NaN / inf /
        out-of-bounds / guard bound), and only the rejected queries
        fall through to the next tier.  A tier call that raises fails
        the whole sub-batch on that tier.  The bookkeeping runs once per
        (tier, sub-batch): latency samples (call wall-clock divided by
        sub-batch size, so attempt counts and latency-sample counts stay
        one-to-one), counters by distinct outcome, and the breaker's
        outcome sequence; per-query events are emitted only for OOD
        reroutes, rejections, clamps and fallbacks.  Every answer
        carries ``trace_id``, the serving span's.
        """
        table = self.table
        start = self._clock()
        # A batch of one stays a list: only its tier reads its arrays (the
        # rule and the guard take their scalar forms at B=1), and the
        # wrapper's Python-level len/getitem cost a serve() miss ~10 µs.
        batch = QueryBatch.of(queries) if len(queries) > 1 else queries
        n = len(batch)
        # A sub-batch of every query in order is the batch itself.
        everything = list(range(n))
        self._queries += n
        results: list[ServedEstimate | None] = [None] * n
        attempts: list[list[tuple[str, str]]] = [[] for _ in range(n)]
        # NaN marks a query the rules leave to the chain.
        trivial = trivial_answers(batch, table).tolist()
        pending = [i for i, value in enumerate(trivial) if value != value]
        if len(pending) < n:
            self._shortcuts += n - len(pending)
            self._count_request("shortcut", n - len(pending))
            latency = self._clock() - start
            for i, value in enumerate(trivial):
                if value == value:
                    results[i] = served_estimate(
                        value, "shortcut", -1, False, latency,
                        _SHORTCUT_ATTEMPTS, trace_id,
                    )

        # OOD queries skip the learned primary: the model never saw this
        # region of the query space, so a tier with bounded-by-design
        # error answers instead (unless the primary is the only tier).
        # Flagged queries are pulled out of the tier-0 sub-batch and
        # rejoin the walk at tier 1, after tier 0's rejects.
        events = self._obs_events()
        ood_carry: list[int] = []
        if self.guard is not None and len(self._tiers) > 1 and pending:
            flags = self.guard.is_ood_many(
                batch if pending == everything else batch.take(pending)
            ).tolist()
            ood_carry = [i for i, flag in zip(pending, flags) if flag]
            if ood_carry:
                pending = [i for i, flag in zip(pending, flags) if not flag]
                self._count_guard_ood(len(ood_carry))
                for i in ood_carry:
                    attempts[i].append(("guard", "ood-reroute"))
                    events.emit("guard.ood", service=self.name)
                self._note_attempts(self._tiers[0], ood_carry, attempts, "skipped-ood")

        last = len(self._tiers) - 1
        for index, tier in enumerate(self._tiers):
            if index == 1:
                pending += ood_carry
            if not pending:
                if index == 0:
                    continue  # rerouted queries rejoin at tier 1
                break
            k = len(pending)
            if not tier.breaker.allows_request():
                tier.stats.skipped_open += k
                self._note_attempts(tier, pending, attempts, "skipped-open")
                continue
            # The final tier is the designated cheap answer-of-last-model
            # and is exempt from the deadline: an aborted primary must
            # still degrade to *some* tier's estimate.
            if index < last and self._budget_spent(start):
                tier.stats.skipped_deadline += k
                self._note_attempts(tier, pending, attempts, "skipped-deadline")
                continue

            tier.stats.attempts += k
            with span("serve.tier", tier=tier.name, batch=k) as attempt_span:
                call_start = self._clock()
                sub = batch if pending == everything else batch.take(pending)
                try:
                    raw = np.asarray(
                        tier.estimator.estimate_many(sub), dtype=np.float64
                    )
                    failed = raw.shape != (k,)
                except Exception as exc:
                    events.emit(
                        "serve.tier_error",
                        tier=tier.name,
                        batch=k,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    failed = True
                self._record_latency(tier, (self._clock() - call_start) / k, k)
                # Answers that arrive too late are useless too: the
                # optimizer has moved on.  Discard and penalise the tier.
                if failed or (index < last and self._budget_spent(start)):
                    outcome = "exception" if failed else "timeout"
                    tier.stats.failures[outcome] += k
                    tier.breaker.record_outcomes([True] * k)
                    self._note_attempts(tier, pending, attempts, outcome, attempt_span)
                    continue

                judged = screen_answers(raw, table.num_rows, sub, self.guard)
                outcomes = judged.outcomes
                # A clamp counts against the tier like a rejection does.
                tier.breaker.record_outcomes([o != "served" for o in outcomes])
                if attempt_span is not None:
                    attempt_span.attrs["outcome"] = outcomes[-1]
                name = tier.name
                for outcome in dict.fromkeys(outcomes):
                    self._count_attempts(name, outcome, outcomes.count(outcome))
                accepted: list[int] = []
                still: list[int] = []
                for pos, i in enumerate(pending):
                    outcome = outcomes[pos]
                    attempts[i].append((name, outcome))
                    if outcome in REJECTED:
                        tier.stats.failures[outcome] += 1
                        events.emit("serve.nan", tier=name, infinite=outcome == "inf")
                        still.append(i)
                        continue
                    if outcome != "served":
                        # Finite but illogical, or past a provable bound:
                        # served clamped, counted against the tier.
                        if not judged.sane[pos]:
                            tier.stats.sanitized += 1
                        if judged.reasons[pos] is not None:
                            tier.stats.guard_clamped += 1
                        judged.report(pos, events, self._obs_registry(), tier=name)
                    accepted.append(pos)
                    if index > 0:
                        events.emit("serve.fallback", tier=name, tier_index=index)
                if accepted:
                    tier.stats.served += len(accepted)
                    if index > 0:
                        self._degraded += len(accepted)
                    self._count_request(
                        "primary" if index == 0 else "fallback", len(accepted)
                    )
                    values = judged.served.tolist()
                    latency = self._clock() - start
                    for pos in accepted:
                        i = pending[pos]
                        # Only chain answers are cached: a shortcut is
                        # cheaper than a probe, and a last-resort answer
                        # reflects a transient outage, not the model.
                        if self.cache is not None:
                            self.cache.put(queries[i], values[pos])
                        results[i] = served_estimate(
                            values[pos],
                            name,
                            index,
                            index > 0,
                            latency,
                            tuple(attempts[i]),
                            trace_id,
                        )
                pending = still

        for i in pending:
            # Every tier skipped or failed this query: emergency answer.
            self._last_resort += 1
            self._degraded += 1
            attempts[i].append(("last-resort", "served"))
            self._count_request("last-resort")
            events.emit("serve.last_resort", service=self.name)
            results[i] = served_estimate(
                self._last_resort_value(queries[i], table),
                "last-resort",
                len(self._tiers),
                True,
                self._clock() - start,
                tuple(attempts[i]),
                trace_id,
            )
        assert all(served is not None for served in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Model lifecycle (hot-swap)
    # ------------------------------------------------------------------
    @property
    def model_generation(self) -> int:
        """Counter of model replacements; cache keys carry it."""
        return self._generation

    def replace_tier(self, index: int, estimator: CardinalityEstimator) -> None:
        """Atomically swap the estimator behind one tier of the chain.

        The promotion path of :mod:`repro.lifecycle` calls this (via
        :meth:`replace_primary`) after a candidate passes the gate.  The
        old estimator keeps answering until the single reference
        assignment below, so there is no window where the chain has no
        tier ``index``; the tier gets a fresh breaker and fresh stats
        (the old model's failure history says nothing about the new
        one), the estimate cache is invalidated by bumping the model
        generation, and the service adopts the new estimator's table so
        bounds checks and trivial answers reflect the data it was
        trained on.
        """
        if not 0 <= index < len(self._tiers):
            raise IndexError(f"no tier {index}; chain has {len(self._tiers)}")
        old = self._tiers[index]
        self._tiers[index] = _Tier(
            estimator.name,
            estimator,
            CircuitBreaker(
                self.breaker_config,
                self._clock,
                name=estimator.name,
                events=self._events,
                registry=self._registry,
            ),
        )
        self.name = f"serve({'->'.join(t.name for t in self._tiers)})"
        try:
            self._table = estimator.table
        except RuntimeError:
            pass  # not fitted: caller is wiring a chain pre-fit
        generation = self._advance_generation()
        self._obs_events().emit(
            "serve.model_swap",
            tier_index=index,
            old=old.name,
            new=estimator.name,
            generation=generation,
        )

    def replace_primary(self, estimator: CardinalityEstimator) -> None:
        """Hot-swap the primary tier (see :meth:`replace_tier`)."""
        self.replace_tier(0, estimator)

    def _advance_generation(self) -> int:
        self._generation += 1
        if self.cache is not None:
            self.cache.bump_generation()
        return self._generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> ServiceHealth:
        """Point-in-time snapshot of service and per-tier counters."""
        return ServiceHealth(
            queries=self._queries,
            answered=self._queries,
            degraded=self._degraded,
            shortcuts=self._shortcuts,
            last_resort=self._last_resort,
            tiers=tuple(t.health() for t in self._tiers),
        )

    @property
    def tier_names(self) -> list[str]:
        return [t.name for t in self._tiers]

    @property
    def primary_estimator(self) -> CardinalityEstimator:
        """The estimator behind tier 0 (the lifecycle incumbent)."""
        return self._tiers[0].estimator

    def breaker_state(self, tier: str) -> BreakerState:
        """Current breaker state of the named tier."""
        for t in self._tiers:
            if t.name == tier:
                return t.breaker.state
        raise KeyError(f"no tier named {tier!r}; have {self.tier_names}")

    # ------------------------------------------------------------------
    def _budget_spent(self, start: float) -> bool:
        return self._deadline is not None and self._clock() - start > self._deadline

    def _last_resort_value(self, query: Query, table: Table) -> float:
        """The emergency answer, clamped into every bound we can prove."""
        if any(p.is_empty for p in query.predicates):
            return 0.0
        value = clamp_to_bounds(
            table.num_rows * LAST_RESORT_SELECTIVITY**query.num_predicates,
            table.num_rows,
        )
        if self.guard is not None:
            value, reason = self.guard.clamp(query, value)
            if reason is not None:
                count_guard_clamp(self._obs_registry(), reason)
        return value

    def _count_guard_ood(self, count: int) -> None:
        self._bound_counter(
            GUARD_OOD,
            "Out-of-distribution guard decisions",
            action="reroute",
        ).inc(count)

    # ------------------------------------------------------------------
    # Telemetry plumbing (shared sinks default to the process-wide ones)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Memoized counter handles point into a live registry (which
        # holds a lock); they are a cache, not state — rebuilt lazily.
        state = self.__dict__.copy()
        state["_counters"] = {}
        return state

    def _obs_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _bound_counter(self, name: str, help: str, **labels):
        """Memoized :class:`~repro.obs.BoundCounter` for the hot path.

        ``registry.counter(...).inc(**labels)`` pays a lock, a dict
        probe, per-label regex validation, and a sorted key build on
        every call; at cache-hit speeds that is a measurable slice of
        the budget.  The bound series does all of that once.  Counter
        objects survive ``registry.reset()`` (reset zeroes series, it
        does not drop metrics), so caching the handle is safe as long
        as the registry itself has not been swapped — which the
        identity check guards.
        """
        key = (name, tuple(sorted(labels.items())))
        registry = self._obs_registry()
        cached = self._counters.get(key)
        if cached is not None and cached[0] is registry:
            return cached[1]
        bound = registry.counter(name, help).labelled(**labels)
        self._counters[key] = (registry, bound)
        return bound

    def _obs_events(self) -> EventLog:
        return self._events if self._events is not None else get_events()

    def _record_latency(self, tier: _Tier, seconds: float, count: int) -> None:
        """``count`` latency samples of ``seconds`` (one per attempt)."""
        tier.stats.latencies.extend([seconds] * count)
        self._obs_registry().histogram(
            SERVE_TIER_SECONDS, "Per-tier serve-attempt latency"
        ).observe_many(seconds, count, tier=tier.name)

    def _count_request(self, outcome: str, count: int = 1) -> None:
        self._hot_inc(SERVE_REQUESTS, "Queries served, by outcome", outcome, count)

    def _count_cache(self, outcome: str) -> None:
        self._hot_inc(SERVE_CACHE, "Estimate-cache lookups, by outcome", outcome)

    def _hot_inc(self, name: str, help: str, outcome: str, count: int = 1) -> None:
        """Single-``outcome``-label bump without the kwargs/sort of
        :meth:`_bound_counter` key building (the cache-hit path runs
        this twice per query)."""
        key = (name, outcome)
        registry = self._obs_registry()
        cached = self._counters.get(key)
        if cached is not None and cached[0] is registry:
            cached[1].inc(count)
            return
        bound = registry.counter(name, help).labelled(outcome=outcome)
        self._counters[key] = (registry, bound)
        bound.inc(count)

    def _count_attempts(self, tier: str, outcome: str, count: int) -> None:
        self._bound_counter(
            SERVE_TIER_ATTEMPTS,
            "Tier attempt outcomes along the chain",
            tier=tier,
            outcome=outcome,
        ).inc(count)

    def _note_attempts(
        self,
        tier: _Tier,
        positions: list[int],
        attempts: list[list[tuple[str, str]]],
        outcome: str,
        attempt_span=None,
    ) -> None:
        """One ``outcome`` for every query at ``positions`` on ``tier``."""
        step = (tier.name, outcome)
        for i in positions:
            attempts[i].append(step)
        if attempt_span is not None:
            attempt_span.attrs["outcome"] = outcome
        self._count_attempts(tier.name, outcome, len(positions))
