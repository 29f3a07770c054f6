"""Sharded serving: consistent-hash routing over supervised worker pools.

The top of the :mod:`repro.shard` stack.  A :class:`ShardRouter` splits
million-query traffic across ``num_shards`` independent shards; each
:class:`Shard` owns

* a :class:`~repro.shard.supervisor.WorkerSupervisor` over forked
  workers that inherit the fitted model (the fast path),
* an :class:`~repro.shard.admission.AdmissionController` deciding who
  gets a worker slot and who sheds to the heuristic tier,
* an in-process :class:`~repro.serve.EstimatorService` fallback chain
  (the clean parent copy of the model, then the heuristics) that
  answers whenever the worker path cannot — corrupt worker results,
  dispatch failure, or a fully exhausted restart budget.

Every request admitted to the router gets an answer — worker, fallback,
or shed-to-heuristic — which is what the chaos matrix's availability
== 1.0 gate measures.

Rolling model swaps (:meth:`ShardRouter.rolling_swap`) are driven by
the :mod:`repro.lifecycle` promotion machinery: the candidate must pass
the :class:`~repro.lifecycle.gate.PromotionGate`, shards are swapped
one at a time, and a candidate that fails its post-swap probe is rolled
back shard-by-shard to the incumbent.  With the shared-memory transport
a swap is zero-copy: the router publishes the candidate **once** into
its :class:`~repro.shard.shm.ModelArena` and every shard's workers
attach read-only tensor views off that one segment — no drain, no
refork, and the model is never re-pickled to a live worker (the
``swap_stats["model_pickles"]`` counter asserts this).  Pools that
cannot live-swap (inline mode, pipe transport) fall back to the
original drain → ``replace_primary`` → refork path.

The router can also share one
:class:`~repro.fastpath.semantic.SemanticEstimateCache` across all its
shards: each shard probes a generation-namespaced slice of the shared
cache *before* worker dispatch, so a semantic hit skips the IPC round
trip entirely (counted under ``repro_fastpath_semantic_total{shard}``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Query
from ..fastpath.semantic import SemanticEstimateCache
from ..lifecycle.gate import GateReport, PromotionGate
from ..lifecycle.retrain import RetryPolicy
from ..obs import (
    FASTPATH_SEMANTIC,
    GUARD_CLAMPED,
    SHARD_REQUESTS,
    SHARD_SWAPS,
    EventLog,
    Exemplar,
    ExemplarStore,
    MetricsRegistry,
    SloRegistry,
    Span,
    end_span,
    get_events,
    get_exemplars,
    get_registry,
    get_slos,
    resume_span,
    start_span,
)
from ..rules.enforce import clamp_to_bounds, is_sane
from ..serve.heuristic import HeuristicConstantEstimator
from ..serve.service import EstimatorService, ServedEstimate
from .admission import AdmissionConfig, AdmissionController, ShardRequest
from .hashing import HashRing, routing_key
from .shm import ArenaError, ArenaGeneration, ModelArena
from .supervisor import DispatchTicket, WorkerSupervisor


#: rows of the estimator's table sampled into a semantic cache the router
#: builds itself (``semantic_cache=<capacity>``)
SEMANTIC_SAMPLE_ROWS = 512


class _SemanticShardView:
    """One shard's generation-namespaced slice of the shared cache.

    The shared :class:`SemanticEstimateCache` namespaces entries by its
    ``generation`` attribute, so interleaving shards on a single cache
    is just arithmetic: the view sets ``generation = epoch * num_shards
    + shard_index`` before every probe/put.  Shards never see each
    other's entries, and a shard-local model swap (:meth:`bump`)
    invalidates only that shard's slice.
    """

    def __init__(
        self, cache: SemanticEstimateCache, index: int, stride: int
    ) -> None:
        self.cache = cache
        self._index = index
        self._stride = stride
        self._epoch = 0

    def _focus(self) -> None:
        self.cache.generation = self._epoch * self._stride + self._index

    def get(self, query: Query) -> float | None:
        self._focus()
        return self.cache.get(query)

    def put(self, query: Query, estimate: float) -> None:
        self._focus()
        self.cache.put(query, estimate)

    @property
    def last_hit_kind(self) -> str | None:
        return self.cache.last_hit_kind

    def bump(self) -> None:
        """Roll this shard's slice to a fresh epoch after a model swap."""
        self._epoch += 1


@dataclass(frozen=True)
class RollingSwapReport:
    """Outcome of one rolling model swap across the shard fleet."""

    promoted: bool
    rolled_back: bool
    #: shards that were swapped (and stayed swapped, when promoted)
    swapped: tuple[str, ...] = ()
    gate_report: GateReport | None = None
    reason: str = ""


@dataclass
class ShardStats:
    """Per-shard serving counters (summed by ``ShardRouter.stats``)."""

    requests: int = 0
    worker_served: int = 0
    #: queries in worker replies the parent *accepted* (pre-validation);
    #: the parent-side quantity the merged per-worker serve counters sum
    #: to — unlike ``worker_served`` it still counts NaN-corrupted
    #: answers that the fallback chain re-served
    worker_answered: int = 0
    fallback_served: int = 0
    shed: int = 0
    redispatches: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)


@dataclass
class ShardBatch:
    """One shard's batch between :meth:`Shard.begin` and :meth:`Shard.finish`."""

    requests: list[ShardRequest]
    #: the batch's ``serve.batch`` span (None when tracing is off)
    root: Span | None
    #: answers by request position; ``begin`` fills the shed ones
    results: list[ServedEstimate | None]
    #: request positions sent to a worker, and the ticket carrying them
    worker: list[int] = field(default_factory=list)
    ticket: DispatchTicket | None = None
    #: request positions the in-process fallback chain answers
    fallback: list[int] = field(default_factory=list)

    @property
    def trace_id(self) -> int | None:
        return self.root.trace_id if self.root is not None else None


class Shard:
    """One shard: supervised worker pool + admission + fallback chain."""

    def __init__(
        self,
        name: str,
        estimator: CardinalityEstimator,
        fallback_tiers: Sequence[CardinalityEstimator],
        *,
        worker_estimator: CardinalityEstimator | None = None,
        num_workers: int = 1,
        admission: AdmissionConfig | None = None,
        policy: RetryPolicy | None = None,
        mode: str = "auto",
        transport: str = "auto",
        arena: ModelArena | None = None,
        semantic_view: _SemanticShardView | None = None,
        request_timeout_seconds: float = 5.0,
        heartbeat_timeout_seconds: float = 1.0,
        seed: int = 0,
        cache_capacity: int | None = None,
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
        telemetry: bool = True,
        slos: SloRegistry | None = None,
        exemplars: ExemplarStore | None = None,
        guard=None,
    ) -> None:
        self.name = name
        self.estimator = estimator
        self.table = estimator.table  # raises if unfitted, by design
        self._fallback_tiers = list(fallback_tiers)
        self.guard = guard
        self._events = events
        self._registry = registry
        self.telemetry = telemetry
        self._slos = slos
        self._exemplars = exemplars
        self._num_workers = num_workers
        self._mode = mode
        self._transport = transport
        self._arena = arena
        self.semantic_view = semantic_view
        self._policy = policy
        self._timeouts = (request_timeout_seconds, heartbeat_timeout_seconds)
        self._seed = seed
        self._cache_capacity = cache_capacity
        #: swap-path counters, persistent across supervisor replacement.
        #: ``model_pickles`` counts model re-serializations sent to a
        #: *live* worker — zero by construction on both swap paths (the
        #: arena path ships a control frame, the refork path inherits
        #: the model through fork memory); the chaos matrix asserts it.
        self.swap_stats = {
            "arena_swaps": 0,
            "refork_swaps": 0,
            "model_pickles": 0,
        }
        #: the estimator forked into workers; may be a fault wrapper
        #: around ``estimator`` so chaos lives only in worker processes
        self.worker_estimator = worker_estimator or estimator
        # In-process fallback chain: the *clean* parent model first,
        # then the caller's degradation tiers.  Per-shard instance so
        # breakers, cache generations and stats stay shard-local.
        self.fallback_service = EstimatorService(
            [estimator, *self._fallback_tiers],
            deadline_ms=None,
            cache=cache_capacity,
            events=events,
            registry=registry,
            slos=slos,
            exemplars=exemplars,
            guard=guard,
        )
        # Shed answers come straight from the magic-constant tier: it
        # cannot fail and costs microseconds, which is the whole point
        # of shedding.
        self._shed_estimator = HeuristicConstantEstimator()
        self._shed_estimator.fit(self.table)
        self.admission = AdmissionController(
            admission, shard=name, events=events, registry=registry
        )
        self.supervisor = self._make_supervisor(self.worker_estimator)
        self.fallback_mode = False
        self.stats = ShardStats()

    def _make_supervisor(
        self, estimator: CardinalityEstimator
    ) -> WorkerSupervisor:
        request_timeout, heartbeat_timeout = self._timeouts
        return WorkerSupervisor(
            self.name,
            estimator,
            self._num_workers,
            policy=self._policy,
            request_timeout_seconds=request_timeout,
            heartbeat_timeout_seconds=heartbeat_timeout,
            mode=self._mode,
            transport=self._transport,
            arena=self._arena,
            seed=self._seed,
            events=self._events,
            registry=self._registry,
            telemetry=self.telemetry,
        )

    def start(self) -> None:
        self.supervisor.start()

    def drain(self) -> None:
        self.supervisor.drain()

    # ------------------------------------------------------------------
    def serve_batch(self, requests: list[ShardRequest]) -> list[ServedEstimate]:
        """Answer every request: worker path, fallback chain, or shed."""
        return self.finish(self.begin(requests))

    def begin(self, requests: list[ShardRequest]) -> ShardBatch:
        """First half of :meth:`serve_batch`: decide, then send.

        Admission sheds what it must (shed answers come from the
        heuristic tier right here), the guard's domain snapshot splits
        off out-of-distribution queries, and the rest is submitted to a
        worker without waiting for the answer.  Out-of-distribution
        queries never reach the worker path: :meth:`finish` serves them
        from the in-process fallback chain, whose own guard hook skips
        the learned primary (the chain owns the reroute telemetry, so
        the split here stays silent to avoid double counting).

        The batch runs under a ``serve.batch`` span that is opened here
        and closed by :meth:`finish`.  It is never left on the span
        stack in between, so the router can begin several shards before
        finishing any and their spans stay siblings.  The span's
        ``(trace_id, span_id)`` ride the worker request envelope, so
        worker-originated spans re-parent under it in the merged trace.
        """
        root = start_span("serve.batch", shard=self.name, batch=len(requests))
        batch = ShardBatch(requests, root, [None] * len(requests))
        try:
            with resume_span(root):
                self._begin(batch)
        except BaseException:
            end_span(root)
            raise
        return batch

    def _begin(self, batch: ShardBatch) -> None:
        requests, results = batch.requests, batch.results
        trace_id = batch.trace_id
        decision = self.admission.admit(requests)
        if decision.shed:
            shed_queries = [requests[i].query for i, _ in decision.shed]
            values = self._shed_estimator.estimate_many(shed_queries)
            for (index, reason), value in zip(decision.shed, values):
                results[index] = ServedEstimate(
                    estimate=float(value),
                    tier="shed:heuristic",
                    tier_index=-1,
                    degraded=True,
                    latency_seconds=0.0,
                    attempts=(("admission", f"shed-{reason}"),),
                    trace_id=trace_id,
                )
            self.stats.shed += len(decision.shed)
            for reason, count in decision.shed_reasons.items():
                self.stats.shed_reasons[reason] = (
                    self.stats.shed_reasons.get(reason, 0) + count
                )

        admitted = list(decision.admitted)
        if self.fallback_mode:
            batch.fallback = admitted
            return
        if self.guard is not None:
            keep = []
            for i in admitted:
                verdict = self.guard.ood_verdict(requests[i].query)
                if verdict is not None and verdict.is_ood:
                    batch.fallback.append(i)
                else:
                    keep.append(i)
            admitted = keep
        if admitted:
            batch.worker = admitted
            root = batch.root
            batch.ticket = self.supervisor.submit(
                [requests[i].query for i in admitted],
                (root.trace_id, root.span_id) if root is not None else None,
            )

    def finish(self, batch: ShardBatch) -> list[ServedEstimate]:
        """Second half of :meth:`serve_batch`: wait, validate, fall back.

        Collects the worker's answer, accepts the sane values, and
        serves everything the worker path did not answer — the
        out-of-distribution split, non-finite answers, or the whole
        batch after a failed dispatch — from the in-process fallback
        chain.  Per-request latencies feed the per-tenant SLO engine and
        the slowest-estimate exemplar board.
        """
        try:
            with resume_span(batch.root):
                self._finish(batch)
        finally:
            end_span(batch.root)
        assert all(r is not None for r in batch.results)
        return batch.results  # type: ignore[return-value]

    def _finish(self, batch: ShardBatch) -> None:
        requests, results = batch.requests, batch.results
        if batch.ticket is not None:
            dispatch = self.supervisor.collect(batch.ticket)
            if dispatch.attempts > 1:
                self.stats.redispatches += dispatch.attempts - 1
            if dispatch.values is not None:
                self.stats.worker_answered += len(batch.worker)
                self.admission.observe_service(len(batch.worker), dispatch.seconds)
                self._validate_worker_values(batch, dispatch.values, dispatch.seconds)
            else:
                batch.fallback.extend(batch.worker)
                if self.supervisor.exhausted:
                    # Restart budget spent everywhere: stop paying the
                    # dispatch tax and serve in-process from here on.
                    self.fallback_mode = True
                    self._obs_events().emit("shard.fallback_mode", shard=self.name)
        if batch.fallback:
            fallback = sorted(batch.fallback)
            served = self.fallback_service.serve_batch(
                [requests[i].query for i in fallback]
            )
            for i, answer in zip(fallback, served):
                results[i] = answer
            self.stats.fallback_served += len(fallback)

        self.stats.requests += len(requests)
        self._obs_registry().counter(
            SHARD_REQUESTS, "Requests served, by path"
        ).inc(len(requests), shard=self.name, path="total")
        self._observe_slo(requests, results)

    def _observe_slo(
        self,
        requests: list[ShardRequest],
        results: list[ServedEstimate | None],
    ) -> None:
        """Feed per-tenant latency SLOs and the slowest-exemplar board."""
        slos = self._slos if self._slos is not None else get_slos()
        exemplars = (
            self._exemplars if self._exemplars is not None else get_exemplars()
        )
        for request, served in zip(requests, results):
            slos.record_latency(request.tenant, served.latency_seconds)
            if exemplars.would_record_latency(
                request.tenant, served.latency_seconds
            ):
                exemplars.record_latency(
                    Exemplar(
                        tenant=request.tenant,
                        estimator=served.tier,
                        query=repr(request.query),
                        estimate=served.estimate,
                        latency_seconds=served.latency_seconds,
                        trace_id=served.trace_id,
                    )
                )

    def _validate_worker_values(
        self, batch: ShardBatch, values: np.ndarray, seconds: float
    ) -> None:
        """Accept sane worker answers; queue the rest for the fallback.

        Finite but out-of-bounds values are clamped exactly like the
        serving chain's "sanitized" outcome (raw model estimates may
        legitimately overshoot the row count by a little), then pulled
        into the guard's provable per-query interval when a guard is
        installed.  NaN/inf — the signature of a corrupted worker model
        — sends those queries to the parent's clean fallback chain
        instead of surfacing garbage to the optimizer.
        """
        num_rows = self.table.num_rows
        latency = seconds / max(len(batch.worker), 1)
        bad = 0
        for i, raw in zip(batch.worker, values):
            value = float(raw)
            if math.isfinite(value):
                outcome = "served"
                if not is_sane(value, num_rows):
                    value = clamp_to_bounds(value, num_rows)
                    outcome = "sanitized"
                if self.guard is not None:
                    clamped, reason = self.guard.clamp(
                        batch.requests[i].query, value
                    )
                    if reason is not None:
                        self._obs_registry().counter(
                            GUARD_CLAMPED,
                            "Estimates clamped to provable bounds",
                        ).inc(1, reason=reason)
                        self._obs_events().emit(
                            "guard.clamp",
                            shard=self.name,
                            tier="worker",
                            raw=value,
                            served=clamped,
                            reason=reason,
                        )
                        value = clamped
                        outcome = "guard-clamped"
                batch.results[i] = ServedEstimate(
                    estimate=value,
                    tier="worker",
                    tier_index=0,
                    degraded=False,
                    latency_seconds=latency,
                    attempts=(("worker", outcome),),
                    trace_id=batch.trace_id,
                )
            else:
                batch.fallback.append(i)
                bad += 1
        if bad:
            self._obs_events().emit(
                "shard.worker_invalid",
                shard=self.name,
                batch=len(batch.worker),
                invalid=bad,
            )
        self.stats.worker_served += len(batch.worker) - bad

    # ------------------------------------------------------------------
    def swap_model(
        self,
        candidate: CardinalityEstimator,
        *,
        generation: ArenaGeneration | None = None,
    ) -> None:
        """Hot-swap this shard to ``candidate``, zero-copy when possible.

        The live path publishes nothing and reforks nothing: the
        supervisor points its running workers at an arena generation
        (pre-published by the router, or published here) with a tiny
        control frame.  Pools that cannot live-swap — inline mode, pipe
        transport, a drained supervisor — fall back to the original
        drain → refork path.  Either way ``replace_primary`` bumps the
        shard's cache generation (no stale estimate from the old model
        can be served under the new one) and the shard's semantic-cache
        slice rolls to a fresh epoch.
        """
        if self.supervisor.swap_model(candidate, generation=generation):
            self.swap_stats["arena_swaps"] += 1
        else:
            self.supervisor.drain()
            self.supervisor = self._make_supervisor(candidate)
            self.supervisor.start()
            self.swap_stats["refork_swaps"] += 1
        self.fallback_service.replace_primary(candidate)
        self.estimator = candidate
        self.fallback_mode = False
        if self.semantic_view is not None:
            self.semantic_view.bump()

    def probe(self, queries: Sequence[Query]) -> bool:
        """Post-swap smoke check: do the new workers answer servably?

        Judged the way serving judges a worker answer: a failed dispatch
        or a non-finite value fails the probe, while a finite value out
        of ``[0, num_rows]`` passes — serving clamps it and serves it as
        "sanitized".
        """
        dispatch = self.supervisor.dispatch(list(queries))
        if dispatch.values is None:
            return False
        # probes are accepted worker replies too: count them so the
        # merged per-worker serve counters still sum to worker_answered
        self.stats.worker_answered += len(queries)
        return bool(np.all(np.isfinite(dispatch.values)))

    def _obs_events(self) -> EventLog:
        return self._events if self._events is not None else get_events()

    def _obs_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()


class ShardRouter:
    """Route requests to shards by consistent hash; swap models safely."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        fallback_tiers: Sequence[CardinalityEstimator],
        *,
        num_shards: int = 4,
        workers_per_shard: int = 1,
        worker_estimator: CardinalityEstimator | None = None,
        admission: AdmissionConfig | None = None,
        policy: RetryPolicy | None = None,
        mode: str = "auto",
        transport: str = "auto",
        semantic_cache: SemanticEstimateCache | int | None = None,
        request_timeout_seconds: float = 5.0,
        heartbeat_timeout_seconds: float = 1.0,
        ring_replicas: int = 64,
        seed: int = 0,
        cache_capacity: int | None = None,
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
        telemetry: bool = True,
        slos: SloRegistry | None = None,
        exemplars: ExemplarStore | None = None,
        guard=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.estimator = estimator
        self.guard = guard
        self._events = events
        self._registry = registry
        self.telemetry = telemetry
        self._slos = slos
        self._exemplars = exemplars
        self.transport = transport
        #: one arena for the whole fleet: ``rolling_swap`` publishes a
        #: candidate once and every shard's workers attach the same
        #: segment.  Construction allocates nothing until the first
        #: publish, so pipe/inline configurations pay nothing for it.
        self.arena = ModelArena()
        if isinstance(semantic_cache, int):
            # A row sample makes semantic hits interpolate empirically
            # (skew-aware) instead of by interval width.
            table = estimator.table
            rows = np.random.default_rng(seed).choice(
                table.num_rows,
                size=min(SEMANTIC_SAMPLE_ROWS, table.num_rows),
                replace=False,
            )
            semantic_cache = SemanticEstimateCache(
                semantic_cache, sample=table.data[rows]
            )
        self.semantic_cache = semantic_cache
        self._semantic_views: dict[str, _SemanticShardView] = {}
        self.shards: dict[str, Shard] = {}
        for i in range(num_shards):
            name = f"shard-{i}"
            view = (
                _SemanticShardView(semantic_cache, i, num_shards)
                if semantic_cache is not None
                else None
            )
            if view is not None:
                self._semantic_views[name] = view
            self.shards[name] = Shard(
                name,
                estimator,
                fallback_tiers,
                worker_estimator=worker_estimator,
                num_workers=workers_per_shard,
                admission=admission,
                policy=policy,
                mode=mode,
                transport=transport,
                arena=self.arena,
                semantic_view=view,
                request_timeout_seconds=request_timeout_seconds,
                heartbeat_timeout_seconds=heartbeat_timeout_seconds,
                seed=seed + i,
                cache_capacity=cache_capacity,
                events=events,
                registry=registry,
                telemetry=telemetry,
                slos=slos,
                exemplars=exemplars,
                guard=guard,
            )
        self.ring = HashRing(self.shards, replicas=ring_replicas)
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        for shard in self.shards.values():
            shard.start()
        self.started = True

    def drain(self) -> None:
        for shard in self.shards.values():
            shard.drain()
        # Shard supervisors released their generation refs above; close
        # unlinks whatever segments remain so /dev/shm ends empty.
        self.arena.close()
        self.started = False

    def __enter__(self) -> "ShardRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    def check_health(self) -> None:
        for shard in self.shards.values():
            shard.supervisor.check_health()

    # ------------------------------------------------------------------
    def route(self, request: ShardRequest) -> str:
        """Name of the shard owning ``request`` (stable across runs)."""
        return self.ring.node_for(routing_key(request))

    def serve_batch(self, requests: Sequence[ShardRequest]) -> list[ServedEstimate]:
        """Answer a request batch, preserving input order.

        Scatter/gather: every shard's sub-batch is sent (:meth:`Shard.begin`)
        before any reply is awaited, then each shard is finished
        (:meth:`Shard.finish`) in the same order.  The parent prepares
        shard *k+1* while worker *k* computes, and the workers of
        different shards compute at the same time.  Re-dispatch after a
        worker crash or hang stays inside one shard's ``finish``.
        """
        requests = list(requests)
        by_shard: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            by_shard.setdefault(self.route(request), []).append(index)
        results: list[ServedEstimate | None] = [None] * len(requests)
        in_flight: list[tuple[Shard, list[int], ShardBatch]] = []
        try:
            for name, indices in by_shard.items():
                pending = self._probe_semantic(name, indices, requests, results)
                if pending:
                    shard = self.shards[name]
                    batch = shard.begin([requests[i] for i in pending])
                    in_flight.append((shard, pending, batch))
        finally:
            # Gather even when a later shard's begin raised, so no batch
            # already sent is left with its reply (and ring slot) unread.
            for shard, pending, batch in in_flight:
                view = self._semantic_views.get(shard.name)
                for index, served in zip(pending, shard.finish(batch)):
                    results[index] = served
                    if view is not None and not served.degraded:
                        view.put(requests[index].query, served.estimate)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _probe_semantic(
        self,
        name: str,
        indices: list[int],
        requests: list[ShardRequest],
        results: list[ServedEstimate | None],
    ) -> list[int]:
        """Answer cache hits in place; return the indices still pending.

        The shared semantic cache is probed before dispatch: an exact or
        semantic hit skips the worker IPC round trip.
        """
        view = self._semantic_views.get(name)
        if view is None:
            return indices
        pending = []
        counter = self._obs_registry().counter(
            FASTPATH_SEMANTIC,
            "Shared semantic-cache probes before shard dispatch",
        )
        for index in indices:
            value = view.get(requests[index].query)
            if value is None:
                counter.inc(shard=name, outcome="miss")
                pending.append(index)
                continue
            kind = view.last_hit_kind or "hit"
            counter.inc(shard=name, outcome=kind)
            results[index] = ServedEstimate(
                estimate=float(value),
                tier="semantic-cache",
                tier_index=-1,
                degraded=False,
                latency_seconds=0.0,
                attempts=(("semantic-cache", kind),),
                trace_id=None,
            )
        return pending

    def serve_queries(self, queries: Sequence[Query]) -> list[ServedEstimate]:
        """Convenience: serve plain queries with default metadata."""
        return self.serve_batch([ShardRequest(query=q) for q in queries])

    def record_actual(
        self,
        request: ShardRequest,
        served: ServedEstimate,
        actual: float,
    ) -> float:
        """Feed back the true cardinality for an earlier served estimate.

        Routes the q-error sample to the owning shard's fallback
        service, which updates the tenant's accuracy SLO and the
        worst-q-error exemplar board.  Returns the q-error.
        """
        shard = self.shards[self.route(request)]
        return shard.fallback_service.record_actual(
            request.query, served, actual, tenant=request.tenant
        )

    # ------------------------------------------------------------------
    def rolling_swap(
        self,
        candidate: CardinalityEstimator,
        *,
        gate: PromotionGate | None = None,
        probe_queries: Sequence[Query] | None = None,
    ) -> RollingSwapReport:
        """Swap every shard to ``candidate``, one shard at a time.

        The gate judges the candidate *before* any shard is touched (a
        rejected candidate never serves a single query).  Each swapped
        shard is probed; a probe failure rolls the already-swapped
        shards back to the incumbent and reports the swap as failed.
        """
        incumbent = self.estimator
        gate_report: GateReport | None = None
        if gate is not None:
            table = next(iter(self.shards.values())).table
            gate_report = gate.evaluate(candidate, incumbent, table)
            if not gate_report.passed:
                self._obs_events().emit(
                    "shard.swap_rejected",
                    reasons=list(gate_report.reasons),
                )
                self._count_swap("rejected")
                return RollingSwapReport(
                    promoted=False,
                    rolled_back=False,
                    gate_report=gate_report,
                    reason="gate rejected candidate",
                )
        if probe_queries is None and gate is not None:
            probe_queries = gate.validation_queries[:8]

        swapped: list[str] = []
        # One publish for the whole fleet: every live-swapping shard
        # attaches the same segment.  ``None`` (pipe transport, inline
        # mode, not started) lets each shard take its refork path.
        generation = self._publish_generation(candidate)
        for name, shard in self.shards.items():
            shard.swap_model(candidate, generation=generation)
            if probe_queries is not None and not shard.probe(probe_queries):
                # Roll back this shard and every previously swapped one.
                rollback_generation = self._publish_generation(incumbent)
                for back in [*swapped, name]:
                    self.shards[back].swap_model(
                        incumbent, generation=rollback_generation
                    )
                self._obs_events().emit(
                    "shard.swap_rollback", failed_shard=name, swapped=swapped
                )
                self._count_swap("rolled_back")
                return RollingSwapReport(
                    promoted=False,
                    rolled_back=True,
                    swapped=tuple(swapped),
                    gate_report=gate_report,
                    reason=f"post-swap probe failed on {name}",
                )
            swapped.append(name)
            self._obs_events().emit("shard.swap_shard", shard=name)
        self.estimator = candidate
        self._obs_events().emit("shard.swap_promoted", shards=len(swapped))
        self._count_swap("promoted")
        return RollingSwapReport(
            promoted=True,
            rolled_back=False,
            swapped=tuple(swapped),
            gate_report=gate_report,
            reason="promoted",
        )

    def _publish_generation(
        self, model: CardinalityEstimator
    ) -> ArenaGeneration | None:
        """Publish ``model`` once for the fleet, when a live swap can use it.

        Returns ``None`` when no shard could attach it anyway (pipe
        transport, inline mode, supervisors not started) or when shared
        memory is unavailable — every shard then reforks as before.
        """
        sup = next(iter(self.shards.values())).supervisor
        if not (sup.started and sup.mode == "fork" and sup.transport == "shm"):
            return None
        try:
            return self.arena.publish(model)
        except ArenaError:
            return None

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, ShardStats]:
        return {name: shard.stats for name, shard in self.shards.items()}

    def swap_stats(self) -> dict[str, int]:
        """Fleet-wide swap-path counters (summed over shards)."""
        total = {"arena_swaps": 0, "refork_swaps": 0, "model_pickles": 0}
        for shard in self.shards.values():
            for key, value in shard.swap_stats.items():
                total[key] += value
        return total

    def totals(self) -> ShardStats:
        total = ShardStats()
        for stats in self.stats().values():
            total.requests += stats.requests
            total.worker_served += stats.worker_served
            total.worker_answered += stats.worker_answered
            total.fallback_served += stats.fallback_served
            total.shed += stats.shed
            total.redispatches += stats.redispatches
            for reason, count in stats.shed_reasons.items():
                total.shed_reasons[reason] = (
                    total.shed_reasons.get(reason, 0) + count
                )
        return total

    def _count_swap(self, outcome: str) -> None:
        self._obs_registry().counter(
            SHARD_SWAPS, "Rolling model swaps, by outcome"
        ).inc(outcome=outcome)

    def _obs_events(self) -> EventLog:
        return self._events if self._events is not None else get_events()

    def _obs_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

