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
back shard-by-shard to the incumbent.  A swap of forked shards is
zero-copy: the router publishes the candidate **once** into its
:class:`~repro.shard.shm.ModelArena` and every shard's workers attach
read-only tensor views off that one segment — no drain, no new
processes, and the model is never pickled over a pipe.  A candidate the
arena cannot publish is not promoted and touches no shard.  Inline and
not-started pools simply adopt the candidate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Query
from ..lifecycle.gate import GateReport, PromotionGate
from ..lifecycle.retrain import RetryPolicy
from ..obs import (
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
from ..serve.heuristic import HeuristicConstantEstimator
from ..serve.service import (
    REJECTED,
    EstimatorService,
    ServedEstimate,
    screen_answers,
    served_estimate,
)
from .admission import AdmissionConfig, AdmissionController, ShardRequest
from .hashing import HashRing, routing_key
from .shm import ArenaError, ArenaGeneration, ModelArena
from .supervisor import DispatchTicket, WorkerSupervisor


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
        arena: ModelArena | None = None,
        request_timeout_seconds: float = 5.0,
        seed: int = 0,
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
        self.guard = guard
        self._events = events
        self._registry = registry
        self._slos = slos
        self._exemplars = exemplars
        #: swaps whose live workers attached an arena generation
        self.arena_swaps = 0
        #: the estimator forked into workers; may be a fault wrapper
        #: around ``estimator`` so chaos lives only in worker processes
        self.worker_estimator = worker_estimator or estimator
        # In-process fallback chain: the *clean* parent model first,
        # then the caller's degradation tiers.  Per-shard instance so
        # breakers and stats stay shard-local.
        self.fallback_service = EstimatorService(
            [estimator, *fallback_tiers],
            deadline_ms=None,
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
        self.supervisor = WorkerSupervisor(
            name,
            self.worker_estimator,
            num_workers,
            policy=policy,
            request_timeout_seconds=request_timeout_seconds,
            mode=mode,
            arena=arena,
            seed=seed,
            events=events,
            registry=registry,
            telemetry=telemetry,
        )
        self.fallback_mode = False
        self.stats = ShardStats()

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
                results[index] = served_estimate(
                    float(value),
                    "shed:heuristic",
                    -1,
                    True,
                    0.0,
                    (("admission", f"shed-{reason}"),),
                    trace_id,
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
        if self.guard is not None and admitted:
            flags = self.guard.ood_flags([requests[i].query for i in admitted])
            batch.fallback.extend(i for i, flag in zip(admitted, flags) if flag)
            admitted = [i for i, flag in zip(admitted, flags) if not flag]
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
        """Judge worker answers exactly like the serving chain does
        (:func:`~repro.serve.service.screen_answers`): finite answers are
        served, sanitized into ``[0, num_rows]`` and guard-clamped as
        needed; NaN/inf — the signature of a corrupted worker model —
        sends those queries to the parent's clean fallback chain."""
        latency = seconds / max(len(batch.worker), 1)
        judged = screen_answers(
            values,
            self.table.num_rows,
            [batch.requests[i].query for i in batch.worker],
            self.guard,
        )
        events, registry = self._obs_events(), self._obs_registry()
        bad = 0
        for pos, i in enumerate(batch.worker):
            outcome = judged.outcomes[pos]
            if outcome in REJECTED:
                batch.fallback.append(i)
                bad += 1
                continue
            if outcome != "served":
                judged.report(pos, events, registry, shard=self.name, tier="worker")
            batch.results[i] = served_estimate(
                float(judged.served[pos]),
                "worker",
                0,
                False,
                latency,
                (("worker", outcome),),
                batch.trace_id,
            )
        if bad:
            events.emit(
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
        """Hot-swap this shard to ``candidate``; never raises.

        The supervisor points its running workers at an arena generation
        (pre-published by the router, or published by the supervisor)
        with a tiny control frame; an inline or not-started pool just
        adopts the candidate, and ``replace_primary`` puts it at the
        front of the shard's fallback chain.
        """
        if self.supervisor.swap_model(candidate, generation=generation):
            self.arena_swaps += 1
        self.fallback_service.replace_primary(candidate)
        self.estimator = candidate
        self.fallback_mode = False

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
        transport: str = "shm",
        request_timeout_seconds: float = 5.0,
        seed: int = 0,
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
        telemetry: bool = True,
        slos: SloRegistry | None = None,
        exemplars: ExemplarStore | None = None,
        guard=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if transport != "shm":
            # the shm ring is the only data plane; the argument remains
            # so callers that name it keep working
            raise ValueError(f"unknown transport {transport!r}; use shm")
        self.estimator = estimator
        self.guard = guard
        self._events = events
        self._registry = registry
        self._slos = slos
        self._exemplars = exemplars
        #: one arena for the whole fleet: ``rolling_swap`` publishes a
        #: candidate once and every shard's workers attach the same
        #: segment.  Construction allocates nothing until the first
        #: publish, so inline configurations pay nothing for it.
        self.arena = ModelArena()
        self.shards: dict[str, Shard] = {}
        for i in range(num_shards):
            name = f"shard-{i}"
            self.shards[name] = Shard(
                name,
                estimator,
                fallback_tiers,
                worker_estimator=worker_estimator,
                num_workers=workers_per_shard,
                admission=admission,
                policy=policy,
                mode=mode,
                arena=self.arena,
                request_timeout_seconds=request_timeout_seconds,
                seed=seed + i,
                events=events,
                registry=registry,
                telemetry=telemetry,
                slos=slos,
                exemplars=exemplars,
                guard=guard,
            )
        self.ring = HashRing(self.shards)
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
                shard = self.shards[name]
                batch = shard.begin([requests[i] for i in indices])
                in_flight.append((shard, indices, batch))
        finally:
            # Gather even when a later shard's begin raised, so no batch
            # already sent is left with its reply (and ring slot) unread.
            for shard, indices, batch in in_flight:
                for index, served in zip(indices, shard.finish(batch)):
                    results[index] = served
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

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

        try:
            # One publish for the whole fleet: every shard's workers
            # attach the same segment.
            generation = self._publish(candidate)
        except ArenaError as exc:
            self._obs_events().emit("shard.swap_publish_failed", error=str(exc))
            self._count_swap("publish_failed")
            return RollingSwapReport(
                promoted=False,
                rolled_back=False,
                gate_report=gate_report,
                reason=f"arena publish failed: {exc}",
            )
        swapped: list[str] = []
        for name, shard in self.shards.items():
            shard.swap_model(candidate, generation=generation)
            if probe_queries is not None and not shard.probe(probe_queries):
                self._roll_back(incumbent, [*swapped, name])
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

    def _publish(self, model: CardinalityEstimator) -> ArenaGeneration | None:
        """Publish ``model`` once for the fleet; None when no shard has
        live forked workers to attach it (inline or not started)."""
        sup = next(iter(self.shards.values())).supervisor
        if not (sup.started and sup.mode == "fork"):
            return None
        return self.arena.publish(model)

    def _roll_back(self, incumbent: CardinalityEstimator, names: list[str]) -> None:
        """Swap ``names`` back to the incumbent.

        When the incumbent cannot be published, each shard's supervisor
        tries its own publish and, failing that too, fails its live
        workers — their restarts fork the incumbent from parent memory.
        """
        try:
            generation = self._publish(incumbent)
        except ArenaError as exc:
            self._obs_events().emit("shard.swap_publish_failed", error=str(exc))
            generation = None
        for name in names:
            self.shards[name].swap_model(incumbent, generation=generation)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, ShardStats]:
        return {name: shard.stats for name, shard in self.shards.items()}

    def swap_stats(self) -> dict[str, int]:
        """Fleet-wide swap counters.

        ``arena_swaps`` sums the shards' arena swaps.  ``model_pickles``
        is constant 0: a worker gets its model through fork memory or an
        arena attach, and lint rule 7 keeps any other payload off the
        pipes.  It stays for readers of the counter set.
        """
        return {
            "arena_swaps": sum(s.arena_swaps for s in self.shards.values()),
            "model_pickles": 0,
        }

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

