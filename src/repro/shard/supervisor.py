"""Supervised fork-based worker pools: heartbeats, restarts, re-dispatch.

Each shard of :class:`~repro.shard.router.ShardRouter` owns a
:class:`WorkerSupervisor` over ``num_workers`` **forked** worker
processes.  Workers inherit the fitted model through fork memory —
zero per-worker load cost, the same trick :mod:`repro.parallel` uses —
and answer query batches steered by control frames on a duplex pipe.
The supervisor is the robustness boundary:

* **Crash containment.**  A worker that dies mid-batch (OOM kill,
  segfault, :class:`~repro.faults.WorkerCrashFault`) is observed as a
  dead pipe; the in-flight batch is *re-dispatched to a sibling worker*
  and the dead worker is scheduled for restart.  No query is dropped.
* **Hang containment.**  A worker that stops answering within
  ``request_timeout_seconds`` (or misses a heartbeat probe) is killed
  and treated exactly like a crash — a hang is just a crash that wastes
  your deadline first.
* **Bounded restarts.**  Restarts cost forks, and a worker that dies on
  every request would otherwise crash-loop forever.  Each worker has a
  restart budget (:class:`~repro.lifecycle.retrain.RetryPolicy` — the
  same bounded-attempts/exponential-backoff/seeded-jitter policy the
  retraining supervisor uses) and waits out its backoff before the next
  fork.  A worker whose budget is spent is **exhausted**; when every
  worker is exhausted the shard falls back to in-process serving and
  availability still never drops.
* **Graceful drain.**  Shutdown sends every live worker a stop message,
  waits briefly for acknowledgement, then joins — so a rolling model
  swap never kills a worker mid-answer.

**Split dispatch.**  :meth:`~WorkerSupervisor.submit` sends a batch and
returns a :class:`DispatchTicket` without waiting;
:meth:`~WorkerSupervisor.collect` waits for the reply and owns every
re-dispatch.  The shard router submits to every shard before it
collects any, so the shards' workers compute at the same time.  Each
attempt's deadline starts at its own send, and a reply that arrived
while the caller was collecting another shard is accepted even when
its deadline has passed since.  :meth:`~WorkerSupervisor.dispatch` is
``collect(submit(...))``.

``mode="inline"`` runs the pool in-process (no forks) with identical
dispatch semantics — the determinism reference for the bit-identity
check, and the automatic degradation on platforms without ``fork``.

**Data plane.**  A forked pool moves every batch through a
:class:`~repro.shard.shm.ShmRing` slot: :mod:`repro.shard.codec`
encodes the queries into the slot, the pipe carries only a fixed-size
``("serve_slot", id, slot, nbytes)`` control frame, and the worker
overwrites the slot with its result frame.  A worker holds at most one
slot at a time.  A batch that does not fit a slot, or finds no free
worker, is not dispatched at all: its ticket settles with
``values=None`` and the shard's in-process fallback chain answers it
(counted in ``transport_stats["shm_overflows"]`` when the slot was the
reason).  Model swaps ride the same plane:
:meth:`~WorkerSupervisor.swap_model` points each live worker at a
:class:`~repro.shard.shm.ModelArena` generation with a tiny
``("swap", generation, segment)`` frame — workers attach read-only
tensor views, so a swap never pickles a model over a pipe and never
replaces a healthy worker process.

**Telemetry** (on by default): each worker installs a
:class:`~repro.obs.transport.TelemetryCapture` after the fork and
piggybacks a :class:`~repro.obs.transport.TelemetrySnapshot` delta on
every serve reply; the parent folds replies through a
:class:`~repro.obs.transport.TelemetryMerger` (deduped on
``(worker_pid, seq)``), so worker-side counters, spans and events
survive the pipe boundary.  The request envelope carries the caller's
``(trace_id, parent_span_id)`` so worker spans re-parent under the
dispatching ``serve.batch`` span.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Query
from ..lifecycle.retrain import RetryPolicy
from ..obs import (
    SHARD_WORKER_RESTARTS,
    SHARD_WORKERS,
    WORKER_QUERIES,
    EventLog,
    MetricsRegistry,
    TelemetryMerger,
    get_events,
    get_registry,
    install_worker_capture,
    set_trace_context,
)
from ..obs.clock import monotonic, perf_counter
from .codec import (
    CodecError,
    pack_queries,
    pack_results,
    unpack_queries,
    unpack_results,
)
from .shm import ArenaError, ArenaGeneration, ModelArena, ShmRing

#: Default byte size of one ring slot; a batch that encodes larger is
#: answered by the shard's fallback chain instead (counted, never dropped).
DEFAULT_SLOT_BYTES = 1 << 20

#: How long :meth:`WorkerSupervisor.check_health` waits for a pong.
HEARTBEAT_TIMEOUT_SECONDS = 1.0

#: Per reply wait: the reply kinds it accepts, then the event details of
#: failing a worker that stays silent (hang) or closes its pipe (crash).
_WAITS = {
    "serve": (("result_slot", "error"), "request timeout", "pipe closed mid-request"),
    "swap": (("swapped", "swap_failed"), "swap timeout", "pipe closed mid-swap"),
    "ping": (("pong",), "missed heartbeat", "pipe closed on heartbeat"),
}

#: Worker lifecycle states (the gauge's ``state`` label).
LIVE = "live"
RESTARTING = "restarting"
EXHAUSTED = "exhausted"
STOPPED = "stopped"


def _worker_main(
    estimator: CardinalityEstimator,
    conn,
    shard: str = "",
    worker_name: str = "",
    telemetry: bool = False,
    ring: ShmRing | None = None,
) -> None:
    """Worker body: answer serve/ping/swap messages until told to stop.

    Batches arrive as ``serve_slot`` control frames naming a slot of the
    fork-inherited ``ring``; the worker decodes the query frame in
    place, overwrites the slot with its result frame, and acks with
    another fixed-size control frame.  Estimator exceptions (and frames
    that do not decode) are shipped back as ``error`` replies — the
    worker survives them; a crash fault calls ``os._exit`` underneath
    us and the parent observes the dead pipe.  ``swap`` frames point
    the worker at a new :class:`~repro.shard.shm.ModelArena`
    generation: it attaches read-only tensor views and drops its
    previous attachment — the model itself never crosses the pipe.

    With ``telemetry`` on, the worker resets its fork-copied telemetry
    singletons, installs a delta capture, and attaches a snapshot to
    every serve reply (and to the stop acknowledgement).  Because the
    capture resets on every take, a reply the parent never accepts loses
    its delta — at-most-once, never double-counted.
    """
    capture = None
    registry = get_registry()
    attachment = None
    if telemetry:
        capture = install_worker_capture(shard=shard, worker=worker_name)

    def serve(request_id: int, slot: int, nbytes: int) -> None:
        try:
            queries, trace_ctx = unpack_queries(ring.slot_view(slot)[:nbytes])
            if trace_ctx is not None:
                set_trace_context(*trace_ctx)
            values = np.asarray(
                estimator.estimate_many(queries), dtype=np.float64
            )
            if values.shape != (len(queries),):
                raise ValueError(
                    f"worker returned shape {values.shape} "
                    f"for {len(queries)} queries"
                )
            if telemetry:
                registry.counter(
                    WORKER_QUERIES,
                    "Queries answered by worker processes",
                ).inc(len(queries), worker=worker_name)
            nbytes = pack_results(
                values, np.zeros(len(queries), dtype=np.uint8), ring.slot_view(slot)
            )
        except Exception as exc:  # lint-ok: error shipped to parent
            snap = capture.take() if capture is not None else None
            conn.send(
                ("error", request_id, f"{type(exc).__name__}: {exc}", snap)
            )
            return
        snap = capture.take() if capture is not None else None
        conn.send(("result_slot", request_id, slot, nbytes, snap))

    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "serve_slot":
                _, request_id, slot, nbytes = message
                serve(request_id, slot, nbytes)
            elif op == "swap":
                _, generation, segment_name = message
                try:
                    fresh = ModelArena.attach(segment_name)
                except ArenaError as exc:
                    conn.send(("swap_failed", generation, str(exc)))
                    continue
                estimator = fresh.model
                if attachment is not None:
                    attachment.close()
                attachment = fresh
                conn.send(("swapped", generation))
            elif op == "ping":
                conn.send(("pong", message[1]))
            elif op == "stop":
                snap = capture.take() if capture is not None else None
                conn.send(("stopped", snap))
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away or is shutting down; nothing to clean


@dataclass
class _Worker:
    """Parent-side handle of one worker slot."""

    name: str
    index: int
    state: str = RESTARTING
    process: multiprocessing.process.BaseProcess | None = None
    conn: object = None
    #: restarts consumed from the budget (the initial fork is free)
    restarts: int = 0
    #: clock() time before which the next restart must not happen
    restart_at: float = 0.0
    #: ring slot of the batch in flight to this worker (None = idle);
    #: the parent reclaims it on reply — or in ``_fail`` after the kill,
    #: so a dead worker can never leak (or scribble) a recycled slot
    slot: int | None = None


@dataclass
class DispatchTicket:
    """A batch in flight: made by ``submit``, settled by ``collect``."""

    queries: list[Query]
    trace_ctx: tuple[int, int] | None
    #: perf_counter() at submit; ``DispatchResult.seconds`` runs from here
    start: float
    #: workers tried so far (>1 means the batch was re-dispatched)
    attempts: int = 0
    tried: set[int] = field(default_factory=set)
    #: worker holding the current attempt; None once no untried worker
    #: is free, or when the batch does not fit a ring slot
    worker: _Worker | None = None
    request_id: int = 0
    #: length of the request frame packed into the worker's slot
    nbytes: int = 0
    #: monotonic() time the current attempt times out
    deadline: float = 0.0


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of dispatching one batch to the pool."""

    #: answers, or None when no worker could serve the batch
    values: np.ndarray | None
    #: name of the worker that answered; None for a failed dispatch
    worker: str | None
    #: workers tried (>1 means the batch was re-dispatched to a sibling)
    attempts: int
    seconds: float


class WorkerSupervisor:
    """Own, monitor, restart and drain one shard's worker processes."""

    def __init__(
        self,
        shard: str,
        estimator: CardinalityEstimator,
        num_workers: int = 1,
        *,
        policy: RetryPolicy | None = None,
        request_timeout_seconds: float = 5.0,
        mode: str = "auto",
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        arena: ModelArena | None = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
        telemetry: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if mode not in ("auto", "fork", "inline"):
            raise ValueError(f"unknown mode {mode!r}; use auto, fork, or inline")
        if request_timeout_seconds <= 0.0:
            raise ValueError("timeouts must be positive")
        fork_available = "fork" in multiprocessing.get_all_start_methods()
        if mode == "fork" and not fork_available:
            raise RuntimeError("fork start method unavailable on this platform")
        if mode == "auto":
            mode = "fork" if fork_available else "inline"
        self.shard = shard
        self.estimator = estimator
        self.mode = mode
        self.slot_bytes = slot_bytes
        self._ring: ShmRing | None = None
        self._arena = arena
        self._arena_owned = False
        self._generation: ArenaGeneration | None = None
        #: data-plane counters: batches sent through the ring, batches
        #: that did not fit a slot (the fallback chain answered them),
        #: and slots reclaimed from killed workers (the chaos matrix's
        #: no-leak invariant).  ``pipe_batches`` stays 0 — no batch
        #: crosses a pipe — and is kept for readers of the counter set.
        self.transport_stats = {
            "shm_batches": 0,
            "pipe_batches": 0,
            "shm_overflows": 0,
            "slots_reclaimed": 0,
        }
        self.policy = policy or RetryPolicy(
            max_attempts=3, backoff_base_seconds=0.05, backoff_cap_seconds=2.0
        )
        self.request_timeout_seconds = request_timeout_seconds
        self._rng = np.random.default_rng(seed)
        self._clock = clock
        self._events = events
        self._registry = registry
        self.telemetry = telemetry
        #: parent-side fold of worker snapshots (exposed for tests; the
        #: span destination resolves per-merge from the active collector)
        self.merger = TelemetryMerger(registry=registry, events=events)
        self._workers = [
            _Worker(name=f"{shard}/w{i}", index=i) for i in range(num_workers)
        ]
        self._next = 0  # round-robin pointer
        self._request_id = 0
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the initial pool (call after the model is fitted)."""
        if self.mode == "fork" and self._ring is None:
            # the ring must exist before the first fork so every worker
            # inherits the mapping
            self._ring = ShmRing(len(self._workers) + 2, self.slot_bytes)
        for worker in self._workers:
            self._fork(worker)
        self.started = True
        self._update_gauge()

    def _fork(self, worker: _Worker) -> None:
        if self.mode == "inline":
            worker.state = LIVE
            return
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(
                self.estimator,
                child_conn,
                self.shard,
                worker.name,
                self.telemetry,
                self._ring,
            ),
            name=worker.name,
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end: child death == EOF
        worker.process = process
        worker.conn = parent_conn
        worker.state = LIVE
        self._obs_events().emit(
            "shard.worker_start",
            shard=self.shard,
            worker=worker.name,
            restarts=worker.restarts,
        )

    def drain(self, timeout_seconds: float = 1.0) -> None:
        """Graceful shutdown: stop, wait for acknowledgement, join."""
        for worker in self._workers:
            if worker.state != LIVE or self.mode == "inline":
                if worker.state == LIVE:
                    worker.state = STOPPED
                continue
            try:
                worker.conn.send(("stop",))
                deadline = monotonic() + timeout_seconds
                while monotonic() < deadline:
                    if not worker.conn.poll(deadline - monotonic()):
                        break
                    message = worker.conn.recv()
                    if message[0] == "stopped":
                        # the stop acknowledgement carries the worker's
                        # final telemetry delta
                        if len(message) > 1 and message[1] is not None:
                            self.merger.merge(message[1])
                        break
            except (BrokenPipeError, EOFError, OSError):
                pass  # already dead; join below reaps it
            worker.process.join(timeout_seconds)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
            worker.state = STOPPED
        self.started = False
        if self._ring is not None:
            self._ring.close(unlink=True)
            self._ring = None
        if self._generation is not None and self._arena is not None:
            self._arena.release(self._generation)
            self._generation = None
        if self._arena_owned and self._arena is not None:
            self._arena.close()
        self._obs_events().emit("shard.drain", shard=self.shard)
        self._update_gauge()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit(
        self,
        queries: Sequence[Query],
        trace_ctx: tuple[int, int] | None = None,
    ) -> DispatchTicket:
        """Send one batch to a live worker and return without waiting.

        The worker computes while the caller does other work — the shard
        router sends every shard's batch before it waits for any.
        :meth:`collect` waits for the answer.  Every ticket must be
        collected, or its worker's reply (and ring slot) stays in flight.

        ``trace_ctx`` is the dispatching span's ``(trace_id, span_id)``;
        the worker adopts it so its spans re-parent under the caller's
        ``serve.batch`` span in the merged trace.
        """
        ticket = DispatchTicket(list(queries), trace_ctx, perf_counter())
        self.restart_due()
        self._send_next(ticket)
        return ticket

    def collect(self, ticket: DispatchTicket) -> DispatchResult:
        """Wait for a submitted batch; re-dispatch on crash/hang/error.

        Tries each currently-live worker at most once (round-robin from
        the last dispatch point).  Returns ``values=None`` when no
        worker could answer — the caller degrades to in-process serving,
        so a dispatch failure is never an unanswered query.
        """
        while ticket.worker is not None:
            values = self._receive(ticket)
            if values is not None:
                if ticket.attempts > 1:
                    self._obs_events().emit(
                        "shard.redispatch",
                        shard=self.shard,
                        worker=ticket.worker.name,
                        batch=len(ticket.queries),
                        attempts=ticket.attempts,
                    )
                return DispatchResult(
                    values=values,
                    worker=ticket.worker.name,
                    attempts=ticket.attempts,
                    seconds=perf_counter() - ticket.start,
                )
            self._send_next(ticket)
        return DispatchResult(
            values=None,
            worker=None,
            attempts=ticket.attempts,
            seconds=perf_counter() - ticket.start,
        )

    def dispatch(
        self,
        queries: Sequence[Query],
        trace_ctx: tuple[int, int] | None = None,
    ) -> DispatchResult:
        """Send one batch and wait for it (:meth:`submit` + :meth:`collect`)."""
        return self.collect(self.submit(queries, trace_ctx))

    def _pick(self, tried: set[int]) -> _Worker | None:
        """The next live, untried worker with no batch in flight."""
        n = len(self._workers)
        for offset in range(n):
            worker = self._workers[(self._next + offset) % n]
            if (
                worker.state == LIVE
                and worker.slot is None
                and worker.index not in tried
            ):
                self._next = (worker.index + 1) % n
                return worker
        return None

    def _send_next(self, ticket: DispatchTicket) -> None:
        """Hand the batch to the next free untried worker, if any is left.

        Leaves ``ticket.worker`` None when no worker is free or the batch
        does not fit a ring slot; :meth:`collect` then settles the
        ticket with ``values=None`` and no worker is failed.
        """
        while True:
            worker = self._pick(ticket.tried)
            if worker is not None and not self._pack(worker, ticket):
                worker = None
            ticket.worker = worker
            if worker is None:
                return
            ticket.tried.add(worker.index)
            ticket.attempts += 1
            if self._send(worker, ticket):
                return

    def _pack(self, worker: _Worker, ticket: DispatchTicket) -> bool:
        """Encode the batch into a ring slot held by ``worker``.

        Inline workers need no slot.  False (counted as an overflow)
        when no slot is free or the frame does not encode into one.
        """
        if self.mode == "inline":
            return True
        slot = self._ring.acquire()
        if slot is not None:
            try:
                ticket.nbytes = pack_queries(
                    ticket.queries,
                    self._ring.slot_view(slot),
                    trace_ctx=ticket.trace_ctx,
                )
            except CodecError:
                self._ring.release(slot)
            else:
                worker.slot = slot
                return True
        self.transport_stats["shm_overflows"] += 1
        return False

    def _send(self, worker: _Worker, ticket: DispatchTicket) -> bool:
        """Send the slot's control frame; False (worker failed) on error.

        A forked worker's deadline starts at this send.  Inline workers
        have nothing to send: they answer in :meth:`_receive`.
        """
        if self.mode == "inline":
            return True
        self._request_id += 1
        ticket.request_id = self._request_id
        try:
            worker.conn.send(
                ("serve_slot", ticket.request_id, worker.slot, ticket.nbytes)
            )
        except (BrokenPipeError, EOFError, OSError):
            self._fail(worker, "crash", detail="pipe closed on send")
            return False
        self.transport_stats["shm_batches"] += 1
        ticket.deadline = monotonic() + self.request_timeout_seconds
        return True

    def _receive(self, ticket: DispatchTicket) -> np.ndarray | None:
        """The current worker's answer, or None after failing it."""
        worker = ticket.worker
        if self.mode == "inline":
            return self._answer_inline(worker, ticket.queries)
        message = self._await_reply(worker, "serve", ticket.request_id, ticket.deadline)
        if message is None:
            return None
        values = None
        if message[0] == "result_slot":
            self._merge_snapshot(message, index=4)
            values, _codes = unpack_results(
                self._ring.slot_view(worker.slot)[: message[3]]
            )
        else:
            # The worker survived; its estimator raised.  The worker
            # stays live (the model is broken, not the process) and the
            # caller degrades this batch.
            self._merge_snapshot(message, index=3)
            self._obs_events().emit(
                "shard.worker_error",
                shard=self.shard,
                worker=worker.name,
                error=message[2],
            )
        self._ring.release(worker.slot)
        worker.slot = None
        return values

    def _await_reply(
        self, worker: _Worker, wait: str, key: int, deadline: float
    ) -> tuple | None:
        """The worker's ``(kind, key, ...)`` reply to ``wait`` (a
        :data:`_WAITS` entry), or None after failing the worker.

        Polls until ``deadline``, then once more: a reply that arrived in
        time while the caller did other work (gathered another shard's
        batch, say) is not a hang.  Frames of any other kind or key are
        stale replies to requests already abandoned; they are skipped
        without merging their telemetry, so a retried batch never counts
        twice.
        """
        kinds, hang, crash = _WAITS[wait]
        while True:
            remaining = deadline - monotonic()
            try:
                if not worker.conn.poll(max(remaining, 0.0)):
                    if remaining <= 0.0:
                        self._fail(worker, "hang", detail=hang)
                        return None
                    continue  # loop re-checks the deadline
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._fail(worker, "crash", detail=crash)
                return None
            if message[0] in kinds and message[1] == key:
                return message

    def _answer_inline(
        self, worker: _Worker, queries: list[Query]
    ) -> np.ndarray | None:
        try:
            values = np.asarray(
                self.estimator.estimate_many(queries), dtype=np.float64
            )
            if values.shape != (len(queries),):
                raise ValueError(f"bad result shape {values.shape}")
        except Exception as exc:
            self._fail(worker, "error", detail=f"{type(exc).__name__}: {exc}")
            return None
        if self.telemetry:
            # inline workers share the parent's registry; write the
            # per-worker counter directly with the labels the merge
            # path would have added
            self._obs_registry().counter(
                WORKER_QUERIES, "Queries answered by worker processes"
            ).inc(
                len(queries),
                worker=worker.name,
                shard=self.shard,
                worker_pid=os.getpid(),
            )
        return values

    def _merge_snapshot(self, message: tuple, index: int) -> None:
        if len(message) > index and message[index] is not None:
            self.merger.merge(message[index])

    # ------------------------------------------------------------------
    # Zero-copy model swap
    # ------------------------------------------------------------------
    def swap_model(
        self, candidate: CardinalityEstimator, *, generation: ArenaGeneration | None = None
    ) -> bool:
        """Serve ``candidate`` from now on; never raises.

        An inline or not-started pool just adopts the candidate: inline
        workers call it directly, and the next fork inherits it.  A
        started fork pool takes the arena path: the candidate is
        published to the arena (unless the caller — the shard router —
        already did, publishing once for all shards) and each live
        worker gets a control-frame ``swap``.  Workers attach read-only
        tensor views; the model itself never crosses a pipe.  A worker
        that cannot swap is failed, and its restart forks the candidate
        from parent memory — as does every live worker when the arena
        cannot publish or hold the generation.

        Returns True when the live workers were pointed at an arena
        generation.
        """
        self.estimator = candidate  # every fork from here on inherits it
        if not self.started or self.mode != "fork":
            return False
        if self._arena is None:
            self._arena = ModelArena()
            self._arena_owned = True
        previous = self._generation
        try:
            if generation is None:
                generation = self._arena.publish(candidate)
            self._arena.acquire(generation)
        except ArenaError as exc:
            generation = None
            for worker in self._workers:
                if worker.state == LIVE:
                    self._fail(worker, "error", detail=f"arena unavailable: {exc}")
        else:
            swapped = 0
            for worker in self._workers:
                if worker.state == LIVE and self._swap_worker(worker, generation):
                    swapped += 1
            self._obs_events().emit(
                "shard.arena_swap",
                shard=self.shard,
                generation=generation.generation,
                workers=swapped,
            )
        self._generation = generation
        if previous is not None:
            self._arena.release(previous)
        return generation is not None

    def _swap_worker(self, worker: _Worker, generation: ArenaGeneration) -> bool:
        try:
            worker.conn.send(("swap", generation.generation, generation.name))
        except (BrokenPipeError, EOFError, OSError):
            self._fail(worker, "crash", detail="pipe closed on swap")
            return False
        deadline = monotonic() + self.request_timeout_seconds
        message = self._await_reply(worker, "swap", generation.generation, deadline)
        if message is None:
            return False
        if message[0] == "swap_failed":
            self._fail(worker, "error", detail=f"arena attach failed: {message[2]}")
            return False
        return True

    # ------------------------------------------------------------------
    # Supervision: heartbeats, restarts, budget
    # ------------------------------------------------------------------
    def check_health(self) -> None:
        """Heartbeat probe: ping idle workers, reap the unresponsive."""
        if self.mode == "inline":
            return
        for worker in list(self._workers):
            if worker.state != LIVE or worker.slot is not None:
                continue
            if worker.process is not None and not worker.process.is_alive():
                self._fail(worker, "crash", detail="found dead by heartbeat")
                continue
            self._request_id += 1
            ping_id = self._request_id
            try:
                worker.conn.send(("ping", ping_id))
            except (BrokenPipeError, EOFError, OSError):
                self._fail(worker, "crash", detail="pipe closed on heartbeat")
                continue
            self._await_reply(
                worker, "ping", ping_id, monotonic() + HEARTBEAT_TIMEOUT_SECONDS
            )
        self.restart_due()

    def restart_due(self) -> int:
        """Fork a fresh process for every worker whose backoff has passed."""
        restarted = 0
        now = self._clock()
        for worker in self._workers:
            if worker.state == RESTARTING and self.started and now >= worker.restart_at:
                self._fork(worker)
                restarted += 1
                self._obs_events().emit(
                    "shard.worker_restart",
                    shard=self.shard,
                    worker=worker.name,
                    restarts=worker.restarts,
                )
        if restarted:
            self._update_gauge()
        return restarted

    def _fail(self, worker: _Worker, reason: str, detail: str = "") -> None:
        """Kill/reap a misbehaving worker and schedule (or deny) a restart."""
        if self.mode != "inline" and worker.process is not None:
            worker.process.kill()
            worker.process.join()
            worker.conn.close()
            worker.process = None
            worker.conn = None
        if worker.slot is not None:
            # The worker is dead (killed and reaped above), so it can
            # never scribble this slot again — recycle it instead of
            # leaking ring capacity on every crash.
            if self._ring is not None:
                self._ring.release(worker.slot)
                self.transport_stats["slots_reclaimed"] += 1
            worker.slot = None
        self._obs_events().emit(
            f"shard.worker_{reason}",
            shard=self.shard,
            worker=worker.name,
            detail=detail,
        )
        self._obs_registry().counter(
            SHARD_WORKER_RESTARTS, "Worker deaths by cause"
        ).inc(shard=self.shard, reason=reason)
        if worker.restarts >= self.policy.max_attempts:
            worker.state = EXHAUSTED
            self._obs_events().emit(
                "shard.worker_exhausted",
                shard=self.shard,
                worker=worker.name,
                restarts=worker.restarts,
            )
        else:
            backoff = self.policy.backoff_seconds(worker.restarts, self._rng)
            worker.restarts += 1
            worker.state = RESTARTING
            worker.restart_at = self._clock() + backoff
        self._update_gauge()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return sum(1 for w in self._workers if w.state == LIVE)

    @property
    def ring_free_count(self) -> int | None:
        """Free ring slots (``None`` for an inline or drained pool)."""
        return None if self._ring is None else self._ring.free_count

    @property
    def generation(self) -> ArenaGeneration | None:
        """The arena generation the pool is attached to (None = fork)."""
        return self._generation

    @property
    def arena(self) -> ModelArena | None:
        return self._arena

    @property
    def exhausted(self) -> bool:
        """True when every worker has spent its restart budget."""
        return all(w.state == EXHAUSTED for w in self._workers)

    @property
    def total_restarts(self) -> int:
        """Restarts consumed across all workers (budget spent so far)."""
        return sum(w.restarts for w in self._workers)

    def worker_states(self) -> dict[str, str]:
        return {w.name: w.state for w in self._workers}

    def _update_gauge(self) -> None:
        gauge = self._obs_registry().gauge(
            SHARD_WORKERS, "Worker slots by lifecycle state"
        )
        for state in (LIVE, RESTARTING, EXHAUSTED, STOPPED):
            gauge.set(
                sum(1 for w in self._workers if w.state == state),
                shard=self.shard,
                state=state,
            )

    def _obs_events(self) -> EventLog:
        return self._events if self._events is not None else get_events()

    def _obs_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()
