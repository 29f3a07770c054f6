"""Tests for the sharded serving tier (repro.shard)."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.core import CardinalityEstimator, Predicate, Query
from repro.faults import NaNFault, WorkerCrashFault, WorkerHangFault, queue_flood
from repro.lifecycle.retrain import RetryPolicy
from repro.obs import EventLog, MetricsRegistry
from repro.registry import make_shard_service
from repro.shard import (
    AdmissionConfig,
    AdmissionController,
    ArenaGeneration,
    DispatchTicket,
    HashRing,
    ShardRequest,
    ShardRouter,
    WorkerSupervisor,
    routing_key,
    stable_hash,
)
import repro.shard.supervisor as supervisor_module
from repro.shard.supervisor import EXHAUSTED, LIVE, RESTARTING, STOPPED

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK_AVAILABLE, reason="no fork on platform")


class ConstantEstimator(CardinalityEstimator):
    """Answers a constant; fit is free."""

    def __init__(self, value: float = 5.0, name: str = "constant") -> None:
        super().__init__()
        self.value = value
        self.name = name

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return self.value


class FlakyEstimator(ConstantEstimator):
    """Raises on every estimate until ``heal()`` is called."""

    def __init__(self) -> None:
        super().__init__(name="flaky")
        self.broken = True

    def estimate_many(self, queries) -> np.ndarray:
        if self.broken:
            raise RuntimeError("flaky worker model")
        return super().estimate_many(queries)

    def heal(self) -> None:
        self.broken = False


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class WorkerSabotage(CardinalityEstimator):
    """Delegates to ``inner`` except inside the worker named ``victim``.

    There every batch runs ``action`` first (crash or hang), so a fault
    hits exactly one worker of one shard while the rest of the fleet
    serves the same model.
    """

    def __init__(self, inner, victim: str, action) -> None:
        super().__init__()
        self.inner = inner
        self.victim = victim
        self.action = action
        self.name = inner.name

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return self.inner.estimate(query)

    def estimate_many(self, queries) -> np.ndarray:
        if multiprocessing.current_process().name == self.victim:
            self.action()
        return self.inner.estimate_many(queries)


def distinct_queries(n: int) -> list[Query]:
    return [Query((Predicate(0, float(i % 6), float(i % 6) + 0.5 + i),)) for i in range(n)]


@pytest.fixture
def requests() -> list[ShardRequest]:
    return [ShardRequest(query=q) for q in distinct_queries(12)]


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # blake2b, not the salted builtin: these values must never move.
        assert stable_hash("shard-0#0") == stable_hash("shard-0#0")
        assert stable_hash("a") != stable_hash("b")

    def test_routing_is_deterministic(self):
        ring = HashRing(["s0", "s1", "s2"])
        keys = [f"key-{i}" for i in range(200)]
        first = [ring.node_for(k) for k in keys]
        second = [ring.node_for(k) for k in keys]
        assert first == second
        assert set(first) == {"s0", "s1", "s2"}  # all shards get traffic

    def test_adding_a_node_remaps_a_minority(self):
        ring = HashRing(["s0", "s1", "s2"], replicas=128)
        keys = [f"key-{i}" for i in range(1000)]
        before = [ring.node_for(k) for k in keys]
        ring.add_node("s3")
        after = [ring.node_for(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        # Consistent hashing: ~1/4 of keys move, nowhere near all.
        assert 0 < moved < len(keys) // 2
        # Every moved key landed on the new node (never shuffled
        # between old nodes).
        assert all(a == "s3" for b, a in zip(before, after) if b != a)

    def test_removing_a_node_reassigns_only_its_keys(self):
        ring = HashRing(["s0", "s1", "s2"], replicas=128)
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove_node("s2")
        for k in keys:
            if before[k] != "s2":
                assert ring.node_for(k) == before[k]
            else:
                assert ring.node_for(k) in {"s0", "s1"}

    def test_duplicate_and_missing_nodes_rejected(self):
        ring = HashRing(["s0"])
        with pytest.raises(ValueError, match="already"):
            ring.add_node("s0")
        with pytest.raises(KeyError, match="not on the ring"):
            ring.remove_node("s9")
        with pytest.raises(RuntimeError, match="no nodes"):
            HashRing([]).node_for("k")

    def test_routing_key_separates_tenants(self):
        query = distinct_queries(1)[0]
        a = routing_key(ShardRequest(query=query, tenant="a"))
        b = routing_key(ShardRequest(query=query, tenant="b"))
        assert a != b

    def test_routing_key_separates_open_from_closed_bounds(self):
        predicates = (
            Predicate(0, None, 5.0),
            Predicate(0, 0.0, 5.0),
            Predicate(0, 5.0, None),
        )
        keys = {routing_key(ShardRequest(query=Query((p,)))) for p in predicates}
        assert len(keys) == 3

    def test_equal_queries_built_separately_share_a_key(self):
        def build(lo):
            return ShardRequest(
                query=Query((Predicate(0, lo, 2.0), Predicate(2, None, 7.5))),
                tenant="t",
            )

        a, b = build(1.0), build(1.0)
        assert a.query is not b.query
        assert routing_key(a) == routing_key(b)
        # equal bounds of equal queries: -0.0 == 0.0, and 1 == 1.0
        assert routing_key(build(-0.0)) == routing_key(build(0.0))
        assert routing_key(build(1)) == routing_key(build(1.0))

    def test_routes_survive_a_different_hash_seed(self, tiny_table):
        # Routing must not depend on the salted builtin hash: a process
        # started with another PYTHONHASHSEED routes every request alike.
        script = """
import json, sys
import numpy as np
from repro.core import Predicate, Query, Table
from repro.serve import HeuristicConstantEstimator
from repro.shard import ShardRequest, ShardRouter

table = Table("t", np.arange(24.0).reshape(8, 3), ["a", "b", "c"], [False] * 3)
estimator = HeuristicConstantEstimator().fit(table)
router = ShardRouter(estimator, [], num_shards=2, mode="inline")
rng = np.random.default_rng(7)
requests = []
for i in range(200):
    lo = float(rng.integers(0, 10))
    pred = Predicate(int(rng.integers(0, 3)), None if i % 3 == 0 else lo, lo + 2.5)
    requests.append(ShardRequest(query=Query((pred,)), tenant=f"tenant-{i % 5}"))
json.dump([router.route(r) for r in requests], sys.stdout)
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        routes = []
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            routes.append(json.loads(out))
        assert len(routes[0]) == 200
        assert routes[0] == routes[1]
        assert set(routes[0]) == {"shard-0", "shard-1"}


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_everything_admitted_without_pressure(self, requests):
        controller = AdmissionController(AdmissionConfig(queue_capacity=100))
        decision = controller.admit(requests)
        assert decision.admitted == tuple(range(len(requests)))
        assert decision.shed == ()

    def test_capacity_sheds_lowest_priority_first(self):
        queries = distinct_queries(6)
        requests = [
            ShardRequest(query=q, priority=i % 2)  # odd indices: priority 1
            for i, q in enumerate(queries)
        ]
        controller = AdmissionController(AdmissionConfig(queue_capacity=3))
        decision = controller.admit(requests)
        assert decision.admitted == (1, 3, 5)  # the high-priority half
        assert all(reason == "capacity" for _, reason in decision.shed)

    def test_admitted_preserved_in_arrival_order(self):
        queries = distinct_queries(5)
        requests = [
            ShardRequest(query=q, priority=p)
            for q, p in zip(queries, [0, 2, 1, 2, 0])
        ]
        controller = AdmissionController(AdmissionConfig(queue_capacity=5))
        assert controller.admit(requests).admitted == (0, 1, 2, 3, 4)

    def test_tenant_quota_contains_noisy_tenant(self):
        queries = distinct_queries(8)
        requests = [
            ShardRequest(query=q, tenant="noisy" if i < 6 else "quiet")
            for i, q in enumerate(queries)
        ]
        controller = AdmissionController(
            AdmissionConfig(queue_capacity=8, tenant_quota=2)
        )
        decision = controller.admit(requests)
        assert decision.admitted == (0, 1, 6, 7)
        assert decision.shed_reasons == {"quota": 4}

    def test_deadline_sheds_requests_that_cannot_make_it(self):
        controller = AdmissionController(AdmissionConfig(queue_capacity=100))
        # 10ms per query observed -> position 5 predicts 50ms wait.
        controller.observe_service(queries=10, seconds=0.1)
        queries = distinct_queries(10)
        requests = [ShardRequest(query=q, deadline_ms=35.0) for q in queries]
        decision = controller.admit(requests)
        # Positions 0..3 predict <= 30ms and make it; the rest shed now
        # rather than queue to fail.
        assert decision.admitted == (0, 1, 2, 3)
        assert all(reason == "deadline" for _, reason in decision.shed)

    def test_service_time_ewma_converges(self):
        controller = AdmissionController(
            AdmissionConfig(service_time_alpha=0.5)
        )
        assert controller.predicted_wait_ms(10) == 0.0  # no signal yet
        controller.observe_service(100, 1.0)   # 10ms/query
        controller.observe_service(100, 2.0)   # 20ms/query
        assert controller.service_seconds_per_query == pytest.approx(0.015)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            AdmissionConfig(queue_capacity=0)
        with pytest.raises(ValueError, match="tenant_quota"):
            AdmissionConfig(tenant_quota=0)
        with pytest.raises(ValueError, match="service_time_alpha"):
            AdmissionConfig(service_time_alpha=0.0)


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
class TestSupervisorInline:
    """Supervisor semantics testable without forking (mode='inline')."""

    def make(self, estimator, tiny_table, **kwargs):
        estimator.fit(tiny_table)
        clock = FakeClock()
        supervisor = WorkerSupervisor(
            "s0",
            estimator,
            kwargs.pop("num_workers", 2),
            mode="inline",
            policy=kwargs.pop(
                "policy",
                RetryPolicy(
                    max_attempts=2,
                    backoff_base_seconds=1.0,
                    backoff_cap_seconds=8.0,
                    jitter=0.0,
                ),
            ),
            clock=clock,
            **kwargs,
        )
        supervisor.start()
        return supervisor, clock

    def test_dispatch_answers(self, tiny_table):
        supervisor, _ = self.make(ConstantEstimator(4.0), tiny_table)
        result = supervisor.dispatch(distinct_queries(3))
        assert result.values is not None
        np.testing.assert_array_equal(result.values, [4.0] * 3)
        assert result.attempts == 1
        assert result.worker == "s0/w0"

    def test_round_robin_between_workers(self, tiny_table):
        supervisor, _ = self.make(ConstantEstimator(), tiny_table)
        workers = {supervisor.dispatch(distinct_queries(1)).worker for _ in range(4)}
        assert workers == {"s0/w0", "s0/w1"}

    def test_failures_consume_budget_then_exhaust(self, tiny_table):
        supervisor, clock = self.make(FlakyEstimator(), tiny_table)
        queries = distinct_queries(2)
        # Both workers fail and enter backoff; dispatch degrades to None.
        assert supervisor.dispatch(queries).values is None
        assert supervisor.live_count == 0
        assert not supervisor.exhausted
        # Backoff not elapsed: still nobody to restart.
        assert supervisor.dispatch(queries).values is None
        clock.advance(10.0)
        assert supervisor.dispatch(queries).values is None  # attempt 2 fails
        clock.advance(10.0)
        assert supervisor.dispatch(queries).values is None  # budget spent
        assert supervisor.exhausted
        assert supervisor.total_restarts == 4  # 2 restarts x 2 workers

    def test_worker_recovers_after_restart(self, tiny_table):
        flaky = FlakyEstimator()
        supervisor, clock = self.make(flaky, tiny_table, num_workers=1)
        assert supervisor.dispatch(distinct_queries(1)).values is None
        flaky.heal()
        clock.advance(2.0)  # past backoff: restart_due reforks
        result = supervisor.dispatch(distinct_queries(1))
        assert result.values is not None
        assert supervisor.live_count == 1
        assert supervisor.worker_states() == {"s0/w0": LIVE}

    def test_restart_waits_out_backoff(self, tiny_table):
        flaky = FlakyEstimator()
        supervisor, clock = self.make(flaky, tiny_table, num_workers=1)
        supervisor.dispatch(distinct_queries(1))
        flaky.heal()
        assert supervisor.restart_due() == 0  # backoff (1s) not elapsed
        clock.advance(0.5)
        assert supervisor.restart_due() == 0
        clock.advance(0.6)
        assert supervisor.restart_due() == 1

    def test_drain_marks_stopped(self, tiny_table):
        supervisor, _ = self.make(ConstantEstimator(), tiny_table)
        supervisor.drain()
        assert supervisor.worker_states() == {
            "s0/w0": STOPPED,
            "s0/w1": STOPPED,
        }

    def test_validation(self, tiny_table):
        estimator = ConstantEstimator().fit(tiny_table)
        with pytest.raises(ValueError, match="num_workers"):
            WorkerSupervisor("s0", estimator, 0)
        with pytest.raises(ValueError, match="mode"):
            WorkerSupervisor("s0", estimator, 1, mode="threads")
        with pytest.raises(ValueError, match="timeouts"):
            WorkerSupervisor("s0", estimator, 1, request_timeout_seconds=0.0)


@needs_fork
class TestSupervisorFork:
    """Real forked workers: crashes, hangs, heartbeats, drain."""

    def make(self, estimator, table, **kwargs):
        estimator.fit(table)
        supervisor = WorkerSupervisor(
            "s0",
            estimator,
            kwargs.pop("num_workers", 2),
            mode="fork",
            policy=kwargs.pop(
                "policy",
                RetryPolicy(
                    max_attempts=2,
                    backoff_base_seconds=0.01,
                    backoff_cap_seconds=0.05,
                ),
            ),
            **kwargs,
        )
        supervisor.start()
        return supervisor

    def test_fork_inherits_model_and_answers(self, tiny_table):
        supervisor = self.make(ConstantEstimator(6.0), tiny_table)
        try:
            result = supervisor.dispatch(distinct_queries(4))
            np.testing.assert_array_equal(result.values, [6.0] * 4)
        finally:
            supervisor.drain()

    def test_crash_redispatches_to_sibling(self, tiny_table):
        # Worker faults crash the first estimate; the schedule is forked
        # into both workers, but `after=1` means each worker answers its
        # first call — so w0 crashes on its second batch and the sibling
        # (still on call #1... also past `after` now) would too.  Use a
        # crash-only-first-call wrapper: after=0 crashes call 1 of each
        # worker, so the batch fails on w0 AND w1, then falls through.
        crash = WorkerCrashFault(
            ConstantEstimator(3.0), probability=1.0, after=1
        )
        supervisor = self.make(crash, tiny_table)
        try:
            first = supervisor.dispatch(distinct_queries(1))
            assert first.values is not None  # call 1 on w0: clean
            second = supervisor.dispatch(distinct_queries(1))
            # w1's first call is also clean: redispatch saves the batch.
            assert second.values is not None
            third = supervisor.dispatch(distinct_queries(1))
            # Both workers are now past `after`: they die; batch degrades.
            assert third.values is None
            assert supervisor.live_count == 0
        finally:
            supervisor.drain()

    def test_hang_is_killed_and_restarted(self, tiny_table):
        hang = WorkerHangFault(
            ConstantEstimator(2.0), hang_seconds=5.0, probability=1.0
        )
        supervisor = self.make(
            hang, tiny_table, num_workers=1, request_timeout_seconds=0.2
        )
        try:
            result = supervisor.dispatch(distinct_queries(1))
            assert result.values is None  # timed out, killed
            assert supervisor.worker_states()["s0/w0"] == RESTARTING
            assert supervisor.total_restarts == 1
        finally:
            supervisor.drain()

    def test_heartbeat_reaps_dead_worker(self, tiny_table):
        supervisor = self.make(ConstantEstimator(), tiny_table, num_workers=1)
        try:
            worker = supervisor._workers[0]
            worker.process.kill()
            worker.process.join()
            supervisor.check_health()
            assert supervisor.worker_states()["s0/w0"] in (
                RESTARTING,
                LIVE,  # restart may already have fired (tiny backoff)
            )
        finally:
            supervisor.drain()

    def test_heartbeat_passes_on_healthy_pool(self, tiny_table):
        supervisor = self.make(ConstantEstimator(), tiny_table)
        try:
            supervisor.check_health()
            assert supervisor.live_count == 2
        finally:
            supervisor.drain()

    def test_drain_stops_processes(self, tiny_table):
        supervisor = self.make(ConstantEstimator(), tiny_table)
        processes = [w.process for w in supervisor._workers]
        supervisor.drain()
        assert all(not p.is_alive() for p in processes)
        assert set(supervisor.worker_states().values()) == {STOPPED}

    def test_reply_read_after_its_deadline_is_accepted(self, tiny_table):
        # The deadline starts at the send.  A reply that arrived in time
        # while the caller was busy gathering another shard is an answer,
        # not a hang.
        supervisor = self.make(
            ConstantEstimator(6.0),
            tiny_table,
            num_workers=1,
            request_timeout_seconds=0.2,
        )
        try:
            ticket = supervisor.submit(distinct_queries(4))
            time.sleep(0.4)
            result = supervisor.collect(ticket)
            np.testing.assert_array_equal(result.values, [6.0] * 4)
            assert result.attempts == 1
            assert supervisor.total_restarts == 0
        finally:
            supervisor.drain()

    def test_worker_error_keeps_worker_alive(self, tiny_table):
        supervisor = self.make(FlakyEstimator(), tiny_table, num_workers=1)
        try:
            result = supervisor.dispatch(distinct_queries(1))
            # The estimator raised inside the worker; the error came
            # back as data, the process survived.
            assert result.values is None
            assert supervisor.worker_states()["s0/w0"] == LIVE
        finally:
            supervisor.drain()


class FakePipe:
    """The parent's end of a worker pipe, scripted.

    ``reply`` maps each sent frame to the worker's answer frames.  An
    answer is readable only once the wait has run out: a poll with time
    left sleeps that time and sees nothing, a final zero-timeout poll
    sees the pipe's contents — the reply landed right at the deadline.
    ``closed`` makes the pipe read as a dead worker's (EOF on recv).
    """

    def __init__(self, reply=None, closed: bool = False) -> None:
        self.reply = reply
        self.closed = closed
        self.inbox: list[tuple] = []

    def send(self, frame: tuple) -> None:
        if self.reply is not None:
            self.inbox.extend(self.reply(frame))

    def poll(self, timeout: float) -> bool:
        if self.closed:
            return True
        if timeout > 0.0:
            time.sleep(timeout)
            return False
        return bool(self.inbox)

    def recv(self) -> tuple:
        if self.closed:
            raise EOFError
        return self.inbox.pop(0)

    def close(self) -> None:
        pass


@needs_fork
class TestReplyWait:
    """The one reply wait behind serve, swap acks and heartbeats."""

    @pytest.fixture(autouse=True)
    def short_heartbeat(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "HEARTBEAT_TIMEOUT_SECONDS", 0.05)

    def make(self, tiny_table, pipe: FakePipe):
        events = EventLog()
        supervisor = WorkerSupervisor(
            "s0",
            ConstantEstimator().fit(tiny_table),
            1,
            mode="fork",
            request_timeout_seconds=0.05,
            events=events,
            registry=MetricsRegistry(),
        )
        worker = supervisor._workers[0]
        worker.state = LIVE
        worker.conn = pipe
        return supervisor, worker, events

    @staticmethod
    def failures(events: EventLog) -> list[tuple[str, str]]:
        return [
            (e.kind, e["detail"])
            for e in events.events()
            if e.kind in ("shard.worker_hang", "shard.worker_crash")
        ]

    def heartbeat(self, tiny_table, pipe):
        supervisor, worker, events = self.make(tiny_table, pipe)
        supervisor.check_health()
        return worker, events

    def swap(self, tiny_table, pipe):
        supervisor, worker, events = self.make(tiny_table, pipe)
        generation = ArenaGeneration(
            generation=3,
            name="repro-test-segment",
            size=0,
            checksum="",
            tensor_bytes=0,
            num_tensors=0,
        )
        return supervisor._swap_worker(worker, generation), worker, events

    def serve(self, tiny_table, pipe):
        supervisor, worker, events = self.make(tiny_table, pipe)
        ticket = DispatchTicket(
            distinct_queries(1),
            None,
            0.0,
            worker=worker,
            request_id=7,
            deadline=time.monotonic() + 0.05,
        )
        return supervisor._receive(ticket), worker, events

    def test_pong_in_the_pipe_at_the_deadline_passes_heartbeat(self, tiny_table):
        # A stale frame of an abandoned request sits ahead of the pong.
        pipe = FakePipe(lambda frame: [("result_slot", -1, 0, 0), ("pong", frame[1])])
        worker, events = self.heartbeat(tiny_table, pipe)
        assert worker.state == LIVE
        assert self.failures(events) == []
        assert pipe.inbox == []

    def test_swap_ack_in_the_pipe_at_the_deadline_is_accepted(self, tiny_table):
        pipe = FakePipe(lambda frame: [("pong", 1), ("swapped", frame[1])])
        swapped, worker, events = self.swap(tiny_table, pipe)
        assert swapped
        assert worker.state == LIVE
        assert self.failures(events) == []

    def test_silent_worker_fails_as_hang(self, tiny_table):
        for wait, detail in (
            (self.heartbeat, "missed heartbeat"),
            (self.swap, "swap timeout"),
            (self.serve, "request timeout"),
        ):
            *_, worker, events = wait(tiny_table, FakePipe())
            assert worker.state == RESTARTING
            assert self.failures(events) == [("shard.worker_hang", detail)]

    def test_closed_pipe_fails_as_crash(self, tiny_table):
        for wait, detail in (
            (self.heartbeat, "pipe closed on heartbeat"),
            (self.swap, "pipe closed mid-swap"),
            (self.serve, "pipe closed mid-request"),
        ):
            *_, worker, events = wait(tiny_table, FakePipe(closed=True))
            assert worker.state == RESTARTING
            assert self.failures(events) == [("shard.worker_crash", detail)]


# ----------------------------------------------------------------------
# Shard + router
# ----------------------------------------------------------------------
class TestShardRouter:
    def router(self, tiny_table, estimator=None, **kwargs):
        primary = (estimator or ConstantEstimator(4.0)).fit(tiny_table)
        kwargs.setdefault("mode", "inline")
        kwargs.setdefault("num_shards", 2)
        return ShardRouter(
            primary, [ConstantEstimator(1.0, name="fallback").fit(tiny_table)], **kwargs
        )

    def test_serve_preserves_input_order(self, tiny_table, requests):
        with self.router(tiny_table) as router:
            served = router.serve_batch(requests)
        assert len(served) == len(requests)
        assert [s.estimate for s in served] == [4.0] * len(requests)

    def test_routing_is_stable(self, tiny_table, requests):
        with self.router(tiny_table) as router:
            first = [router.route(r) for r in requests]
            second = [router.route(r) for r in requests]
        assert first == second

    def test_worker_error_degrades_to_fallback_chain(self, tiny_table, requests):
        with self.router(tiny_table, estimator=FlakyEstimator()) as router:
            served = router.serve_batch(requests)
        # Primary raises everywhere; the in-process chain's next tier
        # answers (value 1.0), nobody is dropped.
        assert [s.estimate for s in served] == [1.0] * len(requests)
        totals = router.totals()
        assert totals.fallback_served == len(requests)

    def test_nan_worker_values_reserved_cleanly(self, tiny_table, requests):
        nan = NaNFault(ConstantEstimator(9.0), probability=1.0)
        primary = ConstantEstimator(4.0).fit(tiny_table)
        nan.fit(tiny_table)
        router = ShardRouter(
            primary,
            [ConstantEstimator(1.0, name="fallback").fit(tiny_table)],
            num_shards=2,
            mode="inline",
            worker_estimator=nan,
        )
        with router:
            served = router.serve_batch(requests)
        # Worker answers are all NaN; the parent's clean primary
        # re-serves every query.
        assert [s.estimate for s in served] == [4.0] * len(requests)
        assert router.totals().fallback_served == len(requests)

    def test_shed_requests_get_heuristic_answers(self, tiny_table):
        queries = distinct_queries(8)
        requests = [ShardRequest(query=q, priority=i % 2) for i, q in enumerate(queries)]
        with self.router(
            tiny_table,
            num_shards=1,
            admission=AdmissionConfig(queue_capacity=4),
        ) as router:
            served = router.serve_batch(requests)
        shed = [s for s in served if s.tier == "shed:heuristic"]
        assert len(shed) == 4
        assert all(s.degraded for s in shed)
        assert all(np.isfinite(s.estimate) for s in served)
        assert router.totals().shed == 4

    def test_exhausted_pool_flips_to_fallback_mode(self, tiny_table, requests):
        router = self.router(
            tiny_table,
            estimator=FlakyEstimator(),
            num_shards=1,
            policy=RetryPolicy(
                max_attempts=1,
                backoff_base_seconds=0.0,
                backoff_cap_seconds=0.0,
                jitter=0.0,
            ),
        )
        with router:
            for _ in range(4):
                served = router.serve_batch(requests)
                assert len(served) == len(requests)
            shard = router.shards["shard-0"]
            assert shard.supervisor.exhausted
            assert shard.fallback_mode

    @needs_fork
    def test_fork_matches_inline_bit_for_bit(self, small_census, census_workloads):
        from repro.estimators.traditional import SamplingEstimator
        from repro.serve import HeuristicConstantEstimator

        primary = SamplingEstimator().fit(small_census)
        heuristic = HeuristicConstantEstimator().fit(small_census)
        _, test = census_workloads
        requests = [ShardRequest(query=q) for q in test.queries]
        with ShardRouter(
            primary, [heuristic], num_shards=3, workers_per_shard=2, mode="fork"
        ) as forked:
            fork_answers = [s.estimate for s in forked.serve_batch(requests)]
        with ShardRouter(primary, [heuristic], num_shards=1, mode="inline") as ref:
            inline_answers = [s.estimate for s in ref.serve_batch(requests)]
        assert fork_answers == inline_answers

    def test_rolling_swap_promotes_and_bumps_generations(self, tiny_table, requests):
        with self.router(tiny_table) as router:
            router.serve_batch(requests)
            generations = [
                s.fallback_service.model_generation
                for s in router.shards.values()
            ]
            candidate = ConstantEstimator(8.0, name="candidate").fit(tiny_table)
            report = router.rolling_swap(
                candidate, probe_queries=[r.query for r in requests[:2]]
            )
            assert report.promoted
            assert report.swapped == ("shard-0", "shard-1")
            assert router.estimator is candidate
            for shard, generation in zip(router.shards.values(), generations):
                assert shard.fallback_service.model_generation == generation + 1
            served = router.serve_batch(requests)
        assert [s.estimate for s in served] == [8.0] * len(requests)

    def test_rolling_swap_probe_failure_rolls_back(self, tiny_table, requests):
        incumbent = ConstantEstimator(4.0)
        with self.router(tiny_table, estimator=incumbent) as router:
            bad = NaNFault(ConstantEstimator(9.0), probability=1.0)
            bad.fit(tiny_table)
            report = router.rolling_swap(
                bad, probe_queries=[r.query for r in requests[:2]]
            )
            assert not report.promoted
            assert report.rolled_back
            assert router.estimator is incumbent
            served = router.serve_batch(requests)
        assert [s.estimate for s in served] == [4.0] * len(requests)

    def test_rolling_swap_promotes_overshooting_candidate(self, tiny_table, requests):
        # A finite answer above num_rows is what serving clamps and serves
        # as "sanitized"; the probe must not reject what serving accepts.
        num_rows = tiny_table.num_rows
        with self.router(tiny_table) as router:
            overshoot = ConstantEstimator(10.0 * num_rows, name="overshoot")
            report = router.rolling_swap(
                overshoot.fit(tiny_table),
                probe_queries=[r.query for r in requests[:2]],
            )
            assert report.promoted
            served = router.serve_batch(requests)
        assert [s.estimate for s in served] == [num_rows] * len(requests)
        assert all(s.attempts == (("worker", "sanitized"),) for s in served)

    def test_rolling_swap_gate_rejection_touches_no_shard(self, tiny_table, requests):
        from repro.lifecycle.gate import PromotionGate

        with self.router(tiny_table) as router:
            bad = NaNFault(ConstantEstimator(9.0), probability=1.0)
            bad.fit(tiny_table)
            gate = PromotionGate([r.query for r in requests[:4]])
            report = router.rolling_swap(bad, gate=gate)
            assert not report.promoted
            assert not report.rolled_back
            assert report.swapped == ()
            assert report.gate_report is not None
            assert not report.gate_report.passed
            served = router.serve_batch(requests)
        assert [s.estimate for s in served] == [4.0] * len(requests)

    def test_make_shard_service_builds_fitted_router(self, small_census):
        router = make_shard_service(
            "sampling", small_census, num_shards=2, mode="inline"
        )
        queries = distinct_queries(6)
        with router:
            served = router.serve_queries(queries)
        assert len(served) == 6
        assert all(np.isfinite(s.estimate) for s in served)

    def test_make_shard_service_typo_hint(self, small_census):
        with pytest.raises(KeyError, match="did you mean 'sampling'"):
            make_shard_service("samplng", small_census)

    def test_availability_accounting_under_mixed_chaos(self, tiny_table):
        """Every request gets a finite answer even with faults + shed."""
        queries = distinct_queries(30)
        requests = [
            ShardRequest(query=q, tenant=f"t{i % 3}", priority=i % 2)
            for i, q in enumerate(queries)
        ]
        nan = NaNFault(ConstantEstimator(2.0), probability=0.5, seed=1)
        nan.fit(tiny_table)
        router = self.router(
            tiny_table,
            worker_estimator=nan,
            admission=AdmissionConfig(queue_capacity=10, tenant_quota=5),
        )
        with router:
            served = router.serve_batch(requests)
        assert len(served) == len(requests)
        assert all(
            np.isfinite(s.estimate) and 0.0 <= s.estimate <= tiny_table.num_rows
            for s in served
        )

    def test_queue_flood_sheds_for_known_reasons_only(self, tiny_table):
        queries = queue_flood(distinct_queries(16), multiplier=4, seed=1)
        requests = [
            ShardRequest(query=q, tenant=f"t{i % 4}", priority=i % 3)
            for i, q in enumerate(queries)
        ]
        router = self.router(
            tiny_table, admission=AdmissionConfig(queue_capacity=6, tenant_quota=2)
        )
        with router:
            served = router.serve_batch(requests)
            totals = router.totals()
        assert {"capacity", "quota"} <= set(totals.shed_reasons)
        assert set(totals.shed_reasons) <= {"capacity", "quota", "deadline"}
        assert sum(totals.shed_reasons.values()) == totals.shed
        assert totals.worker_served + totals.fallback_served + totals.shed == len(
            requests
        )
        assert all(
            np.isfinite(s.estimate) and 0.0 <= s.estimate <= tiny_table.num_rows
            for s in served
        )

    @needs_fork
    def test_corrupted_fork_workers_answered_by_fallback_chain(
        self, small_census, census_workloads
    ):
        from repro.estimators.traditional import SamplingEstimator
        from repro.serve import HeuristicConstantEstimator

        primary = SamplingEstimator().fit(small_census)
        corrupt = NaNFault(primary, probability=0.25, seed=3)
        corrupt.fit(small_census)
        _, test = census_workloads
        requests = [ShardRequest(query=q) for q in test.queries]
        with ShardRouter(
            primary,
            [HeuristicConstantEstimator().fit(small_census)],
            num_shards=2,
            workers_per_shard=2,
            mode="fork",
            worker_estimator=corrupt,
        ) as router:
            served = router.serve_batch(requests)
            totals = router.totals()
        # the NaN answers went to the parent's clean chain, the rest
        # were served as worker answers
        assert totals.fallback_served > 0
        assert totals.worker_served > 0
        assert totals.worker_served + totals.fallback_served == len(requests)
        assert sum(s.tier == "worker" for s in served) == totals.worker_served
        assert all(
            np.isfinite(s.estimate) and 0.0 <= s.estimate <= small_census.num_rows
            for s in served
        )


@needs_fork
class TestScatterGatherFaults:
    """Faults in one shard while the other shard's batch is in flight."""

    def fleet(self, small_census, action, **kwargs):
        from repro.estimators.traditional import SamplingEstimator
        from repro.serve import HeuristicConstantEstimator

        primary = SamplingEstimator().fit(small_census)
        heuristic = HeuristicConstantEstimator().fit(small_census)
        sabotage = WorkerSabotage(primary, "shard-0/w0", action)
        router = ShardRouter(
            primary,
            [heuristic],
            num_shards=2,
            mode="fork",
            worker_estimator=sabotage.fit(small_census),
            **kwargs,
        )
        return router, primary, heuristic

    @staticmethod
    def shard0_first(router, queries):
        """Requests of both shards, shard-0's first (so sent first)."""
        requests = [ShardRequest(query=q) for q in queries]
        routes = [router.route(r) for r in requests]
        assert set(routes) == {"shard-0", "shard-1"}
        order = sorted(range(len(requests)), key=lambda i: routes[i] != "shard-0")
        return [requests[i] for i in order], [routes[i] for i in order]

    def test_crash_in_one_shard_while_the_other_is_in_flight(
        self, small_census, census_workloads
    ):
        from repro.obs import WORKER_QUERIES

        registry = MetricsRegistry()
        router, primary, heuristic = self.fleet(
            small_census,
            lambda: os._exit(1),
            workers_per_shard=2,
            registry=registry,
            events=EventLog(),
        )
        _, test = census_workloads
        requests, routes = self.shard0_first(router, test.queries[:64])
        with router:
            served = router.serve_batch(requests)
            stats = router.stats()
            worker_answered = router.totals().worker_answered
            supervisor = router.shards["shard-0"].supervisor
            reclaimed = supervisor.transport_stats["slots_reclaimed"]
            free_slots = supervisor.ring_free_count
        # shard-0/w0 died holding its batch; w1 answered it
        assert len(served) == len(requests)
        assert all(s.tier == "worker" for s in served)
        assert stats["shard-0"].redispatches == 1
        assert stats["shard-1"].redispatches == 0
        assert reclaimed == 1
        assert free_slots == 4  # two workers + two spare slots, none leaked
        # the dead worker shipped no counter delta, the sibling that
        # answered its batch did: the merged sum still equals the answers
        merged = sum(
            series["value"]
            for series in registry.counter(WORKER_QUERIES).snapshot()["series"]
        )
        assert worker_answered == len(requests)
        assert int(merged) == worker_answered
        # each shard's answers match an inline replay of its sub-batch
        with ShardRouter(primary, [heuristic], num_shards=1, mode="inline") as ref:
            for name in ("shard-0", "shard-1"):
                mine = [i for i, r in enumerate(routes) if r == name]
                replay = ref.serve_batch([requests[i] for i in mine])
                assert [served[i].estimate for i in mine] == [
                    s.estimate for s in replay
                ]

    def test_hang_in_one_shard_does_not_time_out_the_other(
        self, small_census, census_workloads
    ):
        router, _, _ = self.fleet(
            small_census,
            lambda: time.sleep(30.0),
            request_timeout_seconds=0.5,
        )
        _, test = census_workloads
        requests, routes = self.shard0_first(router, test.queries[:64])
        with router:
            served = router.serve_batch(requests)
            restarts = {
                name: shard.supervisor.total_restarts
                for name, shard in router.shards.items()
            }
        # shard-1's reply was read after shard-0's 0.5 s wait; it was on
        # time at its own deadline and is served as a worker answer
        assert all(
            s.tier == "worker" for s, r in zip(served, routes) if r == "shard-1"
        )
        assert all(
            s.tier != "worker" and np.isfinite(s.estimate)
            for s, r in zip(served, routes)
            if r == "shard-0"
        )
        assert restarts == {"shard-0": 1, "shard-1": 0}


@needs_fork
class TestForkTelemetry:
    """Cross-process telemetry through real forked workers."""

    def test_counter_sum_matches_and_worker_spans_reparent(self, tiny_table):
        from repro.obs import (
            WORKER_QUERIES,
            EventLog,
            MetricsRegistry,
            SpanCollector,
            install_collector,
            uninstall_collector,
        )

        registry, events = MetricsRegistry(), EventLog()
        collector = install_collector(SpanCollector())
        try:
            estimator = ConstantEstimator(3.0).fit(tiny_table)
            fallback = ConstantEstimator(1.0).fit(tiny_table)
            router = ShardRouter(
                estimator,
                [fallback],
                num_shards=2,
                workers_per_shard=2,
                mode="fork",
                registry=registry,
                events=events,
            )
            with router:
                for _ in range(3):
                    router.serve_batch(
                        [ShardRequest(query=q) for q in distinct_queries(12)]
                    )
                totals = router.totals()

            # every query a worker answered arrived with a counter delta
            # riding the same reply: the merged per-worker sum is exact
            merged = sum(
                series["value"]
                for series in registry.counter(WORKER_QUERIES).snapshot()[
                    "series"
                ]
            )
            assert totals.worker_answered > 0
            assert int(merged) == totals.worker_answered

            spans = collector.spans()
            by_id = {s.span_id: s for s in spans}
            worker_spans = [s for s in spans if "worker_pid" in s.attrs]
            assert worker_spans, "no worker spans survived the merge"
            assert all(s.attrs.get("shard") for s in worker_spans)
            # Both shards' batches were in flight together, yet every
            # worker-side root span sits under its own shard's batch span.
            worker_ids = {s.span_id for s in worker_spans}
            worker_roots = [s for s in worker_spans if s.parent_id not in worker_ids]
            assert {s.attrs["shard"] for s in worker_roots} == {
                "shard-0",
                "shard-1",
            }
            for s in worker_roots:
                parent = by_id[s.parent_id]
                assert parent.name == "serve.batch"
                assert parent.attrs["shard"] == s.attrs["shard"]
            # ...and no shard's batch span descends from another shard's.
            for batch in collector.spans("serve.batch"):
                ancestor = by_id.get(batch.parent_id)
                while ancestor is not None:
                    assert ancestor.name != "serve.batch"
                    ancestor = by_id.get(ancestor.parent_id)
        finally:
            uninstall_collector()
