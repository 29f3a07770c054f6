"""Tests for the zero-copy serving data plane (repro.shard.shm/codec).

Covers the shared-memory model arena (publish / attach / refcounted
unlink), the binary batch codec (seeded round-trip properties including
NaN/inf bounds and empty batches), the shm ring data plane (bit-identity
against inline dispatch, oversized batches answered by the fallback
chain, one batch per worker, crash slot reclaim), zero-copy live swaps
(stable worker PIDs, one candidate pickle, arena failures that never
escape a rolling swap), and the router-shared semantic cache.
"""

import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core import CardinalityEstimator, Predicate, Query
from repro.core.query import QueryBatch
from repro.estimators.learned import MscnEstimator
from repro.faults import NaNFault, WorkerCrashFault
from repro.lifecycle.retrain import RetryPolicy
from repro.obs import (
    SHARD_SWAPS,
    MetricsRegistry,
    get_collector,
    get_registry,
    install_collector,
    uninstall_capture,
    uninstall_collector,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.shard import (
    ArenaError,
    ModelArena,
    ShardRequest,
    ShardRouter,
    ShmRing,
    WorkerSupervisor,
)
from repro.shard.codec import (
    CodecError,
    CodecOverflow,
    pack_queries,
    pack_results,
    unpack_queries,
    unpack_results,
)
from repro.shard.supervisor import _worker_main

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK_AVAILABLE, reason="no fork on platform")


class TensorEstimator(CardinalityEstimator):
    """Constant estimator whose answer lives in a big ndarray.

    Big enough that the arena extracts the array into its tensor region
    (the split threshold is 256 bytes), so attach() really serves off a
    shared-memory view rather than the skeleton pickle.
    """

    def __init__(self, value: float = 5.0, name: str = "tensor") -> None:
        super().__init__()
        self.name = name
        self.weights = np.full(1024, float(value))

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return float(self.weights[0])


def queries_for(n: int) -> list[Query]:
    return [
        Query((Predicate(0, float(i % 6), float(i % 6) + 1.5),))
        for i in range(n)
    ]


def repro_segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro-")]


# ----------------------------------------------------------------------
# Model arena
# ----------------------------------------------------------------------
class TestModelArena:
    def test_publish_attach_round_trip(self, tiny_table):
        est = TensorEstimator(6.5).fit(tiny_table)
        arena = ModelArena()
        try:
            handle = arena.publish(est)
            assert handle.num_tensors >= 1
            attachment = ModelArena.attach(handle.name)
            try:
                got = attachment.model.estimate_many(queries_for(4))
                np.testing.assert_array_equal(got, [6.5] * 4)
            finally:
                attachment.close()
        finally:
            arena.close()
        assert not repro_segments()

    def test_attached_tensors_are_read_only_views(self, tiny_table):
        est = TensorEstimator(2.0).fit(tiny_table)
        arena = ModelArena()
        try:
            handle = arena.publish(est)
            attachment = ModelArena.attach(handle.name)
            try:
                weights = attachment.model.weights
                assert not weights.flags.writeable
                with pytest.raises(ValueError):
                    weights[0] = 99.0
                # ...and the segment really is shared, not a copy
                assert weights.base is not None
            finally:
                attachment.close()
        finally:
            arena.close()

    def test_publish_retires_previous_generation(self, tiny_table):
        arena = ModelArena()
        try:
            arena.publish(TensorEstimator(1.0).fit(tiny_table))
            arena.publish(TensorEstimator(2.0).fit(tiny_table))
            # No refs held: the old generation unlinks immediately.
            assert arena.live_generations() == [2]
            assert arena.published == 2
            assert arena.unlinked == 1
        finally:
            arena.close()
        assert not repro_segments()

    def test_refcount_defers_unlink_until_release(self, tiny_table):
        arena = ModelArena()
        try:
            first = arena.publish(TensorEstimator(1.0).fit(tiny_table))
            arena.acquire(first)
            second = arena.publish(TensorEstimator(2.0).fit(tiny_table))
            # Retired but referenced: the segment must survive.
            assert arena.live_generations() == [1, 2]
            arena.release(first)
            assert arena.live_generations() == [2]
            assert second.generation == 2
        finally:
            arena.close()
        assert not repro_segments()

    def test_int8_tensors_publish_packed(self, tiny_table):
        est = TensorEstimator(3.0).fit(tiny_table)
        est.codes = np.arange(4096, dtype=np.int8)  # a packed int8 weight
        arena = ModelArena()
        try:
            handle = arena.publish(est)
            # int8 bytes ride at 1 byte/element (the fitted estimator
            # carries a few other tensors, so bound rather than equate):
            # an upcast of the 4096 codes would add 32 KiB, not 4 KiB.
            assert 1024 * 8 + 4096 <= handle.tensor_bytes < 1024 * 8 + 4096 * 8
            attachment = ModelArena.attach(handle.name)
            try:
                assert attachment.model.codes.dtype == np.int8
                np.testing.assert_array_equal(
                    attachment.model.codes, est.codes
                )
            finally:
                attachment.close()
        finally:
            arena.close()

    def test_attach_unknown_segment_raises(self):
        from repro.shard import ArenaError

        with pytest.raises(ArenaError, match="gone"):
            ModelArena.attach("repro-nonexistent-g1")


# ----------------------------------------------------------------------
# Binary codec: seeded round-trip properties
# ----------------------------------------------------------------------
class TestCodecProperties:
    """Property-style round-trips over 1000+ randomized batches."""

    CASES = 1200

    @staticmethod
    def random_query(rng: np.random.Generator) -> Query:
        preds = []
        k = int(rng.integers(1, 5))
        columns = rng.choice(64, size=k, replace=False)
        for column in (int(c) for c in columns):
            shape = rng.random()
            if shape < 0.2:  # one-sided lo
                preds.append(Predicate(column, float(rng.normal()), None))
            elif shape < 0.4:  # one-sided hi
                preds.append(Predicate(column, None, float(rng.normal())))
            elif shape < 0.5:  # exotic bounds: NaN / ±inf travel as-is
                exotic = [math.nan, math.inf, -math.inf, 0.0, -0.0]
                preds.append(
                    Predicate(
                        column,
                        exotic[int(rng.integers(len(exotic)))],
                        exotic[int(rng.integers(len(exotic)))],
                    )
                )
            else:  # closed range (possibly empty: lo > hi)
                lo, hi = float(rng.normal()), float(rng.normal())
                preds.append(Predicate(column, lo, hi))
        return Query(tuple(preds))

    @staticmethod
    def assert_bounds_equal(a: float | None, b: float | None) -> None:
        if a is None or b is None:
            assert a is b
        else:
            # bit-exact, so NaN == NaN and -0.0 != 0.0 distinctions hold
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_round_trip_many_batches(self):
        rng = np.random.default_rng(1234)
        buf = bytearray(1 << 16)
        cases = 0
        while cases < self.CASES:
            n = int(rng.integers(0, 9))
            batch = [self.random_query(rng) for _ in range(n)]
            trace_ctx = None
            if rng.random() < 0.5:
                parent = (
                    int(rng.integers(0, 2**63)) if rng.random() < 0.5 else None
                )
                trace_ctx = (int(rng.integers(0, 2**63)), parent)
            used = pack_queries(batch, buf, trace_ctx=trace_ctx)
            got, got_trace = unpack_queries(buf[:used])
            assert len(got) == n
            for query, round_tripped in zip(batch, got):
                assert len(round_tripped.predicates) == len(query.predicates)
                for p, q in zip(query.predicates, round_tripped.predicates):
                    assert p.column == q.column
                    self.assert_bounds_equal(p.lo, q.lo)
                    self.assert_bounds_equal(p.hi, q.hi)
            assert got_trace == trace_ctx
            cases += max(n, 1)

    def test_result_round_trip_nan_inf(self):
        rng = np.random.default_rng(99)
        buf = bytearray(1 << 12)
        for _ in range(50):
            n = int(rng.integers(0, 40))
            estimates = rng.normal(size=n)
            estimates[rng.random(n) < 0.3] = np.nan
            estimates[rng.random(n) < 0.2] = np.inf
            estimates[rng.random(n) < 0.2] = -np.inf
            codes = rng.integers(0, 3, size=n).astype(np.uint8)
            used = pack_results(estimates, codes, buf)
            values, got_codes = unpack_results(buf[:used])
            assert values.tobytes() == estimates.tobytes()  # NaN-exact
            np.testing.assert_array_equal(got_codes, codes)

    def test_empty_batch_round_trips(self):
        buf = bytearray(256)
        used = pack_queries([], buf)
        got, trace = unpack_queries(buf[:used])
        assert got == [] and trace is None
        used = pack_results(np.zeros(0), np.zeros(0, dtype=np.uint8), buf)
        values, codes = unpack_results(buf[:used])
        assert values.size == 0 and codes.size == 0

    def test_overflow_raises_codec_overflow(self):
        buf = bytearray(64)
        with pytest.raises(CodecOverflow):
            pack_queries(queries_for(20), buf)
        with pytest.raises(CodecOverflow):
            pack_results(np.zeros(100), np.zeros(100, dtype=np.uint8), buf)

    def test_garbage_frame_raises_codec_error(self):
        with pytest.raises(CodecError, match="magic"):
            unpack_queries(b"\x00" * 32)
        with pytest.raises(CodecError, match="header"):
            unpack_results(b"\x01")


def two_query_frame() -> tuple[bytearray, int]:
    """A valid frame of two queries over columns (0, 1) and (2,).

    Without a trace context the layout is: 16-byte header, u32 counts
    at 16, u32 cols at 24, u8 pflags at 36.
    """
    buf = bytearray(256)
    used = pack_queries(
        [
            Query((Predicate(0, 1.0, 2.0), Predicate(1, None, 3.0))),
            Query((Predicate(2, 4.0, None),)),
        ],
        buf,
    )
    return buf, used


def patch_u32(buf: bytearray, offset: int, value: int) -> None:
    buf[offset : offset + 4] = np.uint32(value).tobytes()


def zero_predicate_frame() -> bytes:
    buf, used = two_query_frame()
    patch_u32(buf, 16, 3)  # counts (2, 1) -> (3, 0): the sum still matches
    patch_u32(buf, 20, 0)
    return bytes(buf[:used])


def repeated_column_frame() -> bytes:
    buf, used = two_query_frame()
    patch_u32(buf, 28, 0)  # the first query's cols (0, 1) -> (0, 0)
    return bytes(buf[:used])


def unbounded_predicate_frame() -> bytes:
    buf, used = two_query_frame()
    buf[38] = 0  # the third predicate loses its lo-present bit
    return bytes(buf[:used])


class TestCodecValidation:
    """Frames describing queries :class:`Query` would refuse."""

    def test_two_query_frame_is_valid(self):
        buf, used = two_query_frame()
        batch, _ = unpack_queries(bytes(buf[:used]))
        assert batch == [
            Query((Predicate(0, 1.0, 2.0), Predicate(1, None, 3.0))),
            Query((Predicate(2, 4.0, None),)),
        ]

    @pytest.mark.parametrize(
        "frame, message",
        [
            (zero_predicate_frame, "no predicates"),
            (repeated_column_frame, "repeats a column"),
            (unbounded_predicate_frame, "no bound"),
        ],
    )
    def test_invalid_query_raises_codec_error(self, frame, message):
        with pytest.raises(CodecError, match=message):
            unpack_queries(frame())


class ThreadWorker:
    """``_worker_main`` on a thread, fed through a pipe and a ring
    exactly as a forked shm worker is (one fresh slot per request).

    ``_worker_main`` installs a worker's telemetry capture, which resets
    the process-wide registry and event log and installs a span
    collector.  A forked worker does that to its own copies; this one
    shares the test process's, so it gets fresh ones while it runs and
    :meth:`close` puts the test process's back.
    """

    def __init__(self, estimator) -> None:
        self.saved = (
            obs_metrics._default_registry,
            obs_events._default_log,
            get_collector(),
        )
        obs_metrics._default_registry = MetricsRegistry()
        obs_events._default_log = obs_events.EventLog()
        self.ring = ShmRing(4, 1 << 16)
        self.conn, child = multiprocessing.Pipe()
        self.thread = threading.Thread(
            target=_worker_main, args=(estimator, child), kwargs={"ring": self.ring}
        )
        self.thread.start()

    def serve(self, frame: bytes, request_id: int = 1):
        slot = self.ring.acquire()
        self.ring.slot_view(slot)[: len(frame)] = frame
        self.conn.send(("serve_slot", request_id, slot, len(frame)))
        return self.conn.recv()

    def close(self) -> None:
        self.conn.send(("stop",))
        assert self.conn.recv()[0] == "stopped"
        self.thread.join(timeout=5.0)
        self.ring.close(unlink=True)
        registry, log, collector = self.saved
        obs_metrics._default_registry = registry
        obs_events._default_log = log
        uninstall_capture()
        if collector is None:
            uninstall_collector()
        else:
            install_collector(collector)


class TestColumnarWorker:
    @pytest.fixture(scope="class")
    def mscn(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        return MscnEstimator(epochs=2).fit(small_synthetic, train)

    @pytest.mark.parametrize(
        "frame",
        [zero_predicate_frame, repeated_column_frame, unbounded_predicate_frame],
    )
    def test_invalid_frame_gets_error_reply(self, tiny_table, frame):
        worker = ThreadWorker(TensorEstimator(3.0).fit(tiny_table))
        try:
            op, request_id, message, _ = worker.serve(frame(), request_id=7)
            assert (op, request_id) == ("error", 7)
            assert message.startswith("CodecError")
            # the worker survives and answers the next valid frame
            buf, used = two_query_frame()
            reply = worker.serve(bytes(buf[:used]), request_id=8)
            assert reply[:2] == ("result_slot", 8)
        finally:
            worker.close()

    def test_thread_worker_leaves_parent_telemetry_alone(self, tiny_table):
        counter = get_registry().counter("test_parent_reads_total")
        counter.inc(3.0)
        before = get_collector()
        worker = ThreadWorker(TensorEstimator(3.0).fit(tiny_table))
        try:
            buf, used = two_query_frame()
            assert worker.serve(bytes(buf[:used]))[0] == "result_slot"
        finally:
            worker.close()
        assert get_registry().counter("test_parent_reads_total") is counter
        assert counter.value() == 3.0
        assert get_collector() is before

    def test_shm_served_mscn_batch_stays_columnar(
        self, mscn, synthetic_workloads, monkeypatch
    ):
        _, test = synthetic_workloads
        queries = list(test.queries[:128])
        expected = mscn.estimate_many(queries)

        def refuse(self):
            raise AssertionError("the worker built Query objects")

        monkeypatch.setattr(QueryBatch, "_materialize", refuse)
        buf = bytearray(1 << 16)
        frame = bytes(buf[: pack_queries(queries, buf)])
        worker = ThreadWorker(mscn)
        try:
            reply = worker.serve(frame)
            assert reply[0] == "result_slot", reply
            values, codes = unpack_results(
                worker.ring.slot_view(reply[2])[: reply[3]]
            )
        finally:
            worker.close()
        assert values.tobytes() == expected.tobytes()
        assert not codes.any()


# ----------------------------------------------------------------------
# Shm ring
# ----------------------------------------------------------------------
class TestShmRing:
    def test_acquire_release_cycle(self):
        ring = ShmRing(3, 4096)
        try:
            slots = [ring.acquire() for _ in range(3)]
            assert sorted(slots) == [0, 1, 2]
            assert ring.acquire() is None  # exhausted
            ring.release(slots[0])
            assert ring.free_count == 1
            with pytest.raises(ValueError, match="twice"):
                ring.release(slots[0])
        finally:
            ring.close(unlink=True)
        assert not repro_segments()

    def test_slot_views_are_disjoint(self):
        ring = ShmRing(2, 1024)
        try:
            a, b = ring.slot_view(0), ring.slot_view(1)
            a[:4] = b"aaaa"
            b[:4] = b"bbbb"
            assert bytes(ring.slot_view(0)[:4]) == b"aaaa"
            del a, b
        finally:
            ring.close(unlink=True)


# ----------------------------------------------------------------------
# Supervisor data plane
# ----------------------------------------------------------------------
@needs_fork
class TestSupervisorTransports:
    def make(self, estimator, table, **kwargs):
        estimator.fit(table)
        supervisor = WorkerSupervisor(
            "s0",
            estimator,
            kwargs.pop("num_workers", 2),
            mode=kwargs.pop("mode", "fork"),
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

    def test_shm_and_inline_answers_bit_identical(self, tiny_table):
        batch = queries_for(32)
        answers = {}
        for mode in ("inline", "fork"):
            supervisor = self.make(TensorEstimator(4.25), tiny_table, mode=mode)
            try:
                result = supervisor.dispatch(batch)
                assert result.values is not None
                answers[mode] = np.asarray(result.values)
            finally:
                supervisor.drain()
        assert answers["inline"].tobytes() == answers["fork"].tobytes()
        assert not repro_segments()

    def test_shm_transport_counts_batches(self, tiny_table):
        supervisor = self.make(TensorEstimator(1.0), tiny_table)
        try:
            supervisor.dispatch(queries_for(8))
            supervisor.dispatch(queries_for(8))
            assert supervisor.transport_stats["shm_batches"] == 2
            assert supervisor.transport_stats["pipe_batches"] == 0
        finally:
            supervisor.drain()

    def test_oversized_batch_answered_by_fallback_chain(self, tiny_table):
        # Slot too small for the frame: the batch never reaches the
        # worker, the shard's fallback chain answers it, and the worker
        # is not blamed for it.
        router = ShardRouter(
            TensorEstimator(2.5).fit(tiny_table),
            [TensorEstimator(1.0, name="fallback").fit(tiny_table)],
            num_shards=1,
            mode="fork",
        )
        supervisor = router.shards["shard-0"].supervisor
        supervisor.slot_bytes = 128  # the ring is sized at start
        with router:
            served = router.serve_queries(queries_for(16))
            assert [s.estimate for s in served] == [2.5] * 16
            assert all(s.tier == "tensor" for s in served)
            assert router.totals().fallback_served == 16
            assert supervisor.live_count == 1
            assert supervisor.total_restarts == 0
            assert supervisor.transport_stats["shm_overflows"] == 1
            assert supervisor.transport_stats["shm_batches"] == 0
            assert supervisor.ring_free_count == supervisor._ring.num_slots
        assert not repro_segments()

    def test_second_ticket_never_shares_a_busy_worker(self, tiny_table):
        # Two batches in flight on a one-worker pool: the second finds no
        # free worker and settles unanswered instead of overwriting the
        # first batch's ring slot.
        supervisor = self.make(TensorEstimator(3.5), tiny_table, num_workers=1)
        try:
            full = supervisor.ring_free_count
            first = supervisor.submit(queries_for(4))
            second = supervisor.submit(queries_for(6))
            answered = supervisor.collect(first)
            unanswered = supervisor.collect(second)
            np.testing.assert_array_equal(answered.values, [3.5] * 4)
            assert unanswered.values is None
            assert unanswered.attempts == 0
            assert supervisor.live_count == 1
            assert supervisor.total_restarts == 0
            assert supervisor.ring_free_count == full
            # the worker serves the next batch as usual
            again = supervisor.dispatch(queries_for(2))
            np.testing.assert_array_equal(again.values, [3.5] * 2)
        finally:
            supervisor.drain()

    def test_crashed_worker_slot_is_reclaimed(self, tiny_table):
        # Regression: a worker that dies holding a ring slot must not
        # leak it — ``_fail`` reclaims the slot after the kill, so the
        # ring refills and later dispatches still have slots to use.
        crash = WorkerCrashFault(TensorEstimator(3.0), probability=1.0, after=0)
        supervisor = self.make(
            crash,
            tiny_table,
            num_workers=1,
            policy=RetryPolicy(
                max_attempts=1,
                backoff_base_seconds=0.01,
                backoff_cap_seconds=0.05,
            ),
        )
        try:
            full = supervisor.ring_free_count
            result = supervisor.dispatch(queries_for(4))
            assert result.values is None  # the lone worker died mid-batch
            assert supervisor.transport_stats["slots_reclaimed"] >= 1
            assert supervisor.ring_free_count == full
        finally:
            supervisor.drain()
        assert not repro_segments()


# ----------------------------------------------------------------------
# Zero-copy live swap
# ----------------------------------------------------------------------
class PickleCountingEstimator(TensorEstimator):
    """Counts every serialization of an instance made in this process."""

    pickles = 0

    def __reduce_ex__(self, protocol):
        type(self).pickles += 1
        return super().__reduce_ex__(protocol)


def worker_pids(router) -> dict[str, list[int]]:
    return {
        name: [w.process.pid for w in shard.supervisor._workers if w.process]
        for name, shard in router.shards.items()
    }


def swap_router(table, registry) -> ShardRouter:
    """A 2-shard forked router over a 4.0 incumbent with fast restarts."""
    return ShardRouter(
        TensorEstimator(4.0).fit(table),
        [TensorEstimator(1.0, name="fallback").fit(table)],
        num_shards=2,
        mode="fork",
        policy=RetryPolicy(
            max_attempts=2, backoff_base_seconds=0.01, backoff_cap_seconds=0.05
        ),
        registry=registry,
    )


def swap_outcomes(registry) -> dict[str, int]:
    series = registry.counter(SHARD_SWAPS).snapshot()["series"]
    return {
        dict(entry["labels"])["outcome"]: int(entry["value"]) for entry in series
    }


@needs_fork
class TestLiveSwap:
    def test_swap_keeps_worker_pids_and_model_changes(self, tiny_table):
        supervisor = WorkerSupervisor(
            "s0", TensorEstimator(1.0).fit(tiny_table), 2, mode="fork"
        )
        supervisor.start()
        try:
            before = [w.process.pid for w in supervisor._workers]
            assert supervisor.swap_model(TensorEstimator(9.0).fit(tiny_table))
            after = [w.process.pid for w in supervisor._workers]
            assert before == after  # no refork: same processes
            result = supervisor.dispatch(queries_for(4))
            np.testing.assert_array_equal(result.values, [9.0] * 4)
            assert supervisor.generation is not None
        finally:
            supervisor.drain()
        assert not repro_segments()

    def test_inline_swap_serves_candidate(self, tiny_table):
        supervisor = WorkerSupervisor(
            "s0", TensorEstimator(1.0).fit(tiny_table), 1, mode="inline"
        )
        supervisor.start()
        try:
            # no arena generation is involved: the pool adopts the model
            assert not supervisor.swap_model(TensorEstimator(2.0).fit(tiny_table))
            result = supervisor.dispatch(queries_for(4))
            np.testing.assert_array_equal(result.values, [2.0] * 4)
        finally:
            supervisor.drain()

    def test_swap_before_start_is_inherited_by_the_fork(self, tiny_table):
        supervisor = WorkerSupervisor(
            "s0", TensorEstimator(1.0).fit(tiny_table), 1, mode="fork"
        )
        assert not supervisor.swap_model(TensorEstimator(6.0).fit(tiny_table))
        supervisor.start()
        try:
            result = supervisor.dispatch(queries_for(4))
            np.testing.assert_array_equal(result.values, [6.0] * 4)
            assert supervisor.generation is None
        finally:
            supervisor.drain()
        assert not repro_segments()

    def test_router_rolling_swap_is_zero_copy(self, tiny_table):
        primary = TensorEstimator(4.0).fit(tiny_table)
        fallback = TensorEstimator(1.0, name="fallback").fit(tiny_table)
        probes = queries_for(4)
        router = ShardRouter(primary, [fallback], num_shards=2, mode="fork")
        with router:
            pids = worker_pids(router)
            report = router.rolling_swap(
                TensorEstimator(7.0).fit(tiny_table), probe_queries=probes
            )
            assert report.promoted
            # A promoted swap over the arena pickles no model over a
            # pipe and keeps every worker process.
            assert router.swap_stats() == {"arena_swaps": 2, "model_pickles": 0}
            assert worker_pids(router) == pids
            # One publish served the whole fleet.
            assert router.arena.published == 1
            served = router.serve_queries(queries_for(8))
            assert [s.estimate for s in served] == [7.0] * 8
        assert not repro_segments()

    def test_rolling_swap_pickles_the_candidate_once(self, tiny_table):
        primary = TensorEstimator(4.0).fit(tiny_table)
        fallback = TensorEstimator(1.0, name="fallback").fit(tiny_table)
        candidate = PickleCountingEstimator(7.0).fit(tiny_table)
        router = ShardRouter(primary, [fallback], num_shards=2, mode="fork")
        with router:
            PickleCountingEstimator.pickles = 0
            report = router.rolling_swap(candidate, probe_queries=queries_for(4))
            assert report.promoted
            # the arena publish is the only serialization: both shards'
            # workers attach that one segment, nothing rides a pipe
            assert PickleCountingEstimator.pickles == 1
            assert router.arena.published == 1
            served = router.serve_queries(queries_for(8))
            assert [s.tier for s in served] == ["worker"] * 8
            assert [s.estimate for s in served] == [7.0] * 8

    def test_router_rejects_other_transports(self, tiny_table):
        primary = TensorEstimator(4.0).fit(tiny_table)
        with pytest.raises(ValueError, match="transport"):
            ShardRouter(primary, [], mode="inline", transport="pipe")

    def test_publish_failure_is_a_not_promoted_report(self, tiny_table, monkeypatch):
        registry = MetricsRegistry()
        router = swap_router(tiny_table, registry)
        with router:
            pids = worker_pids(router)

            def refuse(model):
                raise ArenaError("no space left on /dev/shm")

            monkeypatch.setattr(router.arena, "publish", refuse)
            report = router.rolling_swap(
                TensorEstimator(7.0).fit(tiny_table), probe_queries=queries_for(4)
            )
            assert not report.promoted and not report.rolled_back
            assert report.swapped == ()
            assert "arena publish failed" in report.reason
            assert "no space left" in report.reason
            # no shard was touched: same workers, incumbent still serving
            assert worker_pids(router) == pids
            assert router.swap_stats()["arena_swaps"] == 0
            served = router.serve_queries(queries_for(8))
            assert [s.tier for s in served] == ["worker"] * 8
            assert [s.estimate for s in served] == [4.0] * 8
        assert swap_outcomes(registry) == {"publish_failed": 1}
        assert not repro_segments()

    def test_rollback_publish_failure_restarts_on_incumbent(
        self, tiny_table, monkeypatch
    ):
        registry = MetricsRegistry()
        router = swap_router(tiny_table, registry)
        with router:
            pids = worker_pids(router)
            publish = router.arena.publish
            published = []

            def candidate_only(model):
                # the candidate publishes; the rollback's incumbent cannot
                published.append(model)
                if len(published) > 1:
                    raise ArenaError("no space left on /dev/shm")
                return publish(model)

            monkeypatch.setattr(router.arena, "publish", candidate_only)
            report = router.rolling_swap(
                NaNFault(TensorEstimator(9.0), probability=1.0).fit(tiny_table),
                probe_queries=queries_for(4),
            )
            assert report.rolled_back and not report.promoted
            assert report.reason == "post-swap probe failed on shard-0"
            # shard-0's workers could not attach the incumbent, so they
            # were failed; shard-1 was never swapped
            shard0 = router.shards["shard-0"].supervisor
            assert shard0.live_count == 0
            assert shard0.generation is None
            assert worker_pids(router)["shard-1"] == pids["shard-1"]
            # past the restart backoff every worker serves the incumbent
            time.sleep(0.1)
            served = router.serve_queries(queries_for(8))
            assert [s.tier for s in served] == ["worker"] * 8
            assert [s.estimate for s in served] == [4.0] * 8
            assert worker_pids(router)["shard-0"] != pids["shard-0"]
            assert shard0.live_count == 1
        assert swap_outcomes(registry) == {"rolled_back": 1}
        assert not repro_segments()
