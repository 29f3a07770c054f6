"""The columnar chain walk: batch arrays built once, bookkeeping once per
(tier, sub-batch).

``EstimatorService`` wraps the queries a walk serves in one
:class:`~repro.core.query.QueryBatch`; the rule shortcut, the guard's
OOD and clamp passes and the tiers' batch kernels all read its arrays,
and each tier gets an order-preserving ``take`` of it.  The per-query
bookkeeping became per-(tier, sub-batch) calls: ``Histogram.observe_many``,
``LatencyWindow.extend``, counter ``inc(k)`` and
``CircuitBreaker.record_outcomes``.  These tests pin each vectorized
piece to the per-query form it replaced, and pin the whole walk to
values recorded from the per-query walker it replaced
(``data/columnar_walk_expected.json``; ``python
tests/test_columnar_walk.py`` prints the current walk's record in the
same form).
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CardinalityEstimator, Predicate, Query
from repro.core.query import PredicateArrays, QueryBatch
from repro.core.table import Table
from repro.guard import EstimateGuard
from repro.obs import EventLog, Histogram, LatencyWindow, MetricsRegistry
from repro.rules.enforce import trivial_answer, trivial_answers
from repro.serve import BreakerConfig, CircuitBreaker, EstimateCache, EstimatorService

EXPECTED = Path(__file__).parent / "data" / "columnar_walk_expected.json"

#: bounds drawn besides plain integers: NaN, ±inf and signed zeros
EXOTIC = [math.nan, math.inf, -math.inf, 0.0, -0.0]

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def bounds(domain: int):
    return st.one_of(
        st.integers(-3, domain + 3).map(float),
        st.sampled_from(EXOTIC),
    )


@st.composite
def queries(draw, num_columns: int = 3, domain: int = 10) -> Query:
    """Equality, open, closed, empty, full-domain and exotic predicates."""
    columns = draw(
        st.lists(
            st.integers(0, num_columns - 1), min_size=1, max_size=num_columns,
            unique=True,
        )
    )
    preds = []
    for column in columns:
        lo, hi = draw(bounds(domain)), draw(bounds(domain))
        shape = draw(st.sampled_from(["eq", "ge", "le", "closed", "full"]))
        if shape == "eq":
            preds.append(Predicate(column, lo, lo))
        elif shape == "ge":
            preds.append(Predicate(column, lo, None))
        elif shape == "le":
            preds.append(Predicate(column, None, hi))
        elif shape == "full":
            preds.append(Predicate(column, -1.0, float(domain + 1)))
        else:
            preds.append(Predicate(column, lo, hi))
    return Query(tuple(preds))


def small_table(num_columns: int = 3, domain: int = 10) -> Table:
    rng = np.random.default_rng(5)
    data = rng.integers(0, domain + 1, size=(40, num_columns)).astype(np.float64)
    return Table(
        "walk",
        data,
        [f"c{i}" for i in range(num_columns)],
        [False] * num_columns,
    )


def assert_arrays_equal(got: PredicateArrays, want: PredicateArrays) -> None:
    for f in dataclasses.fields(PredicateArrays):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        np.testing.assert_array_equal(a, b, err_msg=f.name)
        # signed zeros must survive the slicing bit for bit
        assert np.signbit(a).tolist() == np.signbit(b).tolist(), f.name


# ----------------------------------------------------------------------
# QueryBatch.of / take
# ----------------------------------------------------------------------
class TestQueryBatchTake:
    @PROPERTY
    @given(
        batch=st.lists(queries(), min_size=1, max_size=24),
        data=st.data(),
    )
    def test_take_equals_arrays_of_the_picked_queries(self, batch, data):
        positions = data.draw(
            st.lists(st.integers(0, len(batch) - 1), max_size=len(batch), unique=True)
        )
        whole = QueryBatch.of(batch)
        whole.arrays  # slice built arrays, not the query list
        sub = whole.take(positions)
        picked = [batch[i] for i in positions]
        assert_arrays_equal(sub.arrays, PredicateArrays.of(picked))
        assert list(sub) == picked

    @PROPERTY
    @given(batch=st.lists(queries(), min_size=1, max_size=12), data=st.data())
    def test_take_before_arrays_builds_from_the_picked_queries(self, batch, data):
        positions = data.draw(st.permutations(range(len(batch))))
        sub = QueryBatch.of(batch).take(positions)
        picked = [batch[i] for i in positions]
        assert_arrays_equal(sub.arrays, PredicateArrays.of(picked))

    def test_of_keeps_queries_and_arrays(self):
        qs = [Query((Predicate(0, 1.0, 2.0),)), Query((Predicate(1, None, 4.0),))]
        batch = QueryBatch.of(qs)
        assert batch.materialized and batch[1] is qs[1]
        assert PredicateArrays.of(batch) is batch.arrays

    def test_take_of_a_decoded_batch_stays_columnar(self):
        arrays = PredicateArrays.of(
            [Query((Predicate(0, 1.0, 2.0),)), Query((Predicate(1, 3.0, None),))]
        )
        sub = QueryBatch(arrays).take([1])
        assert not sub.materialized
        assert sub == [Query((Predicate(1, 3.0, None),))]


# ----------------------------------------------------------------------
# trivial_answers
# ----------------------------------------------------------------------
class TestTrivialAnswers:
    @PROPERTY
    @given(batch=st.lists(queries(), min_size=0, max_size=24))
    def test_equals_the_scalar_rule(self, batch):
        table = small_table()
        got = trivial_answers(batch, table)
        want = [trivial_answer(q, table) for q in batch]
        assert got.shape == (len(batch),)
        for g, w in zip(got.tolist(), want):
            if w is None:
                assert math.isnan(g)
            else:
                assert g == w

    def test_empty_nan_and_full_domain_queries(self):
        table = small_table()
        full = Query(tuple(Predicate(c, -1.0, 11.0) for c in range(3)))
        full_open = Query(
            (
                Predicate(0, None, 11.0),
                Predicate(1, -1.0, None),
                Predicate(2, -5.0, 99.0),
            )
        )
        empty = Query((Predicate(0, 5.0, 1.0), Predicate(1, 0.0, 3.0)))
        nan_lo = Query(tuple(Predicate(c, math.nan, 11.0) for c in range(3)))
        nan_hi = Query((Predicate(0, 1.0, math.nan),))
        narrow = Query(tuple(Predicate(c, 0.0, 5.0) for c in range(3)))
        batch = [full, full_open, empty, nan_lo, nan_hi, narrow]
        got = trivial_answers(batch, table).tolist()
        assert got[:3] == [float(table.num_rows), float(table.num_rows), 0.0]
        assert all(math.isnan(v) for v in got[3:])
        assert [trivial_answer(q, table) for q in batch[3:]] == [None] * 3


# ----------------------------------------------------------------------
# CircuitBreaker.record_outcomes
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _breaker_state(breaker: CircuitBreaker) -> tuple:
    return (
        breaker._state,
        breaker._consecutive_failures,
        breaker._probe_streak,
        breaker._opened_at,
        breaker.trips,
    )


class TestRecordOutcomes:
    @PROPERTY
    @given(
        threshold=st.integers(1, 4),
        recovery=st.sampled_from([0.0, 1.0, 5.0]),
        probes=st.integers(1, 3),
        script=st.lists(
            st.tuples(
                st.lists(st.booleans(), max_size=12),
                st.sampled_from([0.0, 0.5, 2.0]),
            ),
            max_size=8,
        ),
    )
    def test_replays_the_per_event_sequence(self, threshold, recovery, probes, script):
        config = BreakerConfig(
            failure_threshold=threshold,
            recovery_seconds=recovery,
            probe_successes=probes,
        )
        clocks, logs, breakers = [], [], []
        for _ in range(2):
            clock, log = _Clock(), EventLog()
            clocks.append(clock)
            logs.append(log)
            breakers.append(
                CircuitBreaker(
                    config, clock, name="t", events=log, registry=MetricsRegistry()
                )
            )
        batched, single = breakers
        for mask, advance in script:
            for clock in clocks:
                clock.now += advance
            batched.record_outcomes(mask)
            for failed in mask:
                single.record_failure() if failed else single.record_success()
            assert _breaker_state(batched) == _breaker_state(single)
        transitions = [
            [(e.get("old"), e.get("new")) for e in log.events("breaker.transition")]
            for log in logs
        ]
        assert transitions[0] == transitions[1]

    def test_accepts_a_numpy_mask(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2), _Clock(), events=EventLog(),
            registry=MetricsRegistry(),
        )
        breaker.record_outcomes(np.array([True, False, True, True]))
        assert breaker.trips == 1


# ----------------------------------------------------------------------
# Histogram.observe_many / LatencyWindow.extend
# ----------------------------------------------------------------------
class TestObserveMany:
    @PROPERTY
    @given(
        observations=st.lists(
            st.tuples(
                st.floats(0.0, 200.0, allow_nan=False)
                | st.sampled_from([1e-6, 1e-3, 1.0]),
                st.integers(0, 70),
            ),
            max_size=10,
        )
    )
    def test_equals_repeated_observe(self, observations):
        many, one = Histogram("h_many"), Histogram("h_one")
        for value, count in observations:
            many.observe_many(value, count, tier="t")
            for _ in range(count):
                one.observe(value, tier="t")
        total = sum(count for _, count in observations)
        assert many.count(tier="t") == one.count(tier="t") == total
        want = pytest.approx(one.sum(tier="t"), rel=1e-12, abs=0.0)
        assert many.sum(tier="t") == want
        if total:
            assert many._series[(("tier", "t"),)].counts == one._series[
                (("tier", "t"),)
            ].counts

    def test_latency_window_extend_keeps_the_window(self):
        window = LatencyWindow(maxlen=4)
        window.extend([0.001] * 3).extend(np.array([0.002, 0.004]))
        assert len(window) == 4
        assert window.percentile_ms(100.0) == 4.0


# ----------------------------------------------------------------------
# The walk: one array build per batch, same results as the per-query walker
# ----------------------------------------------------------------------
class _Scripted(CardinalityEstimator):
    """Answers scripted by a query's checksum and the call count: NaN,
    inf, negative, past-num_rows and in-range answers, plus calls that
    raise or overrun the deadline by advancing the fake clock."""

    def __init__(self, name, clock, answers, raise_every=0, slow_every=0) -> None:
        super().__init__()
        self.name = name
        self.clock = clock
        self.answers = answers
        self.raise_every = raise_every
        self.slow_every = slow_every
        self.calls = 0

    def _fit(self, table, workload) -> None:
        pass

    def _update(self, table, appended, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return float(self.estimate_many([query])[0])

    def estimate_many(self, queries) -> np.ndarray:
        self.calls += 1
        if self.raise_every and self.calls % self.raise_every == 0:
            raise RuntimeError(f"{self.name} call {self.calls} failed")
        if self.slow_every and self.calls % self.slow_every == 0:
            self.clock.now += 0.25  # past the 100 ms deadline
        n = self.table.num_rows
        return np.array(
            [self.answers(zlib.crc32(repr(q).encode()), n) for q in queries],
            dtype=np.float64,
        )


def _primary_answer(h: int, n: int) -> float:
    if h % 10 < 5:
        return [math.nan, math.inf, -5.0, 3.0 * n, n - 1.0][h % 10]
    return 1.0 + h % 7


def _second_answer(h: int, n: int) -> float:
    return math.nan if h % 4 == 0 else 2.0 + h % 3


def _walk_queries(rng: np.random.Generator, count: int) -> list[Query]:
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.08:  # contradictory: shortcut 0
            out.append(Query((Predicate(0, 9.0, 2.0), Predicate(2, 1.0, 4.0))))
            continue
        if kind < 0.13:  # full domain: shortcut num_rows
            out.append(Query(tuple(Predicate(c, -1.0, 30.0) for c in range(3))))
            continue
        k = int(rng.integers(1, 4))
        preds = []
        for c in sorted(rng.choice(3, size=k, replace=False).tolist()):
            lo = float(rng.integers(0, 20))
            hi = lo + float(rng.integers(0, 6))
            if kind > 0.9:  # far outside the trained range: OOD
                hi += 60.0
            preds.append(Predicate(c, lo, hi))
        out.append(Query(tuple(preds)))
    return out


def record_walk() -> dict:
    """Serve a scripted session and record everything the walk decides."""
    rng = np.random.default_rng(19)
    data = rng.integers(0, 21, size=(300, 3)).astype(np.float64)
    table = Table("walk", data, ["a", "b", "c"], [False, False, False])
    clock = _Clock()
    registry, events = MetricsRegistry(), EventLog(capacity=100_000)
    tiers = [
        _Scripted("primary", clock, _primary_answer, raise_every=5, slow_every=7),
        _Scripted("second", clock, _second_answer, raise_every=4),
        _Scripted("final", clock, lambda h, n: 3.0),
    ]
    service = EstimatorService(
        tiers,
        deadline_ms=100.0,
        breaker=BreakerConfig(
            failure_threshold=4, recovery_seconds=0.5, probe_successes=2
        ),
        clock=clock,
        registry=registry,
        events=events,
        cache=EstimateCache(48),
        guard=EstimateGuard(),
    )
    service.fit(table)
    pool = _walk_queries(rng, 160)
    served = []
    for step, size in enumerate([1, 5, 16, 1, 33, 64, 2, 16, 1, 40, 7, 64, 1, 24]):
        clock.now += 0.3
        picks = rng.integers(0, len(pool), size=size).tolist()
        batch = [pool[i] for i in picks]
        if size == 1:
            served.append(service.serve(batch[0]))
        else:
            served.extend(service.serve_batch(batch))
        if step == 6:
            appended = rng.integers(0, 21, size=(30, 3)).astype(np.float64)
            service.update(table.append_rows(appended), appended)
    metrics = sorted(
        line
        for line in registry.render_text().splitlines()
        if line.startswith(("repro_serve_", "repro_guard_", "repro_breaker_"))
    )
    return {
        "served": [
            [s.estimate, s.tier, s.tier_index, s.degraded, s.latency_seconds,
             [list(a) for a in s.attempts]]
            for s in served
        ],
        "health": dataclasses.asdict(service.health()),
        "metrics": metrics,
        "transitions": [
            [e.fields["breaker"], e.fields["old"], e.fields["new"]]
            for e in events.events("breaker.transition")
        ],
        "events": [[e.kind, dict(e.fields)] for e in events.events()],
    }


def _without_transitions(events: list) -> list:
    return [e for e in events if e[0] != "breaker.transition"]


def _canonical(record: dict) -> dict:
    return json.loads(json.dumps(record, sort_keys=True))


class TestColumnarWalk:
    def test_walk_matches_the_recorded_per_query_walk(self):
        got = _canonical(record_walk())
        want = json.loads(EXPECTED.read_text())
        assert got["served"] == want["served"]
        assert got["health"] == want["health"]
        assert got["metrics"] == want["metrics"]
        assert got["transitions"] == want["transitions"]
        # The per-query walker logged a breaker transition between the
        # events of the answers around it.  The columnar walk hands the
        # breaker a sub-batch's outcomes before it logs that sub-batch's
        # clamp, rejection and fallback events, so a transition moves
        # ahead of them; every other event keeps its place.
        assert _without_transitions(got["events"]) == _without_transitions(
            want["events"]
        )

    def test_the_recorded_session_covers_every_outcome(self):
        want = json.loads(EXPECTED.read_text())
        outcomes = {o for s in want["served"] for _, o in s[5]}
        assert {
            "served", "nan", "inf", "sanitized", "guard-clamped", "exception",
            "timeout", "skipped-open", "skipped-ood", "ood-reroute",
        } <= outcomes
        tiers = {s[1] for s in want["served"]}
        assert {"shortcut", "cache", "primary", "second", "final"} <= tiers

    def test_one_array_build_per_batch(self, monkeypatch, small_census):
        from repro.registry import make_fallback_chain

        service = EstimatorService(
            make_fallback_chain("deepdb", scale=None), guard=EstimateGuard()
        )
        service.fit(small_census)
        rng = np.random.default_rng(3)
        batch = []
        for i in range(64):
            c = int(rng.integers(0, small_census.num_columns))
            col = small_census.columns[c]
            lo, span = float(col.domain_min), col.domain_max - col.domain_min
            # every eighth query reaches far past the trained range: the
            # guard reroutes it, so both tiers get a take of the batch
            hi = lo + span * (3.0 if i % 8 == 0 else 1 / 3)
            batch.append(Query((Predicate(c, lo, hi),)))
        builds = []
        original = PredicateArrays.of.__func__

        def counting(cls, qs):
            if not isinstance(qs, QueryBatch):
                builds.append(len(qs))
            return original(cls, qs)

        monkeypatch.setattr(PredicateArrays, "of", classmethod(counting))
        served = service.serve_batch(batch)
        assert sum(s.tier == "deepdb" for s in served) == 56
        assert sum(("guard", "ood-reroute") in s.attempts for s in served) == 8
        assert builds == [64]


if __name__ == "__main__":
    print(json.dumps(_canonical(record_walk()), sort_keys=True, indent=1))
