"""Tests for the fault-tolerant serving layer (repro.serve)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core import CardinalityEstimator, Predicate, Query
from repro.datasets.updates import apply_update
from repro.faults import (
    CorruptionFault,
    ExceptionFault,
    LatencyFault,
    NaNFault,
    StaleModelFault,
)
from repro.guard import EstimateGuard
from repro.registry import (
    DEFAULT_FALLBACK_NAMES,
    make_estimator,
    make_fallback_chain,
    make_service,
)
from repro.serve import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    EstimateCache,
    EstimatorService,
    HeuristicConstantEstimator,
)


class StubEstimator(CardinalityEstimator):
    """Answers a constant; fit is free."""

    def __init__(self, value: float = 5.0, name: str = "stub") -> None:
        super().__init__()
        self.value = value
        self.name = name

    def _fit(self, table, workload) -> None:
        pass

    def _estimate(self, query) -> float:
        return self.value


class RawStub(StubEstimator):
    """Returns its value unclamped (bypasses the base-class max(0, .))."""

    def estimate(self, query) -> float:
        return self.value

    def estimate_many(self, queries) -> np.ndarray:
        return np.full(len(queries), self.value, dtype=np.float64)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def query() -> Query:
    return Query((Predicate(0, 1.0, 3.0),))


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        config = BreakerConfig(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_seconds=kwargs.pop("recovery_seconds", 10.0),
            probe_successes=kwargs.pop("probe_successes", 2),
        )
        return CircuitBreaker(config, clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allows_request()

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows_request()
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_recovery_window(self):
        breaker, clock = self.make(failure_threshold=1, recovery_seconds=10.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.now = 9.9
        assert not breaker.allows_request()
        clock.now = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allows_request()

    def test_probe_successes_close_the_breaker(self):
        breaker, clock = self.make(
            failure_threshold=1, recovery_seconds=1.0, probe_successes=2
        )
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(failure_threshold=1, recovery_seconds=1.0)
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        # the recovery window restarts from the re-trip
        clock.now = 2.5
        assert not breaker.allows_request()
        clock.now = 3.0
        assert breaker.allows_request()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(recovery_seconds=-1.0)
        with pytest.raises(ValueError):
            BreakerConfig(probe_successes=0)


class TestBreakerTransitionSequences:
    """The exact state walk, asserted via the event log (repro.obs)."""

    def make(self, **kwargs):
        from repro.obs import EventLog

        log = EventLog()
        clock = FakeClock()
        config = BreakerConfig(
            failure_threshold=kwargs.pop("failure_threshold", 2),
            recovery_seconds=kwargs.pop("recovery_seconds", 5.0),
            probe_successes=kwargs.pop("probe_successes", 2),
        )
        breaker = CircuitBreaker(config, clock, name="primary", events=log)
        return breaker, clock, log

    def sequence(self, log):
        return [
            (e["old"], e["new"])
            for e in log.events("breaker.transition", breaker="primary")
        ]

    def test_full_recovery_walk(self):
        breaker, clock, log = self.make()
        breaker.record_failure()
        breaker.record_failure()  # CLOSED -> OPEN
        clock.now = 5.0
        assert breaker.allows_request()  # lazy OPEN -> HALF_OPEN promotion
        breaker.record_success()
        breaker.record_success()  # HALF_OPEN -> CLOSED
        assert self.sequence(log) == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker, clock, log = self.make(failure_threshold=1)
        breaker.record_failure()  # CLOSED -> OPEN
        clock.now = 5.0
        breaker.record_success()  # promotes to HALF_OPEN, one probe short
        breaker.record_failure()  # HALF_OPEN -> OPEN
        assert self.sequence(log) == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]
        assert breaker.trips == 2

    def test_transitions_counted_in_registry(self):
        from repro.obs import BREAKER_TRANSITIONS, MetricsRegistry
        from repro.obs import EventLog

        registry = MetricsRegistry()
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1),
            clock,
            name="primary",
            events=EventLog(),
            registry=registry,
        )
        breaker.record_failure()
        counter = registry.counter(BREAKER_TRANSITIONS)
        assert counter.value(breaker="primary", old="closed", new="open") == 1

    def test_service_emits_fallback_and_breaker_events(self, tiny_table, query):
        from repro.obs import EventLog

        log = EventLog()
        bad = ExceptionFault(StubEstimator(name="primary"), probability=1.0)
        svc = EstimatorService(
            [bad, StubEstimator(9.0)],
            breaker=BreakerConfig(failure_threshold=2),
            events=log,
        )
        svc.fit(tiny_table)
        for _ in range(3):
            svc.serve(query)
        fallbacks = log.events("serve.fallback")
        assert len(fallbacks) == 3
        assert fallbacks[0]["tier"] == "stub"
        assert ("closed", "open") in [
            (e["old"], e["new"]) for e in log.events("breaker.transition")
        ]


class TestEstimatorService:
    def service(self, tiers, table, **kwargs):
        svc = EstimatorService(tiers, **kwargs)
        svc.fit(table)
        return svc

    def test_primary_serves_when_healthy(self, tiny_table, query):
        svc = self.service([StubEstimator(4.0), StubEstimator(9.0)], tiny_table)
        served = svc.serve(query)
        assert served.estimate == 4.0
        assert served.tier_index == 0
        assert not served.degraded

    def test_exception_falls_back(self, tiny_table, query):
        bad = ExceptionFault(StubEstimator(4.0, name="primary"), probability=1.0)
        svc = self.service([bad, StubEstimator(9.0)], tiny_table)
        served = svc.serve(query)
        assert served.estimate == 9.0
        assert served.degraded
        assert served.attempts[0][1] == "exception"

    def test_nan_and_inf_fall_back(self, tiny_table, query):
        for garbage, kind in ((float("nan"), "nan"), (float("inf"), "inf")):
            bad = NaNFault(StubEstimator(name="primary"), value=garbage)
            svc = self.service([bad, StubEstimator(9.0)], tiny_table)
            served = svc.serve(query)
            assert served.estimate == 9.0
            assert served.attempts[0][1] == kind

    def test_out_of_bounds_is_sanitized_but_served(self, tiny_table, query):
        wild = RawStub(10 * tiny_table.num_rows, name="wild")
        svc = self.service([wild, StubEstimator(9.0)], tiny_table)
        served = svc.serve(query)
        assert served.estimate == tiny_table.num_rows
        assert served.tier_index == 0  # clamped, not failed over
        health = svc.health()
        assert health.tiers[0].sanitized == 1

    def test_negative_estimate_is_sanitized(self, tiny_table, query):
        svc = self.service([RawStub(-50.0, name="neg")], tiny_table)
        assert svc.serve(query).estimate == 0.0

    def test_breaker_opens_and_skips_primary(self, tiny_table, query):
        bad = ExceptionFault(StubEstimator(name="primary"), probability=1.0)
        svc = self.service(
            [bad, StubEstimator(9.0)],
            tiny_table,
            breaker=BreakerConfig(failure_threshold=3),
        )
        for _ in range(10):
            assert svc.serve(query).estimate == 9.0
        health = svc.health()
        assert health.tiers[0].state == "open"
        assert health.tiers[0].attempts == 3
        assert health.tiers[0].skipped_open == 7
        assert health.tiers[0].trips == 1
        assert health.availability == 1.0

    def test_breaker_recovers_after_probe(self, tiny_table, query):
        clock = FakeClock()
        flaky = ExceptionFault(StubEstimator(4.0, name="primary"), probability=1.0)
        svc = EstimatorService(
            [flaky, StubEstimator(9.0)],
            breaker=BreakerConfig(
                failure_threshold=1, recovery_seconds=5.0, probe_successes=1
            ),
            deadline_ms=None,
            clock=clock,
        )
        svc.fit(tiny_table)
        assert svc.serve(query).estimate == 9.0  # trips the breaker
        assert svc.breaker_state(svc.tier_names[0]) is BreakerState.OPEN
        flaky.probability = 0.0  # the primary heals
        clock.now = 6.0
        served = svc.serve(query)  # half-open probe succeeds
        assert served.estimate == 4.0
        assert svc.breaker_state(svc.tier_names[0]) is BreakerState.CLOSED

    def test_deadline_aborts_slow_primary(self, tiny_table, query):
        slow = LatencyFault(
            StubEstimator(4.0, name="primary"), delay_seconds=0.05, probability=1.0
        )
        svc = self.service(
            [slow, StubEstimator(9.0)], tiny_table, deadline_ms=10.0
        )
        served = svc.serve(query)
        assert served.estimate == 9.0
        assert served.attempts[0][1] == "timeout"
        assert svc.health().tiers[0].failures["timeout"] == 1

    def test_exhausted_budget_skips_to_final_tier(self, tiny_table, query):
        clock = FakeClock()

        def ticking() -> float:
            clock.now += 1.0
            return clock.now

        svc = EstimatorService(
            [StubEstimator(4.0), StubEstimator(9.0, name="final")],
            deadline_ms=500.0,
            clock=ticking,
        )
        svc.fit(tiny_table)
        served = svc.serve(query)
        # the intermediate tier is skipped, but the designated final tier
        # is exempt from the deadline — the service must answer
        assert served.tier == "final"
        assert served.estimate == 9.0
        assert svc.health().tiers[0].skipped_deadline == 1

    def test_rule_shortcuts_skip_the_chain(self, tiny_table):
        primary = StubEstimator(4.0)
        svc = self.service([primary], tiny_table)
        empty = Query((Predicate(0, 10.0, 1.0),))
        assert svc.serve(empty).estimate == 0.0
        assert svc.serve(empty).tier == "shortcut"
        full = Query(
            tuple(
                Predicate(i, col.domain_min, col.domain_max)
                for i, col in enumerate(tiny_table.columns)
            )
        )
        assert svc.serve(full).estimate == tiny_table.num_rows
        assert svc.health().shortcuts == 3
        assert primary.timing.inference_count == 0

    def test_last_resort_when_every_tier_fails(self, tiny_table, query):
        bad = ExceptionFault(StubEstimator(name="only"), probability=1.0)
        svc = self.service([bad], tiny_table)
        served = svc.serve(query)
        assert served.tier == "last-resort"
        assert np.isfinite(served.estimate)
        assert 0.0 <= served.estimate <= tiny_table.num_rows
        assert svc.health().last_resort == 1

    def test_estimator_protocol(self, tiny_table, query):
        """The service is itself an estimator: estimate() never raises."""
        bad = NaNFault(StubEstimator(name="primary"), probability=1.0)
        svc = self.service([bad, StubEstimator(9.0)], tiny_table)
        assert svc.estimate(query) == 9.0
        batch = svc.estimate_many([query, query])
        assert np.all(np.isfinite(batch))

    def test_duplicate_tier_names_are_disambiguated(self, tiny_table):
        svc = self.service(
            [StubEstimator(1.0), StubEstimator(2.0)], tiny_table
        )
        assert svc.tier_names == ["stub", "stub#2"]

    def test_update_propagates_to_all_tiers(self, tiny_table, rng):
        from repro.datasets import apply_update

        tiers = [make_estimator("sampling"), make_estimator("postgres")]
        svc = self.service(tiers, tiny_table)
        new_table, appended = apply_update(tiny_table, rng)
        svc.update(new_table, appended)
        assert tiers[0].table.num_rows == new_table.num_rows
        assert tiers[1].table.num_rows == new_table.num_rows

    def test_validation(self, tiny_table):
        with pytest.raises(ValueError, match="at least one tier"):
            EstimatorService([])
        with pytest.raises(ValueError, match="deadline_ms"):
            EstimatorService([StubEstimator()], deadline_ms=0.0)
        svc = self.service([StubEstimator()], tiny_table)
        with pytest.raises(KeyError, match="no tier"):
            svc.breaker_state("nope")


class TestHeuristicConstant:
    def test_constant_selectivity(self, tiny_table):
        est = HeuristicConstantEstimator(selectivity=0.1).fit(tiny_table)
        one = est.estimate(Query((Predicate(0, 0.0, 1.0),)))
        two = est.estimate(
            Query((Predicate(0, 0.0, 1.0), Predicate(1, 0.0, 1.0)))
        )
        assert one == pytest.approx(0.1 * tiny_table.num_rows)
        assert two == pytest.approx(0.01 * tiny_table.num_rows)

    def test_empty_predicate_is_zero(self, tiny_table):
        est = HeuristicConstantEstimator().fit(tiny_table)
        assert est.estimate(Query((Predicate(0, 5.0, 1.0),))) == 0.0

    def test_selectivity_validation(self):
        with pytest.raises(ValueError):
            HeuristicConstantEstimator(selectivity=0.0)


class TestRegistryFactories:
    def test_default_chain_composition(self):
        chain = make_fallback_chain("mhist")
        assert [e.name for e in chain] == ["mhist"] + DEFAULT_FALLBACK_NAMES

    def test_chain_accepts_instances(self, tiny_table):
        primary = StubEstimator(3.0, name="custom").fit(tiny_table)
        chain = make_fallback_chain(primary, fallbacks=["postgres"])
        assert chain[0] is primary
        assert [e.name for e in chain] == ["custom", "postgres"]

    def test_make_service_round_trip(self, tiny_table, query):
        svc = make_service("mhist", deadline_ms=None)
        assert svc.tier_names == ["mhist"] + DEFAULT_FALLBACK_NAMES
        svc.fit(tiny_table)
        assert 0.0 <= svc.estimate(query) <= tiny_table.num_rows


class TestAcceptance:
    """ISSUE acceptance: 100% primary failure still answers everything."""

    @pytest.mark.parametrize("fault", ["nan", "exception"])
    def test_total_primary_failure_full_availability(
        self, small_census, census_workloads, fault
    ):
        train, test = census_workloads
        primary = make_estimator("sampling").fit(small_census)
        wrapped = (
            NaNFault(primary, probability=1.0, seed=3)
            if fault == "nan"
            else ExceptionFault(primary, probability=1.0, seed=3)
        )
        svc = make_service(wrapped, fallbacks=["postgres", "heuristic"])
        svc.fit(small_census)
        served = svc.serve_many(list(test.queries))
        assert all(
            np.isfinite(s.estimate) and 0.0 <= s.estimate <= small_census.num_rows
            for s in served
        )
        health = svc.health()
        assert health.availability == 1.0
        assert health.tiers[0].state == "open"
        assert health.tiers[0].trips >= 1


class TestQuietFaults:
    """A primary that answers finite garbage (a corrupted artifact) or
    pre-update state (a stale model) raises nothing to fail over on."""

    @staticmethod
    def service(primary, table):
        svc = make_service(primary, fallbacks=["sampling", "heuristic"])
        return svc.fit(table)

    @staticmethod
    def in_bounds(served, num_rows) -> bool:
        return all(
            np.isfinite(s.estimate) and 0.0 <= s.estimate <= num_rows for s in served
        )

    def test_corrupted_artifact_fully_available(self, small_census, census_workloads):
        _, test = census_workloads
        corrupt = CorruptionFault(make_estimator("postgres").fit(small_census), seed=3)
        served = self.service(corrupt, small_census).serve_many(list(test.queries))
        assert corrupt.arrays_corrupted > 0
        assert self.in_bounds(served, small_census.num_rows)

    def test_stale_model_keeps_its_breaker_closed(self, small_census, census_workloads):
        _, test = census_workloads
        stale = StaleModelFault(make_estimator("postgres").fit(small_census))
        svc = self.service(stale, small_census)
        new_table, appended = apply_update(small_census, np.random.default_rng(7))
        svc.update(new_table, appended)
        served = svc.serve_many(list(test.queries))
        assert stale.dropped_updates == 1
        assert self.in_bounds(served, new_table.num_rows)
        # staleness is the quiet failure mode: finite answers, no trips
        primary = svc.health().tiers[0]
        assert primary.state == "closed"
        assert primary.trips == 0


class TestTelemetryCrossCheck:
    """The serve path's two latency bookkeepers agree tier by tier."""

    @pytest.mark.parametrize("path", ["serve", "serve_batch"])
    def test_exposition_tier_samples_equal_health_attempts(self, tiny_table, path):
        chain = [
            NaNFault(StubEstimator(4.0, name="primary"), probability=0.5, seed=1),
            ExceptionFault(StubEstimator(6.0, name="middle"), probability=0.5, seed=2),
            StubEstimator(9.0, name="final"),
        ]
        svc = EstimatorService(chain, deadline_ms=None)
        svc.fit(tiny_table)
        queries = distinct_queries(40)
        if path == "serve":
            svc.serve_many(queries)
        else:
            svc.serve_batch(queries)
        samples = obs.parse_exposition(obs.get_registry().render_text())
        counts = {
            s.labels["tier"]: s.value
            for s in samples
            if s.name == f"{obs.SERVE_TIER_SECONDS}_count"
        }
        attempts = {t.tier: t.attempts for t in svc.health().tiers}
        assert all(attempts.values())
        assert counts == attempts


def distinct_queries(n: int) -> list[Query]:
    """n distinct single-predicate queries over the tiny table's column a."""
    return [Query((Predicate(0, float(i % 6), float(i % 6) + 0.5 + i),)) for i in range(n)]


class TestServeBatch:
    def service(self, tiers, table, **kwargs):
        svc = EstimatorService(tiers, **kwargs)
        svc.fit(table)
        return svc

    def test_batch_matches_scalar_serve(self, tiny_table):
        queries = distinct_queries(10)
        scalar_svc = self.service(
            [make_estimator("sampling"), make_estimator("postgres")], tiny_table
        )
        batch_svc = self.service(
            [make_estimator("sampling"), make_estimator("postgres")], tiny_table
        )
        scalar = scalar_svc.serve_many(queries)
        batch = batch_svc.serve_batch(queries)
        assert [s.estimate for s in batch] == [s.estimate for s in scalar]
        assert [s.tier for s in batch] == [s.tier for s in scalar]

    @pytest.mark.parametrize("cache", [None, 64])
    @pytest.mark.parametrize(
        "chain",
        [
            lambda: [NaNFault(StubEstimator(4.0)), StubEstimator(9.0, name="b")],
            lambda: [ExceptionFault(StubEstimator(4.0)), StubEstimator(9.0, name="b")],
            lambda: [StubEstimator(np.inf, name="inf"), StubEstimator(9.0, name="b")],
            lambda: [RawStub(-5.0, name="neg"), StubEstimator(9.0, name="b")],
            lambda: [StubEstimator(10.0, name="wild"), HeuristicConstantEstimator()],
            lambda: [NaNFault(StubEstimator(4.0))],
        ],
        ids=["nan", "exception", "inf", "negative", "clamped", "last-resort"],
    )
    def test_scalar_serve_equals_batch(self, tiny_table, chain, cache):
        """``serve`` one query at a time and ``serve_batch`` answer alike:
        same estimates, tiers, attempts and health counters, with a
        guard, through faults, with and without a cache."""
        queries = distinct_queries(6) + [
            Query((Predicate(0, 1.0, 1.0),)),  # provable upper bound 2
            Query((Predicate(0, 50.0, 60.0),)),  # out of distribution
            Query((Predicate(0, 3.0, 1.0),)),  # empty: rule shortcut
        ]

        def service():
            guard = EstimateGuard()
            svc = EstimatorService(
                chain(),
                guard=guard,
                cache=cache,
                deadline_ms=None,
                breaker=BreakerConfig(failure_threshold=1000),
            )
            svc.fit(tiny_table)
            return svc

        def counters(svc):
            health = svc.health()
            return (
                health.queries,
                health.degraded,
                health.shortcuts,
                health.last_resort,
                [
                    (t.tier, t.state, t.attempts, t.served, t.sanitized,
                     t.failures, t.skipped_open, t.guard_clamped)
                    for t in health.tiers
                ],
            )

        scalar_svc, batch_svc = service(), service()
        passes = []
        for _ in range(2):  # the second pass reads the cache, when on
            scalar = [scalar_svc.serve(q) for q in queries]
            batch = batch_svc.serve_batch(queries)
            assert [s.estimate for s in scalar] == [s.estimate for s in batch]
            assert [s.tier for s in scalar] == [s.tier for s in batch]
            assert [s.attempts for s in scalar] == [s.attempts for s in batch]
            assert counters(scalar_svc) == counters(batch_svc)
            passes.append(scalar)
        if len(scalar_svc.tier_names) > 1:
            assert ("guard", "ood-reroute") in passes[0][-2].attempts
        if cache is not None:
            # Chain answers are cached; shortcuts and last resorts are not.
            assert [s.tier == "cache" for s in passes[1]] == [
                s.tier not in ("shortcut", "last-resort") for s in passes[0]
            ]

    def test_nan_primary_falls_back_whole_batch(self, tiny_table):
        primary = NaNFault(StubEstimator(4.0), probability=1.0, seed=3)
        svc = self.service([primary, StubEstimator(9.0, name="backup")], tiny_table)
        served = svc.serve_batch(distinct_queries(8))
        assert all(s.estimate == 9.0 for s in served)
        assert all(s.tier == "backup" and s.degraded for s in served)
        assert svc.health().availability == 1.0
        primary_health = svc.health().tiers[0]
        assert primary_health.failures.get("nan", 0) == 8

    def test_partial_exception_fault_keeps_availability(self, tiny_table):
        # One raising query fails the whole sub-batch on that tier; the
        # batch must still come back fully answered via the fallback.
        primary = ExceptionFault(StubEstimator(4.0), probability=0.5, seed=11)
        svc = self.service([primary, StubEstimator(9.0, name="backup")], tiny_table)
        served = svc.serve_batch(distinct_queries(12))
        assert len(served) == 12
        assert all(np.isfinite(s.estimate) for s in served)
        assert svc.health().availability == 1.0

    def test_all_tiers_failing_reaches_last_resort(self, tiny_table):
        primary = NaNFault(StubEstimator(4.0), probability=1.0, seed=3)
        svc = self.service([primary], tiny_table)
        queries = distinct_queries(5)
        served = svc.serve_batch(queries)
        for s, q in zip(served, queries):
            assert s.tier == "last-resort"
            assert s.estimate == tiny_table.num_rows * 0.1**q.num_predicates

    def test_attempts_match_batch_size(self, tiny_table):
        svc = self.service([StubEstimator(4.0)], tiny_table)
        svc.serve_batch(distinct_queries(12))
        tier = svc.health().tiers[0]
        # One attempt (and one amortised latency sample) per batched query
        # keeps the health window consistent with the scalar path.
        assert tier.attempts == 12
        assert tier.served == 12
        assert tier.p50_ms >= 0.0

    def test_estimate_many_routes_through_serve_batch(self, tiny_table):
        svc = self.service([StubEstimator(4.0)], tiny_table)
        out = svc.estimate_many(distinct_queries(6))
        assert out.shape == (6,)
        assert np.array_equal(out, np.full(6, 4.0))
        assert svc.health().queries == 6

    def test_batch_sanitizes_over_table_estimates(self, tiny_table):
        # Regression: a finite answer above num_rows must be clamped to
        # num_rows on the batch path, exactly like the scalar path.
        wild = RawStub(10 * tiny_table.num_rows, name="wild")
        svc = self.service([wild], tiny_table)
        served = svc.serve_batch(distinct_queries(4))
        assert [s.estimate for s in served] == [tiny_table.num_rows] * 4
        assert all(s.attempts[-1][1] == "sanitized" for s in served)
        assert svc.health().tiers[0].sanitized == 4

    def test_batch_sanitizes_negative_estimates(self, tiny_table):
        wild = RawStub(-50.0, name="neg")
        svc = self.service([wild], tiny_table)
        served = svc.serve_batch(distinct_queries(4))
        assert [s.estimate for s in served] == [0.0] * 4
        assert all(s.attempts[-1][1] == "sanitized" for s in served)


class TestEstimateCache:
    def test_rejects_nonpositive_capacity(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="capacity"):
                EstimateCache(capacity=bad)

    def test_hit_and_miss_counters(self, query):
        cache = EstimateCache(capacity=4)
        assert cache.get(query) is None
        cache.put(query, 7.0)
        assert cache.get(query) == 7.0
        assert query in cache
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = EstimateCache(capacity=2)
        q1, q2, q3 = distinct_queries(3)
        cache.put(q1, 1.0)
        cache.put(q2, 2.0)
        cache.get(q1)  # refresh q1 so q2 is the least recently used
        cache.put(q3, 3.0)
        assert cache.evictions == 1
        assert q2 not in cache
        assert q1 in cache and q3 in cache

    def test_clear_drops_entries_but_keeps_counters(self, query):
        cache = EstimateCache(capacity=4)
        cache.put(query, 7.0)
        cache.get(query)
        cache.clear()
        assert len(cache) == 0
        assert query not in cache
        assert cache.hits == 1

    def test_keys_are_predicate_order_insensitive(self):
        """Regression: ``a AND b`` and ``b AND a`` must share one entry.

        Query hashes its raw predicate tuple, so before canonicalization
        a reordered rendering of the same conjunction missed the cache
        and stored a duplicate entry.
        """
        p_a = Predicate(0, 1.0, 5.0)
        p_b = Predicate(1, 2.0, 3.0)
        cache = EstimateCache(capacity=4)
        cache.put(Query((p_a, p_b)), 9.0)
        reordered = Query((p_b, p_a))
        assert reordered in cache
        assert cache.get(reordered) == 9.0
        assert (cache.hits, cache.misses) == (1, 0)
        # Re-putting under the reordered form refreshes, not duplicates.
        cache.put(reordered, 10.0)
        assert len(cache) == 1
        assert cache.get(Query((p_a, p_b))) == 10.0


class TestServiceCache:
    def service(self, tiers, table, **kwargs):
        svc = EstimatorService(tiers, **kwargs)
        svc.fit(table)
        return svc

    def test_warm_queries_serve_from_cache(self, tiny_table):
        svc = self.service([StubEstimator(4.0)], tiny_table, cache=32)
        queries = distinct_queries(6)
        cold = svc.serve_many(queries)
        warm = svc.serve_many(queries)
        assert [s.estimate for s in warm] == [s.estimate for s in cold]
        assert all(s.tier == "cache" and s.tier_index == -1 for s in warm)
        assert svc.cache.hits == 6 and svc.cache.misses == 6

    def test_reordered_conjunction_served_from_cache(self, tiny_table):
        svc = self.service([StubEstimator(4.0)], tiny_table, cache=32)
        p_a, p_b = Predicate(0, 1.0, 3.0), Predicate(1, 10.0, 40.0)
        svc.serve(Query((p_a, p_b)))
        warm = svc.serve(Query((p_b, p_a)))
        assert warm.tier == "cache"
        assert warm.estimate == 4.0

    def test_serve_batch_uses_cache(self, tiny_table):
        svc = self.service([StubEstimator(4.0)], tiny_table, cache=32)
        queries = distinct_queries(6)
        svc.serve_batch(queries)
        attempts_after_cold = svc.health().tiers[0].attempts
        warm = svc.serve_batch(queries)
        assert all(s.tier == "cache" for s in warm)
        assert svc.health().tiers[0].attempts == attempts_after_cold

    def test_update_invalidates_cache(self, tiny_table):
        svc = self.service([HeuristicConstantEstimator()], tiny_table, cache=32)
        queries = distinct_queries(4)
        svc.serve_many(queries)
        assert len(svc.cache) == 4
        generation = svc.model_generation
        svc.update(tiny_table, tiny_table.data[:2])
        # Invalidation is by generation tag: old entries are unreachable.
        assert svc.model_generation == generation + 1
        assert svc.cache.generation == svc.model_generation
        assert all(q not in svc.cache for q in queries)
        served = svc.serve_many(queries)
        # Refilled from the refreshed model, not from stale entries.
        assert all(s.tier == "heuristic" for s in served)

    def test_last_resort_answers_are_not_cached(self, tiny_table, query):
        primary = NaNFault(StubEstimator(4.0), probability=1.0, seed=3)
        svc = self.service([primary], tiny_table, cache=32)
        first = svc.serve(query)
        second = svc.serve(query)
        assert first.tier == "last-resort"
        # A transient outage must not pin the emergency constant: the
        # retry walks the chain again instead of hitting the cache.
        assert second.tier == "last-resort"
        assert len(svc.cache) == 0


class TestTracedAnswers:
    """With a span collector installed, every kind of answer (cache hit,
    rule shortcut, tier answer, last resort) carries the ``trace_id`` of
    the call's root span and otherwise equals the untraced answer."""

    HIT = Query((Predicate(0, 1.0, 3.0),))
    MISS = Query((Predicate(1, 20.0, 40.0),))
    EMPTY = Query((Predicate(0, 3.0, 1.0),))  # rule shortcut

    CHAINS = {
        "healthy": lambda: StubEstimator(4.0),
        "failing": lambda: NaNFault(StubEstimator(4.0), probability=1.0, seed=3),
    }

    def service(self, chain: str, table) -> EstimatorService:
        # A frozen clock makes every latency 0.0, so the traced and the
        # untraced answers can be compared field by field.
        svc = EstimatorService([self.CHAINS[chain]()], cache=64, clock=FakeClock())
        svc.fit(table)
        return svc

    def check(self, untraced, traced, roots, per_call):
        assert all(s.trace_id is None for s in untraced)
        trace_ids = [root.trace_id for root in roots]
        assert None not in trace_ids and len(set(trace_ids)) == len(roots)
        expected = [
            replace(s, trace_id=trace_ids[call])
            for s, call in zip(untraced, per_call)
        ]
        assert traced == expected

    @pytest.mark.parametrize(
        "chain, tiers",
        [
            ("healthy", ["stub", "cache", "shortcut", "stub"]),
            ("failing", ["last-resort", "last-resort", "shortcut", "last-resort"]),
        ],
    )
    def test_serve(self, tiny_table, chain, tiers):
        queries = [self.HIT, self.HIT, self.EMPTY, self.MISS]
        plain = self.service(chain, tiny_table)
        untraced = [plain.serve(q) for q in queries]
        collector = obs.install_collector()
        svc = self.service(chain, tiny_table)
        traced = [svc.serve(q) for q in queries]
        assert [s.tier for s in traced] == tiers
        self.check(untraced, traced, collector.spans("serve"), [0, 1, 2, 3])

    @pytest.mark.parametrize(
        "chain, tiers",
        [
            ("healthy", ["stub", "shortcut", "cache", "stub"]),
            ("failing", ["last-resort", "shortcut", "last-resort", "last-resort"]),
        ],
    )
    def test_serve_batch(self, tiny_table, chain, tiers):
        batches = [[self.HIT, self.EMPTY], [self.HIT, self.MISS]]
        plain = self.service(chain, tiny_table)
        untraced = [s for batch in batches for s in plain.serve_batch(batch)]
        collector = obs.install_collector()
        svc = self.service(chain, tiny_table)
        traced = [s for batch in batches for s in svc.serve_batch(batch)]
        assert [s.tier for s in traced] == tiers
        self.check(untraced, traced, collector.spans("serve.batch"), [0, 0, 1, 1])


class TestHotSwapCacheInvalidation:
    """Generation-namespaced cache correctness under interleaved
    ``replace_primary`` hot-swaps — the rolling-swap path of
    :mod:`repro.shard` depends on a swap never serving a stale entry."""

    def service(self, value: float, table, **kwargs):
        svc = EstimatorService([StubEstimator(value, name="gen0")], **kwargs)
        svc.fit(table)
        return svc

    def fitted_stub(self, value: float, name: str, table) -> StubEstimator:
        return StubEstimator(value, name=name).fit(table)

    def test_swap_invalidates_scalar_path(self, tiny_table):
        svc = self.service(4.0, tiny_table, cache=64)
        queries = distinct_queries(5)
        cold = svc.serve_many(queries)
        assert [s.estimate for s in cold] == [4.0] * 5
        assert all(q in svc.cache for q in queries)

        svc.replace_primary(self.fitted_stub(9.0, "gen1", tiny_table))
        swapped = svc.serve_many(queries)
        # Stale 4.0 entries are unreachable: every answer comes from the
        # new model, none from the cache.
        assert [s.estimate for s in swapped] == [9.0] * 5
        assert all(s.tier != "cache" for s in swapped)
        warm = svc.serve_many(queries)
        assert all(s.tier == "cache" and s.estimate == 9.0 for s in warm)

    def test_swap_invalidates_serve_batch_path(self, tiny_table):
        svc = self.service(4.0, tiny_table, cache=64)
        queries = distinct_queries(6)
        svc.serve_batch(queries)
        svc.replace_primary(self.fitted_stub(7.0, "gen1", tiny_table))
        swapped = svc.serve_batch(queries)
        assert [s.estimate for s in swapped] == [7.0] * 6
        assert all(s.tier != "cache" for s in swapped)
        warm = svc.serve_batch(queries)
        assert all(s.tier == "cache" and s.estimate == 7.0 for s in warm)

    def test_interleaved_swaps_and_serves_stay_consistent(self, tiny_table):
        """Swap/serve/swap/serve with overlapping query sets: each serve
        must reflect exactly the model installed at that moment."""
        svc = self.service(1.0, tiny_table, cache=64)
        queries = distinct_queries(8)
        left, right = queries[:5], queries[3:]  # overlap on 3..4

        assert [s.estimate for s in svc.serve_many(left)] == [1.0] * 5
        svc.replace_primary(self.fitted_stub(2.0, "gen1", tiny_table))
        # The overlapping queries were cached under generation 0; they
        # must re-resolve under generation 1.
        assert [s.estimate for s in svc.serve_batch(right)] == [2.0] * 5
        svc.replace_primary(self.fitted_stub(3.0, "gen2", tiny_table))
        final = svc.serve_many(queries)
        assert [s.estimate for s in final] == [3.0] * 8
        assert all(s.tier != "cache" for s in final)
        # Mixed scalar/batch warm reads hit only generation-2 entries.
        warm_scalar = svc.serve_many(queries[:4])
        warm_batch = svc.serve_batch(queries[4:])
        for served in [*warm_scalar, *warm_batch]:
            assert served.tier == "cache"
            assert served.estimate == 3.0

    def test_generation_counter_tracks_every_swap(self, tiny_table):
        svc = self.service(1.0, tiny_table, cache=16)
        queries = distinct_queries(3)
        for expected_generation in range(1, 6):
            svc.serve_batch(queries)
            svc.replace_primary(
                self.fitted_stub(
                    float(expected_generation),
                    f"gen{expected_generation}",
                    tiny_table,
                )
            )
            assert svc.model_generation == expected_generation
            assert svc.cache.generation == expected_generation
            assert all(q not in svc.cache for q in queries)
        # Hits accumulated only within a generation, never across.
        assert svc.cache.hits == 0

    def test_swap_without_cache_is_safe(self, tiny_table):
        svc = self.service(1.0, tiny_table)  # cache disabled (None)
        queries = distinct_queries(3)
        svc.serve_many(queries)
        svc.replace_primary(self.fitted_stub(2.0, "gen1", tiny_table))
        assert [s.estimate for s in svc.serve_many(queries)] == [2.0] * 3
