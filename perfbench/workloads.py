"""The three benchmark workloads and the inputs they are generated from.

Each workload is one closed-loop client in one process, on census at the
chosen :class:`~repro.scale.Scale`.  The deployment is fixed
(``TRAIN_SEED``): the table, the labelled training workload the learned
tiers are fitted on, the query pools of point-zipf and sharded-tenants
and point-zipf's cache row sample.  The workload seed picks the traffic:
read sequences, tenants and priorities, batch-drift's fresh query
batches and appended rows, so two seeds serve different traffic to the
same models.  Generation
and labelling happen outside both the set-up timer and the timed phase.

A workload object drives one run:

* ``setup()`` builds and fits the system (the ``setup_s`` interval);
* ``begin(system, tracer)`` starts a timed phase from the start of the
  input stream, wrapping the layers' public calls when tracing;
* ``next_op()`` yields the next ``(kind, call, argument)`` outside the
  timer, and ``record(...)`` logs what the call returned;
* ``at_boundary()`` says whether the phase may stop here (the two
  single-process workloads run in whole epochs);
* ``finish()`` labels what was served, runs the correctness checks and
  returns a :class:`PhaseLog`.

The systems are composed from the same public pieces the registry
helpers use (``make_fallback_chain`` + ``EstimatorService`` with an
``EstimateGuard``, ``ShardRouter``), so every tier object stays
reachable for the traced run without touching private attributes.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import qerrors
from repro.core.workload import WorkloadGenerator, generate_workload
from repro.datasets import apply_update, census
from repro.datasets.realworld import DEFAULT_ROWS
from repro.fastpath import SemanticEstimateCache
from repro.guard import EstimateGuard
from repro.obs import ESTIMATOR_PHASE_SECONDS, MetricsRegistry
from repro.registry import make_fallback_chain
from repro.serve import EstimatorService
from repro.shard import ShardRequest, ShardRouter

#: Seed of the fixed deployment: the learned tiers' training workload and
#: point-zipf's query pool and cache sample.  Workload seeds vary the
#: traffic, not the models.
TRAIN_SEED = 20210701

#: Relative tolerance of a whole-batch inline replay against the forked
#: run: the repository's own scalar-vs-batch equivalence bound.
BATCH_RTOL = 1e-9


def make_table(scale):
    return census(int(DEFAULT_ROWS["census"] * scale.row_fraction))


def training_workload(table, scale):
    return generate_workload(
        table, scale.train_queries, np.random.default_rng(TRAIN_SEED)
    )


def query_pool(table, count: int, rng) -> list:
    """``count`` distinct generated queries (paper Section 3 generator)."""
    generator = WorkloadGenerator(table)
    seen: dict = {}
    while len(seen) < count:
        query = generator.generate_query(rng)
        seen.setdefault(query, None)
    return list(seen)


@dataclass
class PhaseLog:
    """Everything one timed phase served, flattened per query."""

    # Flat typed arrays: a run logs up to a few hundred thousand reads,
    # and per-item Python objects would make the harness's own memory,
    # which peak_rss_mb includes, grow with the system's speed.
    read_seconds: array = field(default_factory=lambda: array("d"))
    write_seconds: list = field(default_factory=list)
    #: client busy time of the phase: the sum of all call times
    busy_seconds: float = 0.0
    #: host slowdown measured over the phase (``run.slowdown``)
    slowdown: float = 1.0
    #: per served query: estimate, true cardinality, rows of the table
    #: current when it was served, owning read, serving tier, degraded
    estimates: array = field(default_factory=lambda: array("d"))
    truths: array = field(default_factory=lambda: array("d"))
    num_rows: array = field(default_factory=lambda: array("l"))
    read_of: array = field(default_factory=lambda: array("l"))
    tiers: list = field(default_factory=list)
    degraded: array = field(default_factory=lambda: array("b"))
    #: tiers of the serving chain and its primary; with them, each
    #: query's attempt record is folded into two counts as it is logged
    #: (retaining the records would grow the heap the collector scans)
    tier_names: frozenset = frozenset()
    primary: str = "worker"
    tier_calls: int = 0
    open_reads: int = 0
    #: reads whose call raised, and reads failing a correctness check
    raised_reads: set = field(default_factory=set)
    failed_reads: set = field(default_factory=set)
    failed_writes: int = 0
    #: named correctness checks -> number of violations
    checks: dict = field(default_factory=dict)
    #: workload-specific counters for the per-layer metrics
    layer: dict = field(default_factory=dict)

    @property
    def reads(self) -> int:
        return len(self.read_seconds)

    def log_served(self, read: int, served, num_rows: int) -> None:
        for s in served:
            self.estimates.append(s.estimate)
            self.tiers.append(s.tier)
            self.degraded.append(s.degraded)
            for tier, outcome in s.attempts:
                if outcome == "skipped-open" and tier == self.primary:
                    self.open_reads += 1
                elif tier in self.tier_names and not outcome.startswith("skipped"):
                    self.tier_calls += 1
            self.read_of.append(read)
            self.num_rows.append(num_rows)

    def fail(self, check: str, reads) -> None:
        reads = set(reads)
        self.checks[check] = self.checks.get(check, 0) + len(reads)
        self.failed_reads |= reads

    def check_served(self) -> None:
        """Every answer finite and within ``[0, current num_rows]``."""
        est = np.asarray(self.estimates, dtype=np.float64)
        rows = np.asarray(self.num_rows, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(est) & (est >= 0.0) & (est <= rows))
        read_of = np.asarray(self.read_of, dtype=np.int64)
        self.fail("estimate_in_range", read_of[bad].tolist())
        self.fail("read_raised", self.raised_reads)

    def qerrors(self) -> np.ndarray:
        return qerrors(
            np.asarray(self.estimates, dtype=np.float64),
            np.asarray(self.truths, dtype=np.float64),
        )


def _guard_violations(guard, queries, truths) -> list[int]:
    """Positions where the guard's provable upper bound undercounts."""
    return [
        i
        for i, (q, t) in enumerate(zip(queries, truths))
        if guard.sketch.upper_bound(q) < t
    ]


def _primary_trips(service) -> int:
    """Times the primary tier's circuit breaker has opened so far."""
    return service.health().tiers[0].trips


def _service_log(service) -> PhaseLog:
    names = service.tier_names
    return PhaseLog(tier_names=frozenset(names), primary=names[0])


def _instrument_service(tracer, service, tiers, cache=None) -> None:
    """Wrap the public calls of one ``EstimatorService`` deployment."""
    tracer.wrap(service, "serve", "serve.serve")
    tracer.wrap(service, "serve_batch", "serve.serve_batch")
    tracer.wrap(service, "update", "serve.update")
    tracer.wrap(service.guard, "is_ood", "guard.is_ood", observe=bool)
    tracer.wrap(
        service.guard, "clamp", "guard.clamp", observe=lambda r: r[1] is not None
    )
    tracer.wrap(service.guard, "update", "guard.update")
    for tier in tiers:
        tracer.wrap(tier, "estimate", "estimators.estimate")
        tracer.wrap(tier, "estimate_many", "estimators.estimate_many", observe=len)
        tracer.wrap(tier, "update", "estimators.update")
    if cache is not None:
        tracer.wrap(cache, "get", "cache.get")
        tracer.wrap(cache, "put", "cache.put")


# ----------------------------------------------------------------------
class PointZipf:
    """Single-query ``serve()`` reads, Zipf-skewed over a query pool.

    The run is a sequence of *epochs* of ``epoch_reads`` reads, each on a
    fresh copy (taken off the clock) of the fitted service whose cache
    was filled off the clock.  Guard clamps count as breaker failures,
    and five in a row switch mscn off for 30 s of wall time: a rare
    event (about one per 25 s of reads) with an effect longer than a
    whole run.  Epochs bound each trip's effect to the rest of its epoch,
    so a run averages several deployments instead of flipping between
    two modes.  That also keeps most of the trips' effect out of the
    bounded metrics; ``breaker_trips`` and ``serve.breaker_open_reads``
    still count every one.
    """

    name = "point-zipf"
    #: read_tail_us percentile: ~3*10^5 reads per 15 s run leave ~3*10^3 beyond
    tail_percentile = 99.0
    pool_size = 4000
    zipf_s = 1.1
    cache_capacity = 1024
    cache_sample_rows = 512
    epoch_reads = 10_000

    def __init__(self, scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.table = make_table(scale)
        self.train = training_workload(self.table, scale)
        # The pool, its popularity order and the cache's row sample are
        # part of the fixed deployment: under Zipf(1.1) the ten hottest
        # queries take ~45% of reads, so a per-seed pool would make the
        # served q-error a property of a handful of queries.  The seed
        # draws the read sequence.
        rng = np.random.default_rng([TRAIN_SEED, 1])
        self.pool = query_pool(self.table, self.pool_size, rng)
        self.truth = self.table.cardinalities(self.pool)
        self.sample = self.table.data[
            rng.choice(self.table.num_rows, self.cache_sample_rows, replace=False)
        ]
        ranks = np.arange(1, self.pool_size + 1, dtype=np.float64)
        weights = ranks**-self.zipf_s
        self.probs = weights / weights.sum()

    def setup(self):
        tiers = make_fallback_chain("mscn", scale=self.scale)
        cache = SemanticEstimateCache(self.cache_capacity, sample=self.sample)
        service = EstimatorService(tiers, guard=EstimateGuard(), cache=cache)
        service.fit(self.table, self.train)
        return {"service": service, "tiers": tiers, "cache": cache}

    def close(self, system) -> None:
        pass

    def begin(self, system, tracer=None) -> None:
        # Fill the cache off the clock, the same way for every seed: the
        # hottest 2x-capacity queries once, coldest first, so the
        # hottest are the most recent entries when timing starts.  Every
        # epoch starts from a copy of this warmed system.
        service = system["service"]
        self.warmup_bad = [
            i
            for i in reversed(range(2 * self.cache_capacity))
            if not 0.0 <= service.serve(self.pool[i]).estimate <= self.table.num_rows
        ]
        self.pristine = copy.deepcopy(system)
        self.tracer = tracer
        self.log = _service_log(service)
        self.rng = np.random.default_rng([self.seed, 2])
        self.indices = array("l")
        self.lookups = [0, 0, 0]
        self.trips = 0
        self.system = None
        self._deploy(system)

    def _cache_counts(self) -> tuple[int, int, int]:
        cache = self.system["cache"]
        return cache.hits, cache.semantic_hits, cache.misses

    def _fold_counts(self) -> None:
        """Add the current epoch's cache lookups and breaker trips to the
        phase totals."""
        for k, (now, then) in enumerate(zip(self._cache_counts(), self.cache_start)):
            self.lookups[k] += now - then
        self.trips += _primary_trips(self.system["service"]) - self.trips_start

    def _deploy(self, system) -> None:
        if self.system is not None:
            self._fold_counts()
        self.system = system
        service = system["service"]
        self.cache_start = self._cache_counts()
        self.trips_start = _primary_trips(service)
        if self.tracer is not None:
            _instrument_service(self.tracer, service, system["tiers"], system["cache"])
        self.serve = service.serve
        self.stream = self.rng.choice(self.pool_size, self.epoch_reads, p=self.probs)
        self.cursor = 0

    def at_boundary(self) -> bool:
        return self.cursor == self.epoch_reads

    def next_op(self):
        if self.at_boundary():
            self._deploy(copy.deepcopy(self.pristine))
        index = int(self.stream[self.cursor])
        self.cursor += 1
        self.indices.append(index)
        return "read", self.serve, self.pool[index]

    def record(self, kind, result, error, seconds) -> None:
        log = self.log
        read = log.reads
        log.read_seconds.append(seconds)
        if error is not None:
            log.raised_reads.add(read)
            self.indices.pop()
            return
        log.log_served(read, (result,), self.table.num_rows)

    def finish(self) -> PhaseLog:
        log = self.log
        log.truths.extend(self.truth[self.indices])
        log.check_served()
        guard = self.system["service"].guard
        bad = set(_guard_violations(guard, self.pool, self.truth))
        log.fail(
            "guard_upper_bound",
            (r for r, i in zip(log.read_of, self.indices) if i in bad),
        )
        # warm-up reads are not timed; a bad one still fails the run
        log.fail("warmup_in_range", (-1 - i for i in self.warmup_bad))
        self._fold_counts()
        log.layer["cache_lookups"] = tuple(self.lookups)
        log.layer["breaker_trips"] = self.trips
        return log


# ----------------------------------------------------------------------
class BatchDrift:
    """64-query ``serve_batch()`` reads between 2% sorted-copy appends.

    The run is a sequence of *epochs*: the fitted service is deployed on
    the base table, then ``rounds_per_epoch`` rounds of reads each end in
    one write (append + ``service.update``).  The next epoch redeploys a
    copy of the fitted service, taken off the clock.  Served q-error
    grows with every append (the incremental update falls behind the
    drift), so a time-bounded run without epochs would score a faster
    system on more-drifted data; the timed phase therefore also ends on
    an epoch boundary.
    """

    name = "batch-drift"
    #: read_tail_us percentile: ~570 reads per 15 s run leave ~28 beyond p95
    tail_percentile = 95.0
    batch_size = 64
    reads_per_round = 32
    rounds_per_epoch = 4
    append_fraction = 0.02

    def __init__(self, scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.table = make_table(scale)

    def setup(self):
        tiers = make_fallback_chain("deepdb", scale=self.scale)
        service = EstimatorService(tiers, guard=EstimateGuard())
        service.fit(self.table, None)
        return {"service": service, "tiers": tiers}

    def close(self, system) -> None:
        pass

    def begin(self, system, tracer=None) -> None:
        self.pristine = copy.deepcopy(system)
        self.tracer = tracer
        self.log = _service_log(system["service"])
        self.rng = np.random.default_rng([self.seed, 3])
        self.round_queries: list[list] = []
        self.round_first_read = 0
        self.pending_write = None
        self.trips = 0
        self.system = None
        self._deploy(system)

    def _deploy(self, system) -> None:
        if self.system is not None:
            self.trips += _primary_trips(self.system["service"]) - self.trips_start
        self.system = system
        self.trips_start = _primary_trips(system["service"])
        self.current = self.table
        self.round_reads = 0
        self.epoch_writes = 0
        if self.tracer is not None:
            _instrument_service(self.tracer, system["service"], system["tiers"])
        self.serve_batch = system["service"].serve_batch
        self.update = system["service"].update

    def at_boundary(self) -> bool:
        return self.epoch_writes == self.rounds_per_epoch

    def next_op(self):
        if self.at_boundary():
            self._deploy(copy.deepcopy(self.pristine))
        if self.round_reads == self.reads_per_round:
            self._close_round()
            new_table, appended = apply_update(
                self.current, self.rng, self.append_fraction
            )
            self.round_reads = 0
            self.pending_write = new_table
            return "write", self._write, (new_table, appended)
        generator = WorkloadGenerator(self.current)
        batch = [generator.generate_query(self.rng) for _ in range(self.batch_size)]
        self.round_queries.append(batch)
        self.round_reads += 1
        return "read", self.serve_batch, batch

    def _write(self, arg):
        return self.update(*arg)

    def _close_round(self) -> None:
        """Label the finished round against the table it was served on
        and check the guard's bound on it — before the next write."""
        log = self.log
        queries = [q for batch in self.round_queries for q in batch]
        truths = self.current.cardinalities(queries) if queries else []
        log.truths.extend(truths)
        bad = _guard_violations(self.system["service"].guard, queries, truths)
        log.fail(
            "guard_upper_bound",
            (self.round_first_read + i // self.batch_size for i in bad),
        )
        self.round_queries = []
        self.round_first_read = log.reads

    def record(self, kind, result, error, seconds) -> None:
        log = self.log
        if kind == "write":
            log.write_seconds.append(seconds)
            if error is not None:
                log.failed_writes += 1
            self.current = self.pending_write
            self.epoch_writes += 1
            return
        read = log.reads
        log.read_seconds.append(seconds)
        if error is not None or len(result) != self.batch_size:
            # unanswered read: count it failed and keep the labels aligned
            log.raised_reads.add(read)
            self.round_queries.pop()
            self.round_reads -= 1
            return
        log.log_served(read, result, self.current.num_rows)

    def finish(self) -> PhaseLog:
        self._close_round()
        self.log.check_served()
        self.trips += _primary_trips(self.system["service"]) - self.trips_start
        self.log.layer["breaker_trips"] = self.trips
        return self.log


# ----------------------------------------------------------------------
class ShardedTenants:
    """256-request ``ShardRouter.serve_batch()`` reads over 8 tenants."""

    name = "sharded-tenants"
    #: read_tail_us percentile: ~600 reads per 15 s leave ~60 beyond p90.
    #: Stalls of the three processes on two cores put the p95 (~30 beyond)
    #: in whichever stretch of the run the host was slowest.
    tail_percentile = 90.0
    pool_size = 3000
    batch_size = 256
    tenants = 8
    priorities = 3
    num_shards = 2
    workers_per_shard = 1
    swap_every = 25
    replay_reads = 16
    probe_size = 8

    def __init__(self, scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.table = make_table(scale)
        self.train = training_workload(self.table, scale)
        # The pool is part of the fixed deployment, as in point-zipf: a
        # per-seed pool made the served q-error a property of the pool
        # (qerror_p99 spread 0.12 over seeds).  The seed draws the
        # requests, tenants and priorities.
        rng = np.random.default_rng([TRAIN_SEED, 6])
        self.pool = query_pool(self.table, self.pool_size, rng)
        self.truth = self.table.cardinalities(self.pool)
        self.tenant_names = [f"tenant-{t}" for t in range(self.tenants)]
        # The post-swap probe queries are part of the fixed deployment,
        # not of the traffic: ``Shard.probe`` rejects a raw worker answer
        # above ``num_rows`` that the serve path would clamp, so a probe
        # set drawn per seed fails every swap on ~5% of seeds (BASELINE
        # defect (g)).
        self.probe = query_pool(
            self.table, self.probe_size, np.random.default_rng([TRAIN_SEED, 4])
        )

    def setup(self):
        tiers = make_fallback_chain("mscn", scale=self.scale)
        for tier in tiers:
            tier.fit(self.table, self.train if tier.requires_workload else None)
        primary, fallbacks = tiers[0], tiers[1:]
        # the second model a rolling swap alternates to: a pre-fitted
        # copy of the primary (same weights, so answers stay comparable)
        alternate = copy.deepcopy(primary)
        registry = MetricsRegistry()
        router = ShardRouter(
            primary,
            fallbacks,
            num_shards=self.num_shards,
            workers_per_shard=self.workers_per_shard,
            mode="fork",
            transport="shm",
            registry=registry,
        )
        router.start()
        return {
            "router": router,
            "registry": registry,
            "models": (primary, alternate),
            "fallbacks": fallbacks,
            "tiers": tiers,
        }

    def close(self, system) -> None:
        system["router"].drain()

    def begin(self, system, tracer=None) -> None:
        self.system = system
        self.log = PhaseLog()
        self.rng = np.random.default_rng([self.seed, 5])
        #: (read id, requests) of the first answered reads, for the replay
        self.requests: list[tuple[int, list]] = []
        self.indices: list[np.ndarray] = []
        self.swaps = 0
        self.reads_since_swap = 0
        router = system["router"]
        # One off-clock batch through both workers first: a worker's first
        # batch pays page faults and first-use costs no later read repeats.
        warm = router.serve_batch(
            [ShardRequest(query=q) for q in self.pool[: 2 * self.batch_size]]
        )
        self.warmup_bad = [
            i for i, s in enumerate(warm) if not 0.0 <= s.estimate <= self.table.num_rows
        ]
        self.totals_start = router.totals()
        self.counts_start = self._counts()
        self.tracer = tracer
        if tracer is not None:
            tracer.wrap(router, "route", "shard.route")
            tracer.wrap(router, "serve_batch", "shard.serve_batch")
            tracer.wrap(router, "rolling_swap", "shard.rolling_swap")
            tracer.wrap(router.arena, "publish", "shard.arena_publish")
            self.wrapped_supervisors: set = set()
            for shard in router.shards.values():
                tracer.wrap(shard.admission, "admit", "shard.admit")
            self._wrap_supervisors()
        self.serve_batch = router.serve_batch
        self.rolling_swap = router.rolling_swap

    def _wrap_supervisors(self) -> None:
        """(Re-)wrap each shard's supervisor; a refork swap replaces it."""
        for shard in self.system["router"].shards.values():
            supervisor = shard.supervisor
            if id(supervisor) in self.wrapped_supervisors:
                continue
            self.wrapped_supervisors.add(id(supervisor))
            self.tracer.wrap(supervisor, "dispatch", "shard.dispatch")
            self.tracer.wrap(supervisor.merger, "merge", "obs.merge")

    def at_boundary(self) -> bool:
        return True

    def next_op(self):
        if self.reads_since_swap == self.swap_every:
            self.reads_since_swap = 0
            self.swaps += 1
            candidate = self.system["models"][self.swaps % 2]
            return "write", self._swap, candidate
        rng = self.rng
        index = rng.integers(0, self.pool_size, self.batch_size)
        tenant = rng.integers(0, self.tenants, self.batch_size)
        priority = rng.integers(0, self.priorities, self.batch_size)
        batch = [
            ShardRequest(
                query=self.pool[i], tenant=self.tenant_names[t], priority=int(p)
            )
            for i, t, p in zip(index, tenant, priority)
        ]
        if len(self.requests) < self.replay_reads:
            self.requests.append((self.log.reads, batch))
        self.indices.append(index)
        self.reads_since_swap += 1
        return "read", self.serve_batch, batch

    def _swap(self, candidate):
        report = self.rolling_swap(candidate, probe_queries=self.probe)
        if self.tracer is not None:
            self._wrap_supervisors()
        if not report.promoted:
            raise RuntimeError(f"rolling swap not promoted: {report.reason}")
        return report

    def record(self, kind, result, error, seconds) -> None:
        log = self.log
        if kind == "write":
            log.write_seconds.append(seconds)
            if error is not None:
                log.failed_writes += 1
            return
        read = log.reads
        log.read_seconds.append(seconds)
        if error is not None or len(result) != self.batch_size:
            log.raised_reads.add(read)
            if self.requests and self.requests[-1][0] == read:
                self.requests.pop()
            self.indices.pop()
            return
        log.log_served(read, result, self.table.num_rows)

    def finish(self) -> PhaseLog:
        log = self.log
        router = self.system["router"]
        index = np.concatenate(self.indices) if self.indices else np.zeros(0, int)
        log.truths.extend(self.truth[index])
        log.check_served()
        totals = router.totals()
        log.layer["requests"] = totals.requests - self.totals_start.requests
        log.layer["fallback"] = (
            totals.fallback_served - self.totals_start.fallback_served
        )
        log.layer["shed"] = totals.shed - self.totals_start.shed
        counts = self._counts()
        for key, value in counts.items():
            log.layer[key] = value - self.counts_start[key]
        log.layer["model_pickles"] = router.swap_stats()["model_pickles"]
        log.fail("warmup_in_range", (-1 - i for i in self.warmup_bad))
        self._replay(log)
        return log

    def _counts(self) -> dict:
        """Cumulative transport and worker-estimate counters of the fleet
        (phase figures are differences, so the warm-up is left out)."""
        shards = self.system["router"].shards.values()
        counts = {
            key: sum(s.supervisor.transport_stats[key] for s in shards)
            for key in ("shm_batches", "pipe_batches")
        }
        counts["worker_seconds"] = _worker_seconds(self.system["registry"])
        return counts

    def _replay(self, log: PhaseLog) -> None:
        """Replay the first reads through a one-shard inline router.

        Each read is re-submitted as the sub-batches the forked router
        dispatched (same queries, same order per shard), so the inline
        worker path sees the batches the forked workers saw and must
        return bit-identical estimates.  The whole read is also replayed
        as one batch, which must agree within the repository's batch
        tolerance (estimates may differ in the last ulp with batch
        composition).
        """
        router = self.system["router"]
        route = getattr(router.route, "__wrapped__", router.route)
        primary, _ = self.system["models"]
        inline = ShardRouter(
            primary, self.system["fallbacks"], num_shards=1, mode="inline",
            registry=MetricsRegistry(),
        )
        inline.start()
        exact_bad: list[int] = []
        close_bad: list[int] = []
        served = np.asarray(log.estimates, dtype=np.float64)
        tiers = log.tiers
        try:
            position = 0
            for read, batch in self.requests:
                got = served[position : position + len(batch)]
                worker = [tiers[position + i] == "worker" for i in range(len(batch))]
                position += len(batch)
                by_shard: dict[str, list[int]] = {}
                for i, request in enumerate(batch):
                    by_shard.setdefault(route(request), []).append(i)
                replayed = np.empty(len(batch))
                for indices in by_shard.values():
                    answers = inline.serve_batch([batch[i] for i in indices])
                    replayed[indices] = [s.estimate for s in answers]
                if any(
                    w and a != b for w, a, b in zip(worker, replayed, got)
                ):
                    exact_bad.append(read)
                whole = np.array(
                    [s.estimate for s in inline.serve_batch(batch)], dtype=np.float64
                )
                if not np.allclose(whole, got, rtol=BATCH_RTOL, atol=0.0):
                    close_bad.append(read)
        finally:
            inline.drain()
        log.fail("replay_bit_identical", exact_bad)
        log.fail("replay_whole_batch_close", close_bad)


def _worker_seconds(registry) -> float:
    """Seconds of worker ``estimate`` calls merged into the router's
    registry from the forked workers' telemetry."""
    metric = registry.get(ESTIMATOR_PHASE_SECONDS)
    if metric is None:
        return 0.0
    return float(
        sum(
            series["sum"]
            for series in metric.snapshot()["series"]
            if series["labels"].get("phase") == "estimate"
        )
    )


WORKLOADS = {w.name: w for w in (PointZipf, BatchDrift, ShardedTenants)}

