"""Million-query sharded-serving experiment: the chaos matrix.

Replays a large query stream through a :class:`~repro.shard.ShardRouter`
(forked worker pools, admission control, supervised restarts) under a
matrix of worker-level fault scenarios — crashes mid-batch, hangs, slow
workers, queue floods, shard-local model corruption, failed rolling
swaps, and a restart budget driven to exhaustion.  The acceptance bar
for every scenario is the same: **availability 1.0** — every replayed
query gets a finite, in-bounds estimate from *some* tier (worker,
in-process fallback chain, or the shed-to-heuristic path).

The no-fault scenario doubles as the determinism check: the sharded
fork-parallel answers must be bit-identical to a single-shard in-process
replay of the same stream.

Every scenario also runs with cross-process telemetry on and is held to
two observability invariants: the merged per-worker serve counters
(``repro_worker_queries_total``, shipped over the reply pipes and folded
with ``{shard, worker_pid}`` labels) must sum exactly to the parent's
count of accepted worker answers — crashes, hangs and re-dispatches
included — and at least one merged worker span must re-parent under a
dispatching ``serve.batch`` span.  The ``slo-breach`` scenario forces a
per-tenant latency SLO through a full breach → recovery cycle: slowed
workers burn the error budget until the mid-replay swap to a clean
model lets every tenant recover.

Results land in ``BENCH_serve.json`` at the repo root (machine-readable
baseline validated by ``benchmarks/test_scale_serving.py``) and
``benchmarks/results/scale_serving.txt`` (the human-readable table).
The artifact records ``cpu_count`` so throughput/speedup floors only
apply on hardware where fork parallelism can physically win.  On
KeyboardInterrupt/SIGTERM the partial scenario results are flushed
(``"partial": true``) before the interrupt propagates.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.estimator import CardinalityEstimator
from ..core.query import Query
from ..estimators.traditional import SamplingEstimator
from ..faults import (
    NaNFault,
    SlowWorkerFault,
    WorkerCrashFault,
    WorkerHangFault,
    queue_flood,
)
from ..lifecycle.gate import PromotionGate
from ..lifecycle.retrain import RetryPolicy
from ..obs import (
    LATENCY,
    WORKER_QUERIES,
    EventLog,
    MetricsRegistry,
    SloObjective,
    SloRegistry,
    SpanCollector,
    get_collector,
    install_collector,
    percentile_ms,
    uninstall_collector,
)
from ..obs.clock import perf_counter
from ..parallel import detect_worker_count
from ..rules.enforce import is_sane
from ..serve import HeuristicConstantEstimator
from ..shard import AdmissionConfig, ShardRequest, ShardRouter
from .context import BenchContext
from .reporting import render_table

#: queries replayed per scale preset (the paper-scale serving load)
REPLAY_TARGETS = {"ci": 4_000, "default": 100_000, "paper": 250_000}

#: dispatch batch size: one admission window / worker round-trip
DEFAULT_CHUNK = 2048

#: the slo-breach scenario's per-tenant objective: any per-request
#: latency above 0.3ms burns error budget.  Slowed workers sit ~2x above
#: the threshold (0.15s per 256-query half-chunk ≈ 0.6ms/request) and a
#: healthy pool sits well under it, so the breach and the recovery are
#: both decisive.  ``breach_burn_rate=20`` (≥20% bad in *both* windows)
#: keeps a single noisy chunk from paging; recovery needs a clean fast
#: window.
SLO_BREACH_OBJECTIVE = SloObjective(
    LATENCY,
    threshold=0.3,
    target=0.99,
    fast_window=64,
    slow_window=256,
    breach_burn_rate=20.0,
    recover_burn_rate=1.0,
    min_samples=64,
)


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the chaos matrix."""

    name: str
    #: wraps the fitted primary for the *worker* processes only (the
    #: parent's fallback chain always keeps a clean copy)
    worker_wrap: Callable[[CardinalityEstimator, int], CardinalityEstimator] | None = None
    admission: AdmissionConfig | None = None
    policy: RetryPolicy | None = None
    request_timeout_seconds: float = 5.0
    #: per-request deadline metadata (drives deadline-aware shedding)
    deadline_ms: float | None = None
    #: >1 tiles the stream into a deterministic burst (queue flood)
    flood_multiplier: int = 1
    #: exercise rolling swaps (gate rejection, probe rollback, promote)
    swap: bool = False
    #: dispatch batch size override (None = DEFAULT_CHUNK)
    chunk: int | None = None
    #: arm the per-tenant latency SLO and swap to a clean model
    #: mid-replay, forcing a breach -> recovery cycle
    slo: bool = False


def default_chaos_matrix(seed: int) -> list[ChaosScenario]:
    """The no-fault baseline plus the eight chaos scenarios."""
    generous = RetryPolicy(
        max_attempts=64, backoff_base_seconds=0.01, backoff_cap_seconds=0.1
    )
    return [
        ChaosScenario("no-fault"),
        ChaosScenario(
            "worker-crash",
            worker_wrap=lambda est, s: WorkerCrashFault(
                est, probability=5e-5, seed=s
            ),
            policy=generous,
        ),
        ChaosScenario(
            "worker-hang",
            worker_wrap=lambda est, s: WorkerHangFault(
                est, hang_seconds=1.0, probability=2e-5, seed=s
            ),
            policy=generous,
            request_timeout_seconds=0.15,
        ),
        ChaosScenario(
            "slow-worker",
            worker_wrap=lambda est, s: SlowWorkerFault(
                est, delay_seconds=0.05, probability=1.0, seed=s
            ),
            deadline_ms=5.0,
        ),
        ChaosScenario(
            "queue-flood",
            admission=AdmissionConfig(queue_capacity=256, tenant_quota=96),
            flood_multiplier=4,
        ),
        ChaosScenario(
            "model-corruption",
            worker_wrap=lambda est, s: NaNFault(est, probability=0.02, seed=s),
        ),
        ChaosScenario("rolling-swap-failure", swap=True),
        ChaosScenario(
            "slo-breach",
            worker_wrap=lambda est, s: SlowWorkerFault(
                est, delay_seconds=0.15, probability=1.0, seed=s
            ),
            chunk=512,
            slo=True,
        ),
        ChaosScenario(
            "budget-exhaustion",
            worker_wrap=lambda est, s: WorkerCrashFault(
                est, probability=1.0, seed=s
            ),
            policy=RetryPolicy(
                max_attempts=1,
                backoff_base_seconds=0.001,
                backoff_cap_seconds=0.002,
            ),
            chunk=512,
        ),
    ]


@dataclass(frozen=True)
class ScaleScenarioResult:
    """Outcome of replaying the stream under one chaos scenario."""

    scenario: str
    queries: int
    #: fraction of requests answered with a finite in-bounds estimate
    availability: float
    throughput_qps: float
    p50_ms: float
    p99_ms: float
    worker_served: int
    fallback_served: int
    shed: int
    shed_reasons: dict[str, int]
    redispatches: int
    worker_restarts: int
    exhausted_shards: int
    fallback_mode_shards: int
    #: rolling-swap outcomes in attempt order (swap scenarios only)
    swap_outcomes: tuple[str, ...]
    #: fork answers == single-shard in-process answers (no-fault only)
    bit_identical: bool | None
    #: single-shard in-process replay throughput (no-fault only)
    serial_qps: float | None
    #: merged per-worker serve counters sum exactly to the parent's
    #: accepted worker answers (crashes and re-dispatches included)
    telemetry_consistent: bool = True
    #: merged spans carrying a ``worker_pid`` attribute (fork mode)
    worker_spans: int = 0
    #: >=1 worker span re-parented under a ``serve.batch`` span; None
    #: when no worker spans were merged (inline mode / total crash)
    worker_spans_reparented: bool | None = None
    #: slo.breach / slo.recovered transitions in emission order
    slo_transitions: tuple[str, ...] = ()


def _replay_stream(ctx: BenchContext, target: int, multiplier: int) -> list[Query]:
    """A deterministic ``target``-query stream tiled from the workload."""
    base = list(ctx.test_workload("census").queries)
    tile = max(1, math.ceil(target / (len(base) * multiplier)))
    stream = queue_flood(base, multiplier=tile * multiplier, seed=ctx.seed)
    return stream[:target]


def _requests(
    queries: Sequence[Query], deadline_ms: float | None
) -> list[ShardRequest]:
    return [
        ShardRequest(
            query=q,
            tenant=f"t{i % 8}",
            priority=i % 3,
            deadline_ms=deadline_ms,
        )
        for i, q in enumerate(queries)
    ]


def _attempt_swaps(
    router: ShardRouter,
    primary: CardinalityEstimator,
    probe_queries: list[Query],
    gate: PromotionGate,
) -> list[str]:
    """Mid-replay swap storm: rejected, rolled back, then promoted."""
    outcomes = []
    corrupt = NaNFault(primary, probability=1.0)
    corrupt.fit(primary.table)
    # A corrupt candidate never clears the gate: no shard is touched.
    report = router.rolling_swap(corrupt, gate=gate)
    outcomes.append("promoted" if report.promoted else "rejected")
    # The same candidate slipped past an absent gate: the post-swap
    # probe catches it on the first shard and rolls the fleet back.
    report = router.rolling_swap(corrupt, probe_queries=probe_queries)
    outcomes.append("rolled_back" if report.rolled_back else "promoted")
    # A genuinely better candidate (bigger sample) promotes cleanly,
    # one shard at a time, bumping every shard's cache generation.
    better = SamplingEstimator(fraction=0.03, seed=7)
    better.fit(primary.table)
    report = router.rolling_swap(better, gate=gate, probe_queries=probe_queries)
    outcomes.append("promoted" if report.promoted else "rejected")
    return outcomes


def run_chaos_scenario(
    ctx: BenchContext,
    scenario: ChaosScenario,
    *,
    replay: int | None = None,
    num_shards: int = 2,
    workers_per_shard: int = 2,
    mode: str = "auto",
) -> ScaleScenarioResult:
    """Replay the stream through a sharded router under one scenario."""
    table = ctx.table("census")
    primary = ctx.fresh_estimator("sampling", "census")
    heuristic = HeuristicConstantEstimator()
    heuristic.fit(table)
    seed = ctx.seed + 23
    worker_estimator = (
        scenario.worker_wrap(primary, seed) if scenario.worker_wrap else None
    )
    if worker_estimator is not None:
        worker_estimator.fit(table)

    target = replay if replay is not None else REPLAY_TARGETS[ctx.scale.name]
    queries = _replay_stream(ctx, target, scenario.flood_multiplier)
    requests = _requests(queries, scenario.deadline_ms)
    chunk = scenario.chunk or DEFAULT_CHUNK
    gate = PromotionGate(queries[:64], regression_tolerance=3.0, seed=ctx.seed)

    # Scenario-local telemetry: a fresh registry/event log per scenario
    # makes the counter-sum invariant exact, and the span collector is
    # reused when the CLI already installed one (--trace-out) so merged
    # worker spans land in the exported trace.
    registry = MetricsRegistry()
    events = EventLog()
    slos: SloRegistry | None = None
    if scenario.slo:
        slos = SloRegistry(registry=registry, events=events)
        slos.set_objective(SLO_BREACH_OBJECTIVE)
    collector = get_collector()
    owns_collector = collector is None
    if owns_collector:
        collector = install_collector(SpanCollector(capacity=65_536))

    router = ShardRouter(
        primary,
        [heuristic],
        num_shards=num_shards,
        workers_per_shard=workers_per_shard,
        worker_estimator=worker_estimator,
        admission=scenario.admission,
        policy=scenario.policy,
        mode=mode,
        request_timeout_seconds=scenario.request_timeout_seconds,
        seed=ctx.seed,
        events=events,
        registry=registry,
        slos=slos,
    )
    swap_outcomes: list[str] = []
    estimates = np.empty(len(requests), dtype=np.float64)
    latencies: list[float] = []
    swap_at = (len(requests) // (2 * chunk)) * chunk  # mid-replay boundary
    try:
        with router:
            start = perf_counter()
            for lo in range(0, len(requests), chunk):
                if scenario.swap and lo == swap_at:
                    swap_outcomes = _attempt_swaps(
                        router, primary, queries[:8], gate
                    )
                if scenario.slo and lo == swap_at:
                    # Recovery: swap every shard to the clean model, so
                    # the breached tenants' fast windows drain back
                    # under the burn-rate floor.
                    for shard in router.shards.values():
                        shard.swap_model(primary)
                batch = requests[lo : lo + chunk]
                batch_start = perf_counter()
                served = router.serve_batch(batch)
                per_request = (perf_counter() - batch_start) / len(batch)
                latencies.extend([per_request] * len(batch))
                for offset, answer in enumerate(served):
                    estimates[lo + offset] = answer.estimate
                if (lo // chunk) % 8 == 7:
                    router.check_health()
            elapsed = perf_counter() - start
            totals = router.totals()
            exhausted = sum(
                1 for s in router.shards.values() if s.supervisor.exhausted
            )
            fallback_mode = sum(
                1 for s in router.shards.values() if s.fallback_mode
            )
            restarts = sum(
                s.supervisor.total_restarts for s in router.shards.values()
            )

        # Telemetry invariant: the per-worker serve counters that crossed
        # the pipe (plus the inline-mode direct writes) must sum exactly
        # to the queries the parent accepted from workers — under
        # crashes, hangs, re-dispatches and swaps alike.
        merged_worker_queries = sum(
            series["value"]
            for series in registry.counter(WORKER_QUERIES).snapshot()["series"]
        )
        telemetry_consistent = (
            int(merged_worker_queries) == totals.worker_answered
        )
        spans = collector.spans()
        worker_spans = [s for s in spans if "worker_pid" in s.attrs]
        batch_span_ids = {
            s.span_id for s in spans if s.name == "serve.batch"
        }
        worker_spans_reparented = (
            any(s.parent_id in batch_span_ids for s in worker_spans)
            if worker_spans
            else None
        )
        slo_transitions = tuple(
            e.kind.removeprefix("slo.")
            for e in events.events()
            if e.kind in ("slo.breach", "slo.recovered")
        )

        bit_identical: bool | None = None
        serial_qps: float | None = None
        if scenario.name == "no-fault":
            # Determinism reference: one in-process shard, same stream.
            reference = ShardRouter(
                primary,
                [heuristic],
                num_shards=1,
                mode="inline",
                registry=MetricsRegistry(),
            )
            with reference:
                serial_start = perf_counter()
                ref_estimates = np.array(
                    [
                        s.estimate
                        for lo in range(0, len(requests), chunk)
                        for s in reference.serve_batch(requests[lo : lo + chunk])
                    ]
                )
                serial_qps = len(requests) / (perf_counter() - serial_start)
            bit_identical = bool(np.array_equal(estimates, ref_estimates))
    finally:
        if owns_collector:
            uninstall_collector()

    availability = float(
        np.mean([is_sane(v, table.num_rows) for v in estimates])
    )
    return ScaleScenarioResult(
        scenario=scenario.name,
        queries=len(requests),
        availability=availability,
        throughput_qps=len(requests) / elapsed,
        p50_ms=percentile_ms(latencies, 50.0),
        p99_ms=percentile_ms(latencies, 99.0),
        worker_served=totals.worker_served,
        fallback_served=totals.fallback_served,
        shed=totals.shed,
        shed_reasons=dict(sorted(totals.shed_reasons.items())),
        redispatches=totals.redispatches,
        worker_restarts=restarts,
        exhausted_shards=exhausted,
        fallback_mode_shards=fallback_mode,
        swap_outcomes=tuple(swap_outcomes),
        bit_identical=bit_identical,
        serial_qps=serial_qps,
        telemetry_consistent=telemetry_consistent,
        worker_spans=len(worker_spans),
        worker_spans_reparented=worker_spans_reparented,
        slo_transitions=slo_transitions,
    )


def write_serve_artifacts(
    ctx: BenchContext,
    results: list[ScaleScenarioResult],
    *,
    num_shards: int,
    workers_per_shard: int,
    partial: bool = False,
    json_path: str | Path = "BENCH_serve.json",
    text_path: str | Path = "benchmarks/results/scale_serving.txt",
) -> list[Path]:
    """Write the machine-readable baseline and the formatted table.

    Sections owned by other experiments sharing the file (the guard
    experiment's ``guard`` key) are preserved verbatim — the same merge
    discipline ``fastpath`` uses in ``BENCH_batch.json``.
    """
    json_path, text_path = Path(json_path), Path(text_path)
    no_fault = next((r for r in results if r.scenario == "no-fault"), None)
    payload = {
        "experiment": "scale_serving",
        "scale": ctx.scale.name,
        "seed": ctx.seed,
        "cpu_count": detect_worker_count(),
        "num_shards": num_shards,
        "workers_per_shard": workers_per_shard,
        "chunk": DEFAULT_CHUNK,
        "partial": partial,
        "bit_identical": None if no_fault is None else no_fault.bit_identical,
        "serial_qps": None if no_fault is None else no_fault.serial_qps,
        "parallel_qps": None if no_fault is None else no_fault.throughput_qps,
        "speedup": (
            None
            if no_fault is None or not no_fault.serial_qps
            else no_fault.throughput_qps / no_fault.serial_qps
        ),
        "scenarios": {
            r.scenario: {
                "queries": r.queries,
                "availability": r.availability,
                "throughput_qps": r.throughput_qps,
                "p50_ms": r.p50_ms,
                "p99_ms": r.p99_ms,
                "worker_served": r.worker_served,
                "fallback_served": r.fallback_served,
                "shed": r.shed,
                "shed_reasons": r.shed_reasons,
                "redispatches": r.redispatches,
                "worker_restarts": r.worker_restarts,
                "exhausted_shards": r.exhausted_shards,
                "fallback_mode_shards": r.fallback_mode_shards,
                "swap_outcomes": list(r.swap_outcomes),
                "telemetry_consistent": r.telemetry_consistent,
                "worker_spans": r.worker_spans,
                "worker_spans_reparented": r.worker_spans_reparented,
                "slo_transitions": list(r.slo_transitions),
            }
            for r in results
        },
    }
    try:
        merged = json.loads(json_path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(payload)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    text_path.parent.mkdir(parents=True, exist_ok=True)
    text_path.write_text(format_scale(results) + "\n")
    return [json_path, text_path]


def scale_experiment(
    ctx: BenchContext,
    *,
    replay: int | None = None,
    num_shards: int = 2,
    workers_per_shard: int = 2,
    mode: str = "auto",
    scenarios: list[ChaosScenario] | None = None,
    json_path: str | Path = "BENCH_serve.json",
    text_path: str | Path = "benchmarks/results/scale_serving.txt",
) -> list[ScaleScenarioResult]:
    """Run the chaos matrix and write both artifacts.

    An interrupt (Ctrl-C / SIGTERM via
    the CLI's handler) flushes the scenarios finished so far — marked
    ``"partial": true`` — before the KeyboardInterrupt propagates to the
    caller.
    """
    matrix = scenarios if scenarios is not None else default_chaos_matrix(ctx.seed)
    results: list[ScaleScenarioResult] = []
    try:
        for scenario in matrix:
            results.append(
                run_chaos_scenario(
                    ctx,
                    scenario,
                    replay=replay,
                    num_shards=num_shards,
                    workers_per_shard=workers_per_shard,
                    mode=mode,
                )
            )
    except KeyboardInterrupt:
        write_serve_artifacts(
            ctx,
            results,
            num_shards=num_shards,
            workers_per_shard=workers_per_shard,
            partial=True,
            json_path=json_path,
            text_path=text_path,
        )
        raise
    write_serve_artifacts(
        ctx,
        results,
        num_shards=num_shards,
        workers_per_shard=workers_per_shard,
        json_path=json_path,
        text_path=text_path,
    )
    return results


def format_scale(results: list[ScaleScenarioResult]) -> str:
    rows = []
    for r in results:
        extras = []
        if r.swap_outcomes:
            extras.append("swaps=" + ",".join(r.swap_outcomes))
        if r.bit_identical is not None:
            extras.append(f"bit-identical={'yes' if r.bit_identical else 'NO'}")
        if r.exhausted_shards:
            extras.append(f"exhausted={r.exhausted_shards}")
        if not r.telemetry_consistent:
            extras.append("telemetry=MISMATCH")
        if r.worker_spans_reparented is not None:
            extras.append(
                "spans=" + ("linked" if r.worker_spans_reparented else "ORPHANED")
            )
        if r.slo_transitions:
            breaches = sum(1 for t in r.slo_transitions if t == "breach")
            recoveries = sum(1 for t in r.slo_transitions if t == "recovered")
            extras.append(f"slo=breach:{breaches},recovered:{recoveries}")
        rows.append(
            [
                r.scenario,
                f"{r.queries:,}",
                f"{100.0 * r.availability:.1f}%",
                f"{r.throughput_qps:,.0f}",
                f"{r.p50_ms:.2f}",
                f"{r.p99_ms:.2f}",
                f"{r.worker_served:,}",
                f"{r.fallback_served:,}",
                f"{r.shed:,}",
                str(r.redispatches),
                str(r.worker_restarts),
                " ".join(extras) or "-",
            ]
        )
    return render_table(
        [
            "scenario",
            "queries",
            "avail",
            "qps",
            "p50(ms)",
            "p99(ms)",
            "worker",
            "fallback",
            "shed",
            "redisp",
            "restarts",
            "notes",
        ],
        rows,
        title=(
            "Sharded serving chaos matrix: consistent-hash shards over "
            "supervised forked workers (avail = finite in-bounds answers; "
            "every scenario must hold 100%)"
        ),
    )
