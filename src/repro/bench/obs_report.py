"""Observability report: per-tenant SLO dashboard and exemplars.

This experiment exercises the cross-process telemetry layer end to end
and renders what an operator of the sharded serving tier would actually
look at:

* a sharded replay (forked workers, telemetry piggybacked on the reply
  pipes) driven through a forced **SLO breach → recovery cycle**: slowed
  workers burn every tenant's latency error budget, a mid-replay swap to
  the clean model recovers them;
* a **ground-truth feedback pass** (``record_actual``) that labels a
  slice of the served estimates, feeding the per-tenant accuracy SLO and
  the worst-q-error exemplar board;
* the **per-tenant SLO dashboard** (burn rates, breach counts), the
  **exemplar boards** (worst q-error and slowest estimates, each linked
  to its trace id), and the cross-process **telemetry invariant** check
  (merged per-worker counters vs the parent's accepted answers).

Artifact: ``benchmarks/results/obs_report.jsonl`` (SLO statuses and
board-tagged exemplars, one JSON object per line).  When the CLI
installed a span collector (``--trace-out``), merged worker spans land
in it and ride along in the exported trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..core.query import Query
from ..faults import SlowWorkerFault, queue_flood
from ..obs import (
    WORKER_QUERIES,
    EventLog,
    ExemplarStore,
    MetricsRegistry,
    SloRegistry,
    SloStatus,
    SpanCollector,
    get_collector,
    install_collector,
    uninstall_collector,
)
from ..obs.slo import LATENCY, QERROR, SloObjective
from ..serve import HeuristicConstantEstimator
from ..shard import ShardRequest, ShardRouter
from .context import BenchContext
from .reporting import render_table

#: replay sizes per scale preset (small on purpose: the deliverable is
#: the telemetry, not the throughput number)
OBS_REPLAY = {"ci": 2_048, "default": 8_192, "paper": 16_384}

#: dispatch batch size for the breach/recovery replay
OBS_CHUNK = 256

#: tight latency objective: any per-request latency above 0.3 ms burns
#: error budget.  Slowed workers sit far above it (0.15 s per batch), a
#: healthy pool far below; ``breach_burn_rate=20`` keeps a single noisy
#: batch from paging
LATENCY_OBJECTIVE = SloObjective(
    LATENCY,
    threshold=0.3,
    target=0.99,
    fast_window=64,
    slow_window=256,
    breach_burn_rate=20.0,
    recover_burn_rate=1.0,
    min_samples=64,
)

#: accuracy objective fed by the record_actual feedback pass: a sample
#: is bad when its q-error exceeds 4x
QERROR_OBJECTIVE = SloObjective(
    QERROR,
    threshold=4.0,
    target=0.90,
    fast_window=32,
    slow_window=128,
    breach_burn_rate=2.0,
    recover_burn_rate=1.0,
    min_samples=16,
)


@dataclass(frozen=True)
class ObsReportResult:
    """Everything :func:`format_obs_report` renders."""

    queries: int
    tenants: tuple[str, ...]
    statuses: tuple[SloStatus, ...]
    #: slo.breach / slo.recovered transitions in emission order
    slo_transitions: tuple[str, ...]
    #: worst-q-error exemplars, worst first (merged across tenants)
    worst_qerror: tuple
    #: slowest-estimate exemplars, slowest first
    slowest: tuple
    #: labelled feedback samples fed through record_actual
    labelled: int
    #: merged per-worker serve counters sum == parent's accepted answers
    telemetry_consistent: bool
    merged_worker_queries: int
    worker_answered: int
    #: merged spans carrying a worker_pid attribute
    worker_spans: int
    #: >=1 worker span re-parented under a serve.batch span
    worker_spans_reparented: bool | None
    jsonl_path: str | None


def _stream(ctx: BenchContext, dataset: str, target: int) -> list[Query]:
    base = list(ctx.test_workload(dataset).queries)
    multiplier = max(1, -(-target // len(base)))  # ceil
    return queue_flood(base, multiplier=multiplier, seed=ctx.seed)[:target]


def obs_report_experiment(
    ctx: BenchContext,
    *,
    dataset: str = "census",
    replay: int | None = None,
    num_shards: int = 2,
    workers_per_shard: int = 2,
    mode: str = "auto",
    out_dir: str | Path | None = "benchmarks/results",
) -> ObsReportResult:
    """Run the breach/recovery replay and label feedback."""
    table = ctx.table(dataset)
    primary = ctx.fresh_estimator("sampling", dataset)
    heuristic = HeuristicConstantEstimator()
    heuristic.fit(table)
    slow = SlowWorkerFault(
        primary, delay_seconds=0.15, probability=1.0, seed=ctx.seed
    )
    slow.fit(table)

    registry = MetricsRegistry()
    events = EventLog()
    slos = SloRegistry(registry=registry, events=events)
    slos.set_objective(LATENCY_OBJECTIVE)
    slos.set_objective(QERROR_OBJECTIVE)
    exemplars = ExemplarStore(per_tenant=4)
    collector = get_collector()
    owns_collector = collector is None
    if owns_collector:
        collector = install_collector(SpanCollector(capacity=16_384))

    target = replay if replay is not None else OBS_REPLAY[ctx.scale.name]
    stream = _stream(ctx, dataset, target)
    requests = [
        ShardRequest(query=q, tenant=f"t{i % 4}", priority=i % 3)
        for i, q in enumerate(stream)
    ]
    swap_at = (len(requests) // (2 * OBS_CHUNK)) * OBS_CHUNK

    router = ShardRouter(
        primary,
        [heuristic],
        num_shards=num_shards,
        workers_per_shard=workers_per_shard,
        worker_estimator=slow,
        mode=mode,
        seed=ctx.seed,
        events=events,
        registry=registry,
        slos=slos,
        exemplars=exemplars,
    )
    served_all = []
    try:
        with router:
            for lo in range(0, len(requests), OBS_CHUNK):
                if lo == swap_at:
                    # Recovery: every shard back on the clean model.
                    for shard in router.shards.values():
                        shard.swap_model(primary)
                served_all.extend(
                    router.serve_batch(requests[lo : lo + OBS_CHUNK])
                )
            # Ground-truth feedback: label a slice of the requests and
            # feed the q-error back — the accuracy SLO and the
            # worst-q-error board only see what this path reports.  The
            # stride is coprime with the tenant period so every tenant
            # gets labelled samples.
            sample = list(range(0, len(requests), 5))
            actuals = table.cardinalities(
                [requests[i].query for i in sample]
            )
            for i, actual in zip(sample, actuals):
                router.record_actual(requests[i], served_all[i], float(actual))
            totals = router.totals()

        merged_worker_queries = int(
            sum(
                series["value"]
                for series in registry.counter(WORKER_QUERIES).snapshot()[
                    "series"
                ]
            )
        )
        spans = collector.spans()
        worker_spans = [s for s in spans if "worker_pid" in s.attrs]
        batch_span_ids = {s.span_id for s in spans if s.name == "serve.batch"}
        worker_spans_reparented = (
            any(s.parent_id in batch_span_ids for s in worker_spans)
            if worker_spans
            else None
        )
    finally:
        if owns_collector:
            uninstall_collector()

    slo_transitions = tuple(
        e.kind.removeprefix("slo.")
        for e in events.events()
        if e.kind in ("slo.breach", "slo.recovered")
    )
    statuses = tuple(slos.statuses())

    jsonl_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        jsonl = out / "obs_report.jsonl"
        with open(jsonl, "w") as fh:
            for status in statuses:
                fh.write(
                    json.dumps(
                        {"record": "slo_status", **status.to_dict()},
                        sort_keys=True,
                    )
                    + "\n"
                )
            for board, items in (
                ("worst_qerror", exemplars.worst_qerror()),
                ("slowest", exemplars.slowest()),
            ):
                for exemplar in items:
                    fh.write(
                        json.dumps(
                            {
                                "record": "exemplar",
                                "board": board,
                                **exemplar.to_dict(),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        jsonl_path = str(jsonl)

    return ObsReportResult(
        queries=len(requests),
        tenants=tuple(sorted({r.tenant for r in requests})),
        statuses=statuses,
        slo_transitions=slo_transitions,
        worst_qerror=tuple(exemplars.worst_qerror()[:8]),
        slowest=tuple(exemplars.slowest()[:8]),
        labelled=len(sample),
        telemetry_consistent=merged_worker_queries == totals.worker_answered,
        merged_worker_queries=merged_worker_queries,
        worker_answered=totals.worker_answered,
        worker_spans=len(worker_spans),
        worker_spans_reparented=worker_spans_reparented,
        jsonl_path=jsonl_path,
    )


def format_obs_report(result: ObsReportResult) -> str:
    parts = [
        render_table(
            [
                "tenant",
                "objective",
                "target",
                "samples",
                "bad",
                "fast burn",
                "slow burn",
                "breached",
                "breaches",
                "recoveries",
            ],
            [
                [
                    s.tenant,
                    s.objective,
                    f"{s.target:.2f}",
                    s.samples,
                    s.bad_samples,
                    f"{s.fast_burn_rate:.1f}",
                    f"{s.slow_burn_rate:.1f}",
                    "yes" if s.breached else "no",
                    s.breaches,
                    s.recoveries,
                ]
                for s in result.statuses
            ],
            title=(
                f"Per-tenant SLOs after {result.queries:,} requests "
                f"(breach phase -> clean-model recovery; "
                f"{result.labelled} estimates labelled via record_actual)"
            ),
        ),
        "SLO transitions: "
        + (" -> ".join(result.slo_transitions) or "none"),
        render_table(
            ["tenant", "estimator", "qerror", "estimate", "actual", "trace"],
            [
                [
                    e.tenant,
                    e.estimator,
                    f"{e.qerror:.2f}",
                    f"{e.estimate:.0f}",
                    f"{e.actual:.0f}",
                    e.trace_id or "-",
                ]
                for e in result.worst_qerror
            ],
            title="Worst-q-error exemplars (each links to its trace)",
        ),
        render_table(
            ["tenant", "estimator", "latency(ms)", "trace"],
            [
                [
                    e.tenant,
                    e.estimator,
                    f"{1000.0 * e.latency_seconds:.3f}",
                    e.trace_id or "-",
                ]
                for e in result.slowest
            ],
            title="Slowest-estimate exemplars",
        ),
        (
            f"Telemetry invariant: merged worker counters "
            f"{result.merged_worker_queries:,} vs accepted answers "
            f"{result.worker_answered:,} -> "
            + ("CONSISTENT" if result.telemetry_consistent else "MISMATCH")
        ),
        (
            f"Worker spans merged: {result.worker_spans} "
            + (
                "(re-parented under serve.batch)"
                if result.worker_spans_reparented
                else "(no re-parented span!)"
                if result.worker_spans_reparented is False
                else "(inline mode: none expected)"
            )
        ),
    ]
    if result.jsonl_path:
        parts.append(f"Artifact: {result.jsonl_path}")
    return "\n\n".join(parts)
