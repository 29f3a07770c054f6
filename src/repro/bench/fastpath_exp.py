"""Fast-path inference bench: int8, distilled, and semantic-cache tiers.

PR 3's batch baseline (``BENCH_batch.json``) made ``estimate_many`` the
hot path; this experiment measures what :mod:`repro.fastpath` buys on
top of it.  For each nn teacher it builds four serving tiers —

* **fp32** — the registry teacher as fitted (the incumbent),
* **int8** — a deep copy of the same weights, post-training quantized,
* **student** — a confidence-gated GBDT distilled from the teacher,
* **int8+cache** — the int8 model behind a
  :class:`~repro.fastpath.SemanticEstimateCache`-backed service,

and replays a dashboard-shaped workload against each: a cold phase of
unique queries followed by a warm phase of exact repeats and tightened
(subset) drill-downs, so the semantic cache answers both hit kinds.
Every tier is timed per query through its serving interface (p50/p99),
and its accuracy is scored as p95 q-error against true cardinalities.

Results merge into ``BENCH_batch.json`` under a ``fastpath`` key —
the existing ``batch`` results are preserved verbatim — plus the
human-readable ``benchmarks/results/fastpath.txt``.  Acceptance: the
int8+cache tier's p50 beats the committed batch baseline's per-query
cost by >= 5x on naru and mscn, at p95 q-error within 1.5x of the fp32
teacher.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.metrics import qerrors
from ..core.query import Predicate, Query
from ..core.workload import generate_workload
from ..fastpath import DistilledStudent, SemanticEstimateCache
from ..obs.clock import perf_counter
from ..serve import EstimatorService
from .context import BenchContext
from .reporting import render_table

#: teachers worth fast-pathing: the nn models with real inference cost
DEFAULT_METHODS = ("naru", "mscn")

#: unique queries in the cold phase
DEFAULT_UNIQUE = 120

#: warm-phase serves (exact repeats + subset drill-downs)
DEFAULT_WARM = 480

#: acceptance bars (see module docstring)
ACCEPTANCE_SPEEDUP = 5.0
ACCEPTANCE_QERR_RATIO = 1.5


@dataclass(frozen=True)
class FastPathTier:
    """One tier's latency/accuracy/size profile over the replay."""

    method: str
    tier: str
    p50_us: float
    p99_us: float
    qps: float
    #: p95 q-error against true cardinalities over the replay
    p95_qerr: float
    model_size_bytes: int
    #: exact + semantic hit rate; None for uncached tiers
    cache_hit_rate: float | None


@dataclass(frozen=True)
class FastPathResult:
    """All tiers for one teacher, plus the acceptance roll-ups."""

    method: str
    replay_queries: int
    tiers: dict[str, FastPathTier]
    #: committed batch baseline's per-query cost (us), for the speedup
    baseline_batch_us: float | None
    #: baseline_batch_us / int8+cache p50
    speedup_p50_vs_batch: float | None
    #: int8 p95 q-error / fp32 p95 q-error
    qerr_ratio_int8_vs_fp32: float
    #: int8+cache p95 q-error / fp32 p95 q-error
    qerr_ratio_cached_vs_fp32: float


def _tighten(rng: np.random.Generator, query: Query) -> Query:
    """A strict-subset drill-down of ``query`` (dashboard refinement)."""
    preds = []
    for p in query.predicates:
        lo = p.lo if p.lo is not None else -1e9
        hi = p.hi if p.hi is not None else 1e9
        if hi <= lo:
            preds.append(p)
            continue
        new_lo, new_hi = np.sort(rng.uniform(lo, hi, size=2)).tolist()
        preds.append(Predicate(p.column, new_lo, new_hi))
    return Query(tuple(preds))


def replay_queries(
    table,
    rng: np.random.Generator,
    n_unique: int = DEFAULT_UNIQUE,
    n_warm: int = DEFAULT_WARM,
    subset_fraction: float = 0.15,
) -> list[Query]:
    """Cold uniques, then shuffled exact repeats and subset probes."""
    unique = list(generate_workload(table, n_unique, rng).queries)
    warm: list[Query] = []
    for _ in range(n_warm):
        base = unique[int(rng.integers(len(unique)))]
        if rng.random() < subset_fraction:
            warm.append(_tighten(rng, base))
        else:
            warm.append(base)
    return unique + warm


def _time_tier(serve, queries) -> tuple[np.ndarray, np.ndarray]:
    """Per-query latencies (seconds) and served estimates."""
    latencies = np.empty(len(queries))
    estimates = np.empty(len(queries))
    for i, query in enumerate(queries):
        start = perf_counter()
        estimates[i] = serve(query)
        latencies[i] = perf_counter() - start
    return latencies, estimates


def _tier_profile(
    method: str,
    tier: str,
    serve,
    queries,
    actuals: np.ndarray,
    size_bytes: int,
    cache=None,
) -> FastPathTier:
    latencies, estimates = _time_tier(serve, queries)
    total = float(latencies.sum())
    return FastPathTier(
        method=method,
        tier=tier,
        p50_us=float(np.percentile(latencies, 50.0) * 1e6),
        p99_us=float(np.percentile(latencies, 99.0) * 1e6),
        qps=len(queries) / total if total else 0.0,
        p95_qerr=float(np.percentile(qerrors(estimates, actuals), 95.0)),
        model_size_bytes=size_bytes,
        cache_hit_rate=None if cache is None else cache.hit_rate,
    )


def _baseline_batch_us(method: str, json_path: Path) -> float | None:
    """Per-query cost (us) of the committed PR 3 batch baseline."""
    try:
        payload = json.loads(json_path.read_text())
        result = payload["results"][method]
        return 1e6 * result["batch_seconds"] / result["batch_size"]
    except (OSError, KeyError, ValueError):
        return None


def fastpath_tiers(
    ctx: BenchContext,
    dataset: str = "census",
    methods: tuple[str, ...] = DEFAULT_METHODS,
    n_unique: int = DEFAULT_UNIQUE,
    n_warm: int = DEFAULT_WARM,
    baseline_json: str | Path = "BENCH_batch.json",
) -> list[FastPathResult]:
    """Profile all four tiers per teacher over the replay workload."""
    table = ctx.table(dataset)
    rng = np.random.default_rng(ctx.seed + 177)
    queries = replay_queries(table, rng, n_unique, n_warm)
    actuals = table.cardinalities(queries)

    results: list[FastPathResult] = []
    for method in methods:
        teacher = ctx.estimator(method, dataset)
        pinned = hasattr(teacher, "inference_seed")
        saved_seed = teacher.inference_seed if pinned else None
        if pinned:
            teacher.inference_seed = ctx.seed + 178
        try:
            quantized = copy.deepcopy(teacher)
            quantized.quantize_int8()

            student = DistilledStudent(
                teacher,
                num_queries=min(2000, max(64, ctx.scale.train_queries)),
                seed=ctx.seed + 179,
            )
            student.fit(table)

            # A materialized row sample makes the semantic interpolation
            # empirical (skew-aware) instead of uniform-width.
            sample_rows = table.data[
                rng.choice(
                    table.num_rows,
                    size=min(512, table.num_rows),
                    replace=False,
                )
            ]
            cache = SemanticEstimateCache(
                capacity=4 * n_unique, sample=sample_rows
            )
            service = EstimatorService(
                [quantized], cache=cache, deadline_ms=None
            )

            tiers = {
                "fp32": _tier_profile(
                    method, "fp32", teacher.estimate, queries, actuals,
                    teacher.model_size_bytes(),
                ),
                "int8": _tier_profile(
                    method, "int8", quantized.estimate, queries, actuals,
                    quantized.model_size_bytes(),
                ),
                "student": _tier_profile(
                    method, "student", student.estimate, queries, actuals,
                    student.model_size_bytes(),
                ),
                "int8+cache": _tier_profile(
                    method, "int8+cache",
                    lambda q: service.serve(q).estimate, queries, actuals,
                    quantized.model_size_bytes(), cache=cache,
                ),
            }
        finally:
            if pinned:
                teacher.inference_seed = saved_seed

        baseline_us = _baseline_batch_us(method, Path(baseline_json))
        cached = tiers["int8+cache"]
        fp32 = tiers["fp32"]
        results.append(
            FastPathResult(
                method=method,
                replay_queries=len(queries),
                tiers=tiers,
                baseline_batch_us=baseline_us,
                speedup_p50_vs_batch=(
                    None if baseline_us is None or cached.p50_us <= 0.0
                    else baseline_us / cached.p50_us
                ),
                qerr_ratio_int8_vs_fp32=tiers["int8"].p95_qerr / fp32.p95_qerr,
                qerr_ratio_cached_vs_fp32=cached.p95_qerr / fp32.p95_qerr,
            )
        )
    return results


def format_fastpath(results: list[FastPathResult]) -> str:
    """Human-readable tier table plus the acceptance roll-up lines."""
    header = [
        "method",
        "tier",
        "p50",
        "p99",
        "qps",
        "p95 q-err",
        "size",
        "hit rate",
    ]
    rows = []
    for result in results:
        for tier in result.tiers.values():
            rows.append(
                [
                    tier.method,
                    tier.tier,
                    f"{tier.p50_us:,.0f}us",
                    f"{tier.p99_us:,.0f}us",
                    f"{tier.qps:,.0f}",
                    f"{tier.p95_qerr:.2f}",
                    f"{tier.model_size_bytes / 1024:.0f}KiB",
                    "n/a" if tier.cache_hit_rate is None
                    else f"{tier.cache_hit_rate:.0%}",
                ]
            )
    title = (
        f"Fast-path inference tiers ({results[0].replay_queries}-query "
        "replay: cold uniques, then repeats + subset drill-downs)"
    )
    lines = [render_table(header, rows, title=title)]
    for result in results:
        speedup = (
            "n/a (no batch baseline)"
            if result.speedup_p50_vs_batch is None
            else f"{result.speedup_p50_vs_batch:.1f}x"
        )
        lines.append(
            f"{result.method}: int8+cache p50 speedup vs batch baseline "
            f"{speedup} (floor {ACCEPTANCE_SPEEDUP:.0f}x); p95 q-error "
            f"ratio int8 {result.qerr_ratio_int8_vs_fp32:.2f}, cached "
            f"{result.qerr_ratio_cached_vs_fp32:.2f} "
            f"(ceiling {ACCEPTANCE_QERR_RATIO:.1f})"
        )
    return "\n".join(lines)


def write_fastpath_artifacts(
    ctx: BenchContext,
    results: list[FastPathResult],
    dataset: str,
    json_path: str | Path = "BENCH_batch.json",
    text_path: str | Path = "benchmarks/results/fastpath.txt",
) -> list[Path]:
    """Merge a ``fastpath`` section into the baseline JSON; write text.

    The batch experiment's payload is preserved verbatim — only the
    ``fastpath`` key is replaced.
    """
    json_path, text_path = Path(json_path), Path(text_path)
    try:
        payload = json.loads(json_path.read_text())
    except (OSError, ValueError):
        payload = {}
    payload["fastpath"] = {
        "dataset": dataset,
        "scale": ctx.scale.name,
        "seed": ctx.seed,
        "replay_queries": results[0].replay_queries if results else 0,
        "acceptance": {
            "speedup_floor": ACCEPTANCE_SPEEDUP,
            "qerr_ratio_ceiling": ACCEPTANCE_QERR_RATIO,
        },
        "results": {r.method: asdict(r) for r in results},
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    text_path.parent.mkdir(parents=True, exist_ok=True)
    text_path.write_text(format_fastpath(results) + "\n")
    return [json_path, text_path]


def fastpath_experiment(
    ctx: BenchContext,
    dataset: str = "census",
    json_path: str | Path = "BENCH_batch.json",
    text_path: str | Path = "benchmarks/results/fastpath.txt",
) -> str:
    """Run the fast-path bench, write both artifacts, return the table."""
    results = fastpath_tiers(ctx, dataset=dataset, baseline_json=json_path)
    paths = write_fastpath_artifacts(ctx, results, dataset, json_path, text_path)
    lines = [format_fastpath(results)]
    lines += [f"[baseline written: {p}]" for p in paths]
    return "\n".join(lines)
