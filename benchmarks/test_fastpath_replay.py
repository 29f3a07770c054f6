"""Fast-path tier bench: committed acceptance numbers + big replay.

The fast tests validate the ``fastpath`` section that ``python -m
repro.bench fastpath`` merged into the committed ``BENCH_batch.json``:
schema, and the acceptance bars (int8+cache p50 at least 5x faster than
the PR 3 batch baseline on naru and mscn, p95 q-error within 1.5x of
the fp32 teacher).

The ``slow``-marked replay drives 100k+ queries through the
int8+cache serving tier — exact repeats, semantic drill-downs, and cold
misses interleaved — asserting steady-state hit rate, cache-hit latency,
and the semantic monotonicity bound on every subsumption answer.  Run it
with ``pytest -m slow benchmarks/test_fastpath_replay.py``.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.fastpath_exp import (
    ACCEPTANCE_QERR_RATIO,
    ACCEPTANCE_SPEEDUP,
    replay_queries,
)
from repro.fastpath import SemanticEstimateCache
from repro.obs.clock import perf_counter
from repro.serve import EstimatorService

REPO_ROOT = Path(__file__).parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_batch.json"

#: the acceptance pair named by the roadmap: nn teachers with real cost
ACCEPTANCE_METHODS = ("naru", "mscn")

REQUIRED_TIER_KEYS = {
    "method",
    "tier",
    "p50_us",
    "p99_us",
    "qps",
    "p95_qerr",
    "model_size_bytes",
    "cache_hit_rate",
}

#: replay size for the slow steady-state test
REPLAY_UNIQUE = 2_000
REPLAY_WARM = 98_000


@pytest.fixture(scope="module")
def fastpath_baseline():
    """The committed fastpath section of the machine-readable baseline."""
    payload = json.loads(BASELINE_PATH.read_text())
    assert "fastpath" in payload, (
        "BENCH_batch.json has no fastpath section; regenerate with "
        "`python -m repro.bench fastpath`"
    )
    return payload["fastpath"]


class TestCommittedFastPathBaseline:
    def test_schema(self, fastpath_baseline):
        section = fastpath_baseline
        assert section["replay_queries"] > 0
        assert section["acceptance"]["speedup_floor"] == ACCEPTANCE_SPEEDUP
        assert (
            section["acceptance"]["qerr_ratio_ceiling"]
            == ACCEPTANCE_QERR_RATIO
        )
        for method in ACCEPTANCE_METHODS:
            result = section["results"][method]
            assert set(result["tiers"]) == {
                "fp32",
                "int8",
                "student",
                "int8+cache",
            }
            for tier in result["tiers"].values():
                assert REQUIRED_TIER_KEYS <= set(tier), (method, tier)

    def test_acceptance_speedup(self, fastpath_baseline):
        for method in ACCEPTANCE_METHODS:
            result = fastpath_baseline["results"][method]
            speedup = result["speedup_p50_vs_batch"]
            assert speedup is not None, f"{method}: no batch baseline"
            assert speedup >= ACCEPTANCE_SPEEDUP, (
                f"{method}: int8+cache p50 speedup {speedup:.1f}x below "
                f"the {ACCEPTANCE_SPEEDUP:.0f}x floor"
            )

    def test_acceptance_qerror(self, fastpath_baseline):
        for method in ACCEPTANCE_METHODS:
            result = fastpath_baseline["results"][method]
            for key in (
                "qerr_ratio_int8_vs_fp32",
                "qerr_ratio_cached_vs_fp32",
            ):
                assert result[key] <= ACCEPTANCE_QERR_RATIO, (
                    f"{method}: {key} {result[key]:.2f} above the "
                    f"{ACCEPTANCE_QERR_RATIO:.1f} ceiling"
                )

    def test_int8_tier_is_smaller(self, fastpath_baseline):
        for method in ACCEPTANCE_METHODS:
            tiers = fastpath_baseline["results"][method]["tiers"]
            assert (
                tiers["int8"]["model_size_bytes"]
                < tiers["fp32"]["model_size_bytes"] / 2
            ), f"{method}: int8 packing saved less than half the weights"


@pytest.mark.slow
def test_100k_query_replay_steady_state(ctx, record_scratch):
    """100k+ queries through the int8+cache tier: hit rate, latency,
    and the monotonicity bound on every semantic answer."""
    table = ctx.table("census")
    rng = np.random.default_rng(ctx.seed + 181)
    queries = replay_queries(
        table, rng, n_unique=REPLAY_UNIQUE, n_warm=REPLAY_WARM
    )
    assert len(queries) >= 100_000

    teacher = ctx.estimator("mscn", "census")
    quantized = copy.deepcopy(teacher)
    quantized.quantize_int8()
    cache = SemanticEstimateCache(capacity=4 * REPLAY_UNIQUE)
    service = EstimatorService([quantized], cache=cache, deadline_ms=None)

    latencies = np.empty(len(queries))
    bound_checked = 0
    for i, query in enumerate(queries):
        start = perf_counter()
        served = service.serve(query)
        latencies[i] = perf_counter() - start
        if cache.last_hit_kind == "semantic_hit":
            superset, cached_value = cache.last_semantic_match
            assert 0.0 <= served.estimate <= cached_value
            bound_checked += 1

    assert service.health().queries == len(queries)
    assert bound_checked > 0, "replay never exercised the semantic path"
    assert cache.hit_rate > 0.5, f"hit rate {cache.hit_rate:.2%}"
    p50_us = float(np.percentile(latencies, 50.0) * 1e6)
    p99_us = float(np.percentile(latencies, 99.0) * 1e6)
    # Loose machine-tolerant bound: steady state must stay far below
    # scalar model inference (hundreds of us for mscn at any scale).
    assert p50_us < 100.0, f"steady-state p50 {p50_us:.0f}us"

    record_scratch(
        "fastpath_replay",
        "\n".join(
            [
                f"100k-replay steady state ({len(queries)} queries, "
                "mscn int8+cache)",
                f"  p50 {p50_us:.1f}us  p99 {p99_us:.1f}us  "
                f"qps {len(queries) / latencies.sum():,.0f}",
                f"  hit rate {cache.hit_rate:.1%} "
                f"(exact {cache.hits}, semantic {cache.semantic_hits}, "
                f"misses {cache.misses})",
                f"  semantic bounds checked: {bound_checked}",
            ]
        ),
    )
