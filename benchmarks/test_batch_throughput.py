"""Batch-inference throughput: the repo's first perf baseline.

Validates the committed ``BENCH_batch.json`` baseline (schema and the
acceptance speedups) and re-runs the scalar-vs-batch experiment live to
confirm the numbers reproduce: the batched hot path still beats the
scalar loop and still returns the same estimates.  Regenerate the
committed baseline deterministically with ``python -m repro.bench
batch`` (same seed and scale as this suite's session context).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.batch_exp import (
    DEFAULT_BATCH_SIZE,
    batch_throughput,
    format_batch,
)
from repro.core.workload import generate_workload

REPO_ROOT = Path(__file__).parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_batch.json"

#: The acceptance trio: learned methods whose vectorized hot path must
#: deliver at least this speedup on the 1k-query batch.
ACCEPTANCE_SPEEDUPS = {"naru": 3.0, "mscn": 3.0, "lw-nn": 3.0}

REQUIRED_RESULT_KEYS = {
    "method",
    "batch_size",
    "scalar_measured_queries",
    "scalar_seconds",
    "batch_seconds",
    "scalar_qps",
    "batch_qps",
    "speedup",
    "max_rel_diff",
}


@pytest.fixture(scope="module")
def baseline():
    """The committed machine-readable baseline."""
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def live(ctx, record_scratch):
    """A fresh run of the experiment; its table goes to a scratch dir
    (both committed artifacts are regenerated via ``python -m
    repro.bench batch`` so committed numbers are never silently
    overwritten by a noisy test run)."""
    out = batch_throughput(ctx)
    record_scratch("batch_throughput", format_batch(out))
    return {r.method: r for r in out}


class TestCommittedBaseline:
    def test_schema(self, baseline):
        assert baseline["experiment"] == "batch_throughput"
        assert baseline["batch_size"] == DEFAULT_BATCH_SIZE
        assert baseline["results"], "baseline has no per-method results"
        for method, result in baseline["results"].items():
            assert REQUIRED_RESULT_KEYS <= set(result), method
            assert result["method"] == method
            assert result["speedup"] > 0.0
            assert result["batch_qps"] > 0.0

    def test_acceptance_speedups(self, baseline):
        for method, floor in ACCEPTANCE_SPEEDUPS.items():
            speedup = baseline["results"][method]["speedup"]
            assert speedup >= floor, (
                f"{method}: committed baseline speedup {speedup:.1f}x "
                f"below the {floor:.0f}x acceptance floor"
            )

    def test_equivalence_within_tolerance(self, baseline):
        for method, result in baseline["results"].items():
            diff = result["max_rel_diff"]
            if diff is not None:
                assert diff <= 1e-9, method


class TestLiveRun:
    def test_covers_every_registered_estimator(self, live, baseline):
        assert set(live) == set(baseline["results"])

    def test_batch_matches_scalar_prefix(self, live):
        for method, result in live.items():
            if result.max_rel_diff is not None:
                assert result.max_rel_diff <= 1e-9, method

    def test_acceptance_trio_still_faster(self, live):
        # Loose live bound (the hard >=3x floor is asserted against the
        # committed baseline): a regression that erases the batch win
        # entirely fails here even on a noisy machine.
        for method in ACCEPTANCE_SPEEDUPS:
            assert live[method].speedup > 1.0, (
                f"{method}: batched path no faster than the scalar loop "
                f"({live[method].speedup:.2f}x)"
            )

    def test_deepdb_batch_beats_scalar_loop(self, live):
        # One network pass per batch instead of one recursion per query.
        assert live["deepdb"].speedup > 2.0, (
            f"deepdb: batched path {live['deepdb'].speedup:.2f}x the scalar loop"
        )


def test_workload_regeneration_is_deterministic(ctx):
    """Same seed, same batch: the CLI regen reproduces the workload."""
    table = ctx.table("census")
    first = generate_workload(
        table, 50, np.random.default_rng(ctx.seed + 77)
    ).queries
    second = generate_workload(
        table, 50, np.random.default_rng(ctx.seed + 77)
    ).queries
    assert list(first) == list(second)


def test_batched_hot_path_benchmark(ctx, benchmark):
    """Benchmark one estimate_many call on the cheapest learned method."""
    est = ctx.estimator("mscn", "census")
    rng = np.random.default_rng(ctx.seed + 77)
    queries = list(generate_workload(ctx.table("census"), 256, rng).queries)
    out = benchmark(lambda: est.estimate_many(queries))
    assert out.shape == (256,)
