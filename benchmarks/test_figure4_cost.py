"""Figure 4: training and inference cost, learned methods vs DBMSs."""

import pytest

from repro.bench.static import figure4, format_figure4

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def rows(ctx, record_result):
    out = figure4(ctx)
    record_result("figure4", format_figure4(out))
    return out


def test_dbms_training_is_fastest(rows):
    """Statistics collection beats every learned method's training on
    each dataset (the paper's magnitude gap)."""
    for dataset in {r.dataset for r in rows}:
        subset = [r for r in rows if r.dataset == dataset]
        dbms = min(
            r.train_seconds_cpu for r in subset
            if r.method in ("postgres", "mysql", "dbms-a")
        )
        naru = next(r for r in subset if r.method == "naru")
        assert naru.train_seconds_cpu > dbms


def test_query_driven_inference_is_fast(rows):
    """MSCN / LW inference is competitive; Naru is much slower (paper:
    the progressive-sampling bottleneck)."""
    for dataset in {r.dataset for r in rows}:
        subset = {r.method: r for r in rows if r.dataset == dataset}
        assert subset["naru"].inference_ms_cpu > subset["lw-xgb"].inference_ms_cpu


def test_gpu_derivation_follows_paper_factors(rows):
    for r in rows:
        if r.method == "naru":
            assert r.train_seconds_gpu == pytest.approx(r.train_seconds_cpu / 8.0)
        if r.method == "mscn":
            # GPU is slower for small MSCN models (paper Section 4.3).
            assert r.train_seconds_gpu > r.train_seconds_cpu


def test_training_benchmark(ctx, benchmark, rows):
    """Benchmark the cheapest training path (Postgres stats collection)."""
    from repro.estimators.traditional import PostgresEstimator

    table = ctx.table("census")
    benchmark(lambda: PostgresEstimator().fit(table))
