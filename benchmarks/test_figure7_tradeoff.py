"""Figure 7: Naru's update-epochs vs accuracy trade-off."""

import pytest

from repro.bench.dynamic_exp import figure7, format_figure7

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def points(ctx, record_result):
    out = figure7(ctx)
    record_result("figure7", format_figure7(out))
    return out


def test_update_time_grows_with_epochs(points):
    for dataset in {p.dataset for p in points}:
        subset = sorted(
            (p for p in points if p.dataset == dataset), key=lambda p: p.epochs
        )
        times = [p.update_seconds for p in subset]
        assert times == sorted(times)


def test_updated_model_improves_over_stale(points):
    """With enough epochs the updated model beats the stale one."""
    for dataset in {p.dataset for p in points}:
        best = min(
            (p for p in points if p.dataset == dataset),
            key=lambda p: p.updated_p99,
        )
        stale = max(p.stale_p99 for p in points if p.dataset == dataset)
        assert best.updated_p99 <= stale


def test_dynamic_bounded_by_components(points):
    """The dynamic mixture cannot beat both the stale and updated models."""
    for p in points:
        assert p.dynamic_p99 >= min(p.stale_p99, p.updated_p99) * 0.5


def test_one_epoch_update_benchmark(ctx, benchmark, points):
    import numpy as np

    from repro.datasets import apply_update
    from repro.estimators.learned import NaruEstimator

    table = ctx.table("census")
    est = NaruEstimator(epochs=1, update_epochs=1,
                        num_samples=ctx.scale.naru_samples).fit(table)
    new_table, appended = apply_update(table, np.random.default_rng(0))
    benchmark.pedantic(est.update, args=(new_table, appended), rounds=1, iterations=1)
