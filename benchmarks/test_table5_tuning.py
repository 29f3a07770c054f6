"""Table 5: hyper-parameter sensitivity of the neural estimators."""

import pytest

from repro.bench.static import format_table5, table5

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def results(ctx, record_result):
    # Two datasets keep the 3 methods x 4 architectures sweep tractable;
    # pass REPRO_SCALE=paper and edit here for the full four.
    out = table5(ctx, datasets=["census", "forest"])
    record_result("table5", format_table5(out))
    return out


def test_ratios_at_least_one(results):
    for method, by_dataset in results.items():
        for dataset, ratio in by_dataset.items():
            assert ratio >= 1.0


def test_tuning_matters(results):
    """Architecture choice must change accuracy materially for at least
    one neural method on each dataset (paper: ratios up to 10^5)."""
    for dataset in next(iter(results.values())):
        assert max(results[m][dataset] for m in results) > 1.3


def test_tuning_benchmark(ctx, benchmark, results):
    """Benchmark one tuning candidate's fit (the unit of tuning cost)."""
    from repro.estimators.learned import LwNnEstimator

    table = ctx.table("census")
    train = ctx.train_workload("census")
    benchmark(lambda: LwNnEstimator(hidden_units=(16,), epochs=2).fit(table, train))
