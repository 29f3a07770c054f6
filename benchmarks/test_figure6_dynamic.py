"""Figure 6: learned methods vs DBMSs under different update frequencies."""

import pytest

from repro.bench.dynamic_exp import figure6, format_figure6

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def cells(ctx, record_result):
    out = figure6(ctx)
    record_result("figure6", format_figure6(out))
    return out


def test_every_cell_present(cells):
    datasets = {c.dataset for c in cells}
    assert datasets == {"census", "forest", "power", "dmv"}
    for dataset in datasets:
        frequencies = {c.frequency for c in cells if c.dataset == dataset}
        assert frequencies == {"high", "medium", "low"}


def test_some_learned_method_misses_high_frequency(cells):
    """At the highest update frequency, at least one learned method
    cannot finish within T (the paper's 'x' cells)."""
    high = [c for c in cells if c.frequency == "high"]
    assert any(not c.finished for c in high)


def test_everything_finishes_at_low_frequency(cells):
    low = [c for c in cells if c.frequency == "low"]
    assert all(c.finished for c in low)


def test_dbms_updates_are_fast(cells):
    """DBMS statistics refresh within every window (paper: stable)."""
    for c in cells:
        if c.method in ("postgres", "mysql", "dbms-a"):
            assert c.finished, (c.dataset, c.method, c.frequency)


def test_no_alltime_winner_among_learned(cells):
    """Paper finding: within learned methods there is no clear winner
    across datasets/frequencies."""
    learned = [c for c in cells if c.method not in ("postgres", "mysql", "dbms-a")]
    winners = set()
    for dataset in {c.dataset for c in learned}:
        for freq in ("high", "medium", "low"):
            group = [
                c for c in learned
                if c.dataset == dataset and c.frequency == freq and c.finished
            ]
            if group:
                winners.add(min(group, key=lambda c: c.p99).method)
    assert len(winners) >= 2


def test_update_benchmark(ctx, benchmark, cells):
    """Benchmark the cheapest model update (DeepDB's sample insert)."""
    import numpy as np

    from repro.datasets import apply_update
    from repro.estimators.learned import DeepDbEstimator

    table = ctx.table("census")
    rng = np.random.default_rng(0)
    new_table, appended = apply_update(table, rng)
    est = DeepDbEstimator().fit(table)
    benchmark(est.update, new_table, appended)
