"""Figure 10: top-1% q-error vs domain size."""

import pytest

from repro.bench.robustness import figure10, format_sweep

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def cells(ctx, record_result):
    out = figure10(ctx)
    record_result("figure10", format_sweep(out, "d", "Figure 10: domain-size sweep"))
    return out


def test_levels_present(cells):
    assert {int(c.level) for c in cells} == {10, 100, 1000, 10000}


def test_most_methods_degrade_with_domain_size(cells):
    """Paper: except for LW-NN, methods output larger error on larger
    domains."""
    degraded = 0
    for method in {c.method for c in cells}:
        by_level = {int(c.level): c for c in cells if c.method == method}
        if by_level[10_000].top_median >= by_level[10].top_median:
            degraded += 1
    assert degraded >= 3


def test_naru_large_domain_error_is_large(cells):
    """Naru's fixed-size model loses resolution on the 10K domain
    (paper: ~100x degrade from 1K to 10K).  At bench scale the exact
    ratio is noisy, so assert the absolute effect: large top-1% errors
    on the widest domain."""
    naru = {int(c.level): c for c in cells if c.method == "naru"}
    assert naru[10_000].top_max > 50


def test_discretizer_benchmark(ctx, benchmark, cells):
    import numpy as np

    from repro.datasets import generate_synthetic
    from repro.estimators.discretize import Discretizer

    rng = np.random.default_rng(0)
    table = generate_synthetic(10_000, 1.0, 1.0, 10_000, rng)
    disc = Discretizer(table, max_bins=256)
    benchmark(disc.transform, table.data)
