"""Figures 9a/9b: top-1% q-error vs correlation and skew."""

import numpy as np
import pytest

from repro.bench.robustness import figure9a, figure9b, format_sweep

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def corr_cells(ctx, record_result):
    out = figure9a(ctx)
    record_result("figure9a", format_sweep(out, "c", "Figure 9a: correlation sweep"))
    return out


@pytest.fixture(scope="module")
def skew_cells(ctx, record_result):
    out = figure9b(ctx)
    record_result("figure9b", format_sweep(out, "s", "Figure 9b: skew sweep"))
    return out


def test_correlation_hurts_every_method(corr_cells):
    """Paper: all methods output larger errors on more correlated data;
    the error jumps dramatically at functional dependency (c = 1)."""
    methods = {c.method for c in corr_cells}
    for method in methods:
        by_level = {c.level: c for c in corr_cells if c.method == method}
        assert by_level[1.0].top_median > by_level[0.0].top_median


def test_functional_dependency_blowup(corr_cells):
    """The c=1.0 jump is large (paper: 10-100x) for most methods."""
    methods = {c.method for c in corr_cells}
    blowups = 0
    for method in methods:
        by_level = {c.level: c for c in corr_cells if c.method == method}
        if by_level[1.0].top_max > 5 * by_level[0.0].top_max:
            blowups += 1
    assert blowups >= 3


def test_skew_reactions_differ(skew_cells):
    """Paper: methods react differently to skew — the cross-method
    spread of the max-error trend must not collapse to one direction."""
    trends = {}
    for method in {c.method for c in skew_cells}:
        by_level = sorted(
            (c for c in skew_cells if c.method == method), key=lambda c: c.level
        )
        trends[method] = by_level[-1].top_median / max(by_level[0].top_median, 1.0)
    values = np.array(list(trends.values()))
    assert values.max() / max(values.min(), 1e-9) > 1.5


def test_sweep_cell_sanity(corr_cells, skew_cells):
    for cell in list(corr_cells) + list(skew_cells):
        assert cell.top_min >= 1.0
        assert cell.top_min <= cell.top_median <= cell.top_max


def test_synthetic_generation_benchmark(ctx, benchmark, corr_cells, skew_cells):
    from repro.datasets import generate_synthetic

    rng = np.random.default_rng(0)
    benchmark(generate_synthetic, 10_000, 1.0, 0.5, 1000, rng)
