"""Figure 11: Naru's repeated-estimate spread on one adversarial query."""

import pytest

from repro.bench.robustness import figure11, format_figure11

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def result(ctx, record_result):
    out = figure11(ctx)
    record_result("figure11", format_figure11(out))
    return out


def test_estimates_spread_widely(result):
    """Under functional dependency with a wide first-column range, the
    progressive-sampling estimates spread over a large interval (paper:
    [0, 5992] for an actual of 1036)."""
    assert result.spread > 0.0
    assert result.relative_spread > 0.1


def test_estimates_are_finite_and_nonnegative(result):
    assert (result.estimates >= 0.0).all()
    assert result.estimates.max() < 1e12


def test_progressive_sampling_benchmark(ctx, benchmark, result):
    import numpy as np

    from repro.core import Predicate, Query
    from repro.datasets import generate_synthetic
    from repro.estimators.learned import NaruEstimator

    rng = np.random.default_rng(0)
    table = generate_synthetic(5000, 0.0, 1.0, 1000, rng)
    est = NaruEstimator(epochs=1, num_samples=ctx.scale.naru_samples).fit(table)
    query = Query((Predicate(0, 50.0, 900.0), Predicate(1, 100.0, 102.0)))
    benchmark(est.estimate, query)
