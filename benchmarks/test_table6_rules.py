"""Table 6: logical-rule satisfaction of the learned estimators."""

import pytest

from repro.bench.rules_exp import format_table6, table6

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def results(ctx, record_result):
    out = table6(ctx)
    record_result("table6", format_table6(out))
    return out


def test_deepdb_satisfies_every_rule(results):
    """Paper Table 6: DeepDB's sum/product/histogram structure is the
    only learned model that behaves logically."""
    assert all(r.satisfied for r in results["deepdb"].values())


def test_naru_violates_stability(results):
    assert not results["naru"]["stability"].satisfied


def test_naru_satisfies_fidelity(results):
    assert results["naru"]["fidelity-a"].satisfied
    assert results["naru"]["fidelity-b"].satisfied


def test_regression_methods_violate_fidelity(results):
    """Paper Table 6: the regression methods violate both fidelity
    rules.  Fidelity-A is a single full-domain probe that a tree model
    can pass by luck at small scale, so the robust assertion is:
    fidelity-B always violated, fidelity-A violated by most."""
    for method in ("mscn", "lw-xgb", "lw-nn"):
        assert not results[method]["fidelity-b"].satisfied
    fidelity_a_violations = sum(
        not results[m]["fidelity-a"].satisfied
        for m in ("mscn", "lw-xgb", "lw-nn")
    )
    assert fidelity_a_violations >= 2


def test_regression_methods_are_stable(results):
    for method in ("mscn", "lw-xgb", "lw-nn"):
        assert results[method]["stability"].satisfied


def test_rule_check_benchmark(ctx, benchmark, results):
    import numpy as np

    from repro.estimators.learned import DeepDbEstimator
    from repro.rules import check_monotonicity

    table = ctx.table("census")
    est = DeepDbEstimator().fit(table)
    rng = np.random.default_rng(0)
    benchmark.pedantic(
        check_monotonicity, args=(est, table, rng, 10), rounds=1, iterations=1
    )
