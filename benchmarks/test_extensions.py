"""Extension experiments beyond the paper's figures.

* Plan regret: the q-error -> plan-quality link the paper cites
  (Moerkotte et al.) measured with the miniature optimizer.
* Tuning strategies: random search and successive halving against grid
  search (paper Section 7.1's cost-control proposals).
* Naru wildcard-skipping: the inference-latency mitigation for the
  progressive-sampling bottleneck (paper Section 4.3).
* Taxonomy extras: DQM-D / DQM-Q / STHoles alongside the core methods.
"""

import numpy as np
import pytest

from repro.core.metrics import qerrors, summarize
from repro.estimators.learned import NaruEstimator
from repro.planner import SingleTablePlanner
from repro.tuning import SearchSpace, grid_search, successive_halving

pytestmark = pytest.mark.paper


def _geo(errors: np.ndarray) -> float:
    return float(np.exp(np.log(errors).mean()))


def test_plan_regret_tracks_qerror(ctx, record_result, benchmark):
    """Estimators with better q-error choose better plans on average."""
    table = ctx.table("power")
    train = ctx.train_workload("power")
    test = ctx.test_workload("power")
    queries = list(test.queries)
    planner = SingleTablePlanner(table)

    rows = []
    stats = {}
    for method in ("postgres", "naru", "deepdb"):
        est = ctx.estimator(method, "power")
        estimates = est.estimate_many(queries)
        errors = qerrors(estimates, test.cardinalities)
        regrets = np.array(
            [
                planner.regret(q, e, a)
                for q, e, a in zip(queries, estimates, test.cardinalities)
            ]
        )
        stats[method] = (_geo(errors), float(np.mean(regrets)))
        rows.append(
            f"{method:10s} geo q-error={_geo(errors):6.2f}  "
            f"mean regret={np.mean(regrets):6.3f}  "
            f"wrong plans={np.mean(regrets > 1.01) * 100:4.1f}%"
        )
    record_result("extension_plan_regret", "\n".join(rows))

    for method, (err, regret) in stats.items():
        assert regret >= 1.0 - 1e-9
    # Every estimator keeps mean regret modest; gross regressions would
    # indicate a broken estimator or cost model.
    assert max(r for _, r in stats.values()) < 5.0
    benchmark(planner.regret, queries[0], 10.0, 100.0)


def test_tuning_strategies_cost_accuracy(ctx, record_result, benchmark):
    """Successive halving approaches grid-search quality at lower cost."""
    from repro.estimators.learned import LwNnEstimator

    table = ctx.table("census")
    train = ctx.train_workload("census")
    test = ctx.test_workload("census")
    valid, _ = test.split(max(2, len(test) // 2))

    def builder(config):
        return LwNnEstimator(
            hidden_units=config["hidden_units"],
            epochs=int(config.get("epochs", 4)),
        )

    space = SearchSpace({"hidden_units": [(8,), (16,), (32, 32), (64, 64)]})
    rng = np.random.default_rng(0)
    grid = grid_search(builder, space, table, train, valid)
    halving = successive_halving(
        builder, space, table, train, valid, rng,
        num_configs=4, eta=2, min_epochs=1, max_epochs=4,
    )
    record_result(
        "extension_tuning",
        f"grid search:        best={grid.best_score:.3f} "
        f"cost={grid.total_fit_seconds:.1f}s trials={len(grid.trials)}\n"
        f"successive halving: best={halving.best_score:.3f} "
        f"cost={halving.total_fit_seconds:.1f}s trials={len(halving.trials)}",
    )
    # Halving must find something competitive with full grid search.
    assert halving.best_score <= grid.best_score * 3.0
    benchmark(space.sample, rng)


def test_naru_wildcard_skipping_latency(ctx, record_result, benchmark):
    """Wildcard-skipping must cut latency on sparse queries without a
    large accuracy cost."""
    table = ctx.table("census")
    test = ctx.test_workload("census")
    queries = list(test.queries)

    plain = NaruEstimator(
        epochs=ctx.scale.naru_epochs, num_samples=ctx.scale.naru_samples,
        inference_seed=1,
    ).fit(table)
    skipping = NaruEstimator(
        epochs=ctx.scale.naru_epochs, num_samples=ctx.scale.naru_samples,
        wildcard_skipping=True, inference_seed=1,
    ).fit(table)

    plain_est = plain.estimate_many(queries)
    skip_est = skipping.estimate_many(queries)
    plain_ms = plain.timing.mean_inference_ms
    skip_ms = skipping.timing.mean_inference_ms
    plain_geo = _geo(qerrors(plain_est, test.cardinalities))
    skip_geo = _geo(qerrors(skip_est, test.cardinalities))
    record_result(
        "extension_wildcard",
        f"plain naru:    {plain_ms:6.2f} ms/query  geo q-error={plain_geo:.3f}\n"
        f"wildcard-skip: {skip_ms:6.2f} ms/query  geo q-error={skip_geo:.3f}",
    )
    assert skip_ms < plain_ms
    assert skip_geo < plain_geo * 2.5
    benchmark(skipping.estimate, queries[0])


def test_taxonomy_extras(ctx, record_result, benchmark):
    """DQM-D / DQM-Q / STHoles run under the same workload protocol."""
    from repro.registry import make_estimator

    table = ctx.table("census")
    train = ctx.train_workload("census")
    test = ctx.test_workload("census")
    queries = list(test.queries)
    rows = []
    summaries = {}
    for name in ("dqm-d", "dqm-q", "stholes"):
        est = make_estimator(name, ctx.scale)
        est.fit(table, train if est.requires_workload else None)
        summary = summarize(est.estimate_many(queries), test.cardinalities)
        summaries[name] = summary
        rows.append(f"{name:9s} {summary}")
    record_result("extension_taxonomy_extras", "\n".join(rows))
    for name, summary in summaries.items():
        assert np.isfinite(summary.max)
    est = make_estimator("stholes", ctx.scale)
    est.fit(table, train)
    benchmark(est.estimate, queries[0])
