"""Design-choice ablations the paper calls out (DESIGN.md Section 6).

Not figures of the paper, but experiments on the design knobs it
discusses: Naru's progressive-sampling width, MSCN's materialized-sample
bitmap, LW's CE features, and DeepDB's RDC threshold.
"""

import numpy as np
import pytest

from repro.core.metrics import qerrors
from repro.estimators.learned import (
    DeepDbEstimator,
    LwXgbEstimator,
    MscnEstimator,
    NaruEstimator,
)

pytestmark = pytest.mark.paper


def _geo(errors: np.ndarray) -> float:
    return float(np.exp(np.log(errors).mean()))


@pytest.fixture(scope="module")
def setting(ctx):
    table = ctx.table("census")
    return table, ctx.train_workload("census"), ctx.test_workload("census")


def test_naru_sampling_width(setting, record_result, benchmark):
    """More progressive-sampling paths -> lower variance, higher latency
    (the inference bottleneck of paper Section 4.3)."""
    table, _, test = setting
    # Modest epochs: ablations compare settings, not absolute accuracy.
    est = NaruEstimator(epochs=6, num_samples=16).fit(table)
    queries = list(test.queries)[:60]
    rows = []
    errors_by_width = {}
    for width in (16, 64, 256):
        est.num_samples = width
        errors = qerrors(est.estimate_many(queries), test.cardinalities[:60])
        errors_by_width[width] = _geo(errors)
        rows.append(f"samples={width:4d}  geo-mean q-error={_geo(errors):.3f}")
    record_result("ablation_naru_samples", "\n".join(rows))
    # Wide sampling should not be worse than the narrowest setting.
    assert errors_by_width[256] <= errors_by_width[16] * 1.5
    est.num_samples = 64
    benchmark(est.estimate, queries[0])


def test_mscn_sample_bitmap_helps(setting, record_result, benchmark):
    """Paper Section 2.3: the materialized sample makes an 'obvious
    positive impact' on MSCN."""
    table, train, test = setting
    queries = list(test.queries)
    with_sample = MscnEstimator(epochs=10, use_sample=True, seed=3).fit(table, train)
    without = MscnEstimator(epochs=10, use_sample=False, seed=3).fit(table, train)
    err_with = _geo(qerrors(with_sample.estimate_many(queries), test.cardinalities))
    err_without = _geo(qerrors(without.estimate_many(queries), test.cardinalities))
    record_result(
        "ablation_mscn_sample",
        f"with sample:    geo-mean q-error={err_with:.3f}\n"
        f"without sample: geo-mean q-error={err_without:.3f}",
    )
    assert err_with <= err_without * 1.25
    benchmark(with_sample.estimate, queries[0])


def test_lw_ce_features_help(setting, record_result, benchmark):
    """The CE features (AVI/MinSel/EBO) are LW's key cheap signal."""
    table, train, test = setting
    queries = list(test.queries)
    with_ce = LwXgbEstimator(num_trees=32).fit(table, train)
    without = LwXgbEstimator(num_trees=32, use_ce_features=False).fit(table, train)
    err_with = _geo(qerrors(with_ce.estimate_many(queries), test.cardinalities))
    err_without = _geo(qerrors(without.estimate_many(queries), test.cardinalities))
    record_result(
        "ablation_lw_ce_features",
        f"with CE features:    geo-mean q-error={err_with:.3f}\n"
        f"without CE features: geo-mean q-error={err_without:.3f}",
    )
    assert err_with <= err_without
    benchmark(with_ce.estimate, queries[0])


def test_deepdb_rdc_threshold(setting, record_result, benchmark):
    """The RDC threshold trades SPN size for accuracy (the paper's grid
    search): a threshold of 1.0 forces full independence (pure AVI)."""
    table, _, test = setting
    queries = list(test.queries)
    rows = []
    errors = {}
    for threshold in (0.1, 0.3, 1.01):
        est = DeepDbEstimator(rdc_threshold=threshold).fit(table)
        err = _geo(qerrors(est.estimate_many(queries), test.cardinalities))
        errors[threshold] = err
        rows.append(
            f"rdc_threshold={threshold:4.2f}  geo-mean q-error={err:.3f}  "
            f"size={est.model_size_bytes() / 1024:.0f}KB"
        )
    record_result("ablation_deepdb_rdc", "\n".join(rows))
    # Modelling dependence must beat the forced-AVI configuration.
    assert min(errors[0.1], errors[0.3]) <= errors[1.01]
    benchmark(est.estimate, queries[0])
