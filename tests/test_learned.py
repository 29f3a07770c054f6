"""Behavioural tests for the five learned estimators."""

import numpy as np
import pytest

from repro.core import Predicate, Query, qerrors
from repro.core.query import PredicateArrays
from repro.datasets import apply_update, generate_synthetic
from repro.estimators.learned import (
    DeepDbEstimator,
    LwNnEstimator,
    LwXgbEstimator,
    MscnEstimator,
    NaruEstimator,
)


def _geo(errors: np.ndarray) -> float:
    return float(np.exp(np.log(errors).mean()))


FAST_CONFIGS = {
    "mscn": lambda: MscnEstimator(epochs=12, hidden_units=32),
    "lw-xgb": lambda: LwXgbEstimator(num_trees=32),
    "lw-nn": lambda: LwNnEstimator(epochs=20, hidden_units=(32, 32)),
    "naru": lambda: NaruEstimator(epochs=6, num_samples=100),
    "deepdb": lambda: DeepDbEstimator(),
}


@pytest.fixture(scope="module", params=list(FAST_CONFIGS))
def fitted(request, small_synthetic, synthetic_workloads):
    est = FAST_CONFIGS[request.param]()
    train, _ = synthetic_workloads
    est.fit(small_synthetic, train if est.requires_workload else None)
    return est


class TestCommonBehaviour:
    def test_beats_trivial_baseline(self, fitted, synthetic_workloads):
        _, test = synthetic_workloads
        errors = qerrors(
            fitted.estimate_many(list(test.queries)), test.cardinalities
        )
        baseline = qerrors(np.ones(len(test)), test.cardinalities)
        assert _geo(errors) < _geo(baseline)

    def test_estimates_nonnegative_and_finite(self, fitted, synthetic_workloads):
        _, test = synthetic_workloads
        estimates = fitted.estimate_many(list(test.queries))
        assert np.isfinite(estimates).all()
        assert (estimates >= 0).all()

    def test_model_size_reported(self, fitted):
        assert fitted.model_size_bytes() > 0

    def test_update_runs(self, fitted, small_synthetic, rng, synthetic_workloads):
        new_table, appended = apply_update(small_synthetic, rng)
        train, _ = synthetic_workloads
        # Query-driven methods need fresh labels against the new table.
        workload = train if fitted.requires_workload else None
        seconds = fitted.update(new_table, appended, workload)
        assert seconds > 0.0
        q = Query((Predicate(0, 0, 50),))
        assert np.isfinite(fitted.estimate(q))


class TestNaru:
    def test_fidelity_full_domain(self, small_synthetic):
        """Progressive sampling over the full domain returns exactly N."""
        est = NaruEstimator(epochs=2, num_samples=32).fit(small_synthetic)
        preds = tuple(
            Predicate(i, c.domain_min, c.domain_max)
            for i, c in enumerate(small_synthetic.columns)
        )
        assert est.estimate(Query(preds)) == pytest.approx(
            small_synthetic.num_rows
        )

    def test_fidelity_empty_predicate(self, small_synthetic):
        est = NaruEstimator(epochs=2, num_samples=32).fit(small_synthetic)
        q = Query((Predicate(0, 60.0, 40.0),))
        assert est.estimate(q) == 0.0

    def test_stochastic_inference_by_default(self, small_synthetic):
        est = NaruEstimator(epochs=3, num_samples=16).fit(small_synthetic)
        q = Query((Predicate(0, 10.0, 80.0), Predicate(1, 20.0, 22.0)))
        estimates = {est.estimate(q) for _ in range(8)}
        assert len(estimates) > 1  # the Stability-rule violation

    def test_pinned_inference_seed_is_stable(self, small_synthetic):
        est = NaruEstimator(epochs=3, num_samples=16, inference_seed=7)
        est.fit(small_synthetic)
        q = Query((Predicate(0, 10.0, 80.0), Predicate(1, 20.0, 22.0)))
        estimates = {est.estimate(q) for _ in range(5)}
        assert len(estimates) == 1

    def test_likelihood_improves_with_training(self, small_synthetic):
        est = NaruEstimator(epochs=6, num_samples=16).fit(small_synthetic)
        losses = est.loss_history
        assert losses[-1] < losses[0]

    def test_update_trains_one_epoch(self, small_synthetic, rng):
        est = NaruEstimator(epochs=2, update_epochs=1, num_samples=16)
        est.fit(small_synthetic)
        epochs_before = len(est.loss_history)
        new_table, appended = apply_update(small_synthetic, rng)
        est.update(new_table, appended)
        assert len(est.loss_history) == epochs_before + 1


class TestDeepDb:
    def test_product_decomposition_on_independent_data(self, rng):
        from repro.core import Table

        data = np.column_stack(
            [rng.integers(0, 10, 8000), rng.integers(0, 10, 8000)]
        ).astype(float)
        table = Table("indep", data)
        est = DeepDbEstimator().fit(table)
        q = Query((Predicate(0, 0, 4), Predicate(1, 0, 4)))
        assert est.estimate(q) == pytest.approx(table.cardinality(q), rel=0.1)

    def test_captures_functional_dependency(self, rng):
        x = generate_synthetic(8000, 1.0, 1.0, 50, rng)
        est = DeepDbEstimator().fit(x)
        q = Query((Predicate(0, 3, 3), Predicate(1, 3, 3)))
        truth = x.cardinality(q)
        err = qerrors(np.array([est.estimate(q)]), np.array([truth]))[0]
        # AVI would be off by ~number of distinct values; the SPN's row
        # clusters must do much better.
        assert err < 10

    def test_insert_shifts_distribution(self, small_synthetic, rng):
        est = DeepDbEstimator(insert_sample_fraction=1.0).fit(small_synthetic)
        q = Query((Predicate(0, 0, 5),))
        before = est.estimate(q)
        # Insert many rows all inside [0, 5] on column 0.
        rows = np.column_stack([np.full(2000, 2.0), np.full(2000, 2.0)])
        new_table = small_synthetic.append_rows(rows)
        est.update(new_table, rows)
        after = est.estimate(q)
        assert after > before

    def test_all_rules_hold_natively(self, small_synthetic, rng):
        from repro.rules import check_all

        est = DeepDbEstimator().fit(small_synthetic)
        reports = check_all(est, small_synthetic, rng, num_checks=20)
        assert all(r.satisfied for r in reports.values()), {
            k: str(v) for k, v in reports.items()
        }


class TestLwFamily:
    def test_xgb_and_nn_share_features(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        xgb = LwXgbEstimator(num_trees=16).fit(small_synthetic, train)
        nn = LwNnEstimator(epochs=5).fit(small_synthetic, train)
        q = Query((Predicate(0, 10, 50),))
        fx = xgb._featurizer.features(q)
        fn = nn._featurizer.features(q)
        np.testing.assert_allclose(fx, fn)

    def test_ce_features_toggle(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        with_ce = LwXgbEstimator(num_trees=8).fit(small_synthetic, train)
        without = LwXgbEstimator(num_trees=8, use_ce_features=False).fit(
            small_synthetic, train
        )
        q = Query((Predicate(0, 10, 50),))
        assert len(with_ce._featurizer.features(q)) == len(
            without._featurizer.features(q)
        ) + 3

    def test_nn_loss_decreases(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        est = LwNnEstimator(epochs=25).fit(small_synthetic, train)
        assert est.loss_history[-1] < est.loss_history[0]

    def test_update_requires_workload(self, small_synthetic, synthetic_workloads, rng):
        train, _ = synthetic_workloads
        est = LwNnEstimator(epochs=3).fit(small_synthetic, train)
        new_table, appended = apply_update(small_synthetic, rng)
        with pytest.raises(ValueError, match="workload"):
            est.update(new_table, appended, None)


class TestMscn:
    def test_bitmap_reflects_sample_qualification(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        est = MscnEstimator(epochs=2, sample_size=50).fit(small_synthetic, train)
        feat = est._featurizer
        full = Query((Predicate(0, 0, 1e9),))
        none = Query((Predicate(0, 1e9, 2e9),))
        assert feat.bitmaps(PredicateArrays.of([full])).sum() == len(feat.sample)
        assert feat.bitmaps(PredicateArrays.of([none])).sum() == 0

    def test_closed_range_decomposed(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        est = MscnEstimator(epochs=2).fit(small_synthetic, train)
        feat = est._featurizer
        atoms, counts = feat.atoms(
            PredicateArrays.of([Query((Predicate(0, 1, 5), Predicate(1, 3, 3)))])
        )
        ops = sorted(np.flatnonzero(row[feat.num_columns : -1])[0] for row in atoms)
        assert counts.tolist() == [3]
        assert ops == [0, 1, 2]  # >=, <=, =

    def test_sample_ablation_changes_model(self, small_synthetic, synthetic_workloads):
        train, test = synthetic_workloads
        with_sample = MscnEstimator(epochs=8, use_sample=True).fit(
            small_synthetic, train
        )
        without = MscnEstimator(epochs=8, use_sample=False).fit(
            small_synthetic, train
        )
        assert with_sample.model_size_bytes() > without.model_size_bytes()

    def test_loss_decreases(self, small_synthetic, synthetic_workloads):
        train, _ = synthetic_workloads
        est = MscnEstimator(epochs=15).fit(small_synthetic, train)
        assert est.loss_history[-1] < est.loss_history[0]


class TestFloat32Path:
    """The opt-in float32 training path: half the bytes, same answers.

    Tolerance contract (documented in DESIGN.md §10): float32 p95
    q-error must stay within 10% of the float64 p95 on the same
    workload.  In practice the two agree to several decimal places at
    these model sizes — the tolerance is headroom, not an expectation.
    """

    def test_lw_nn_float32_matches_float64_p95(
        self, small_synthetic, synthetic_workloads
    ):
        train, test = synthetic_workloads
        queries = list(test.queries)
        p95 = {}
        for dtype in ("float64", "float32"):
            est = LwNnEstimator(epochs=10, hidden_units=(32, 32), dtype=dtype)
            est.fit(small_synthetic, train)
            errors = qerrors(est.estimate_many(queries), test.cardinalities)
            p95[dtype] = float(np.quantile(errors, 0.95))
        ratio = p95["float32"] / p95["float64"]
        assert 1 / 1.1 <= ratio <= 1.1, f"p95 drifted: {p95}"

    def test_lw_nn_float32_model_is_half_the_bytes(
        self, small_synthetic, synthetic_workloads
    ):
        train, _ = synthetic_workloads
        sizes = {}
        for dtype in ("float64", "float32"):
            est = LwNnEstimator(epochs=1, hidden_units=(16,), dtype=dtype)
            est.fit(small_synthetic, train)
            sizes[dtype] = est.model_size_bytes()
        assert sizes["float32"] * 2 == sizes["float64"]

    def test_naru_float32_matches_float64_p95(self, small_synthetic, synthetic_workloads):
        _, test = synthetic_workloads
        queries = list(test.queries)
        p95 = {}
        for dtype in ("float64", "float32"):
            est = NaruEstimator(
                epochs=3, num_samples=100, inference_seed=7, dtype=dtype
            )
            est.fit(small_synthetic)
            errors = qerrors(est.estimate_many(queries), test.cardinalities)
            p95[dtype] = float(np.quantile(errors, 0.95))
        ratio = p95["float32"] / p95["float64"]
        assert 1 / 1.1 <= ratio <= 1.1, f"p95 drifted: {p95}"

    def test_dtype_validated(self):
        with pytest.raises(ValueError):
            LwNnEstimator(dtype="float16")
        with pytest.raises(ValueError):
            NaruEstimator(dtype="float16")
        with pytest.raises(ValueError):
            NaruEstimator(dtype="float32", block="transformer")
