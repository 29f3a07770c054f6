"""Batch/scalar equivalence for the vectorized inference hot path.

``estimate_many`` must return the same numbers as the one-query-at-a-time
loop for every registered estimator — exactly for deterministic
estimators, and to floating-point rounding (1e-9 relative) for the
vectorized paths whose summation order legitimately differs (grouped AVI
products, sparse MADE kernel, segment-sum pooling).  Edge cases ride
along: wildcard (one-sided / full-domain) predicates, empty (lo > hi)
predicates, the one-row table, and the zero-row rejection.
"""

import numpy as np
import pytest

from repro import Scale, estimator_names, make_estimator
from repro.core import Predicate, Query, Table, generate_workload
from repro.serve import HeuristicConstantEstimator

TINY = Scale(
    name="tiny",
    row_fraction=0.1,
    train_queries=150,
    test_queries=40,
    nn_epochs=2,
    naru_epochs=2,
    update_queries=50,
    synthetic_rows=1500,
    naru_samples=32,
)

#: Estimators whose batch path must be bit-identical to the scalar loop:
#: either the default loop fallback or a vectorized path with unchanged
#: summation order.
EXACT = {"sampling", "lw-xgb", "bayes", "kde-fb", "deepdb", "quicksel", "dbms-a"}

#: Everything else agrees to rounding error only (vectorized reductions
#: reorder floating-point sums).
RTOL = 1e-9


@pytest.fixture(scope="module")
def table():
    from repro.datasets import generate_synthetic

    rng = np.random.default_rng(31)
    return generate_synthetic(2500, skew=1.0, correlation=0.6, domain_size=50, rng=rng)


@pytest.fixture(scope="module")
def train(table):
    rng = np.random.default_rng(32)
    return generate_workload(table, TINY.train_queries, rng)


@pytest.fixture(scope="module", params=estimator_names())
def fitted(request, table, train):
    est = make_estimator(request.param, TINY)
    est.fit(table, train if est.requires_workload else None)
    if hasattr(est, "inference_seed"):
        # Pin stochastic inference so the scalar loop and the batch draw
        # identical sampling trajectories.
        est.inference_seed = 1234
    return est


def edge_queries(table) -> list[Query]:
    """Wildcard, empty, equality and all-column queries."""
    col0 = table.columns[0]
    mid = (col0.domain_min + col0.domain_max) / 2
    return [
        Query((Predicate(0, None, mid),)),  # one-sided hi
        Query((Predicate(0, mid, None),)),  # one-sided lo
        Query((Predicate(0, col0.domain_min, col0.domain_max),)),  # full domain
        Query((Predicate(0, mid + 1.0, mid - 1.0),)),  # empty: lo > hi
        Query((Predicate(0, float(col0.distinct_values[0]),
                         float(col0.distinct_values[0])),)),  # equality
        Query(
            tuple(
                Predicate(i, c.domain_min, (c.domain_min + c.domain_max) / 2)
                for i, c in enumerate(table.columns)
            )
        ),  # every column predicated
    ]


class TestEquivalence:
    def test_matches_scalar_loop(self, fitted, table):
        rng = np.random.default_rng(33)
        queries = list(generate_workload(table, 60, rng).queries) + edge_queries(
            table
        )
        scalar = np.array([fitted.estimate(q) for q in queries])
        batch = fitted.estimate_many(queries)
        assert batch.shape == (len(queries),)
        if fitted.name in EXACT:
            assert np.array_equal(scalar, batch)
        else:
            np.testing.assert_allclose(batch, scalar, rtol=RTOL, atol=0.0)

    def test_empty_predicate_agrees(self, fitted, table):
        query = Query((Predicate(0, 30.0, 10.0),))
        scalar = fitted.estimate(query)
        batch = fitted.estimate_many([query, query])
        np.testing.assert_allclose(batch, [scalar, scalar], rtol=RTOL)

    def test_empty_batch(self, fitted):
        out = fitted.estimate_many([])
        assert out.shape == (0,)

    def test_batch_output_is_clamped(self, fitted, table):
        rng = np.random.default_rng(34)
        queries = list(generate_workload(table, 20, rng).queries)
        out = fitted.estimate_many(queries)
        assert (out >= 0.0).all()


class TestUnseededNaru:
    """The shared stateful inference RNG must advance in scalar order."""

    @pytest.mark.parametrize("wildcard", [False, True])
    def test_two_instances_agree(self, table, wildcard):
        from repro.estimators.learned import NaruEstimator

        def build():
            est = NaruEstimator(
                epochs=2, num_samples=16, seed=5, wildcard_skipping=wildcard
            )
            est.fit(table)
            return est

        rng = np.random.default_rng(35)
        queries = list(generate_workload(table, 30, rng).queries)
        scalar_est, batch_est = build(), build()
        scalar = np.array([scalar_est.estimate(q) for q in queries])
        batch = batch_est.estimate_many(queries)
        np.testing.assert_allclose(batch, scalar, rtol=RTOL, atol=0.0)


class TestDeepDbBinnedColumns:
    """DeepDB's one-pass batch over binned (fractional-weight) columns."""

    @pytest.fixture(scope="class")
    def binned_table(self):
        rng = np.random.default_rng(37)
        n = 3000
        data = np.column_stack(
            [
                rng.uniform(0.0, 1000.0, n),  # continuous: binned
                rng.zipf(1.3, n).clip(max=2000).astype(np.float64),  # binned, skewed
                rng.integers(0, 8, n).astype(np.float64),  # exact
            ]
        )
        data[:, 2] = np.where(data[:, 0] > 500.0, data[:, 2], 0.0)  # correlated
        return Table("binned", data, ["u", "z", "small"])

    @pytest.fixture(scope="class")
    def deepdb(self, binned_table):
        from repro.estimators.learned import DeepDbEstimator

        est = DeepDbEstimator(max_bins=24, min_instance_slice_fraction=0.05)
        est.fit(binned_table)
        exact = [c.exact for c in est._disc.columns]
        assert exact == [False, False, True]
        return est

    @staticmethod
    def cases(table, rng) -> list[Query]:
        u = table.data[:, 0]
        z = float(table.data[7, 1])
        queries = list(generate_workload(table, 120, rng).queries)
        queries += [
            Query((Predicate(0, float(u[3]), float(u[3])),)),  # equality, binned
            Query((Predicate(1, z, z), Predicate(2, 1.0, 5.0))),
            Query((Predicate(0, 123.456, 123.456),)),  # equality off the data
            Query((Predicate(0, 700.0, 300.0),)),  # empty
            Query((Predicate(1, 50.0, 2.0), Predicate(0, 10.0, 900.0))),
            Query((Predicate(0, None, 250.5),)),  # one-sided
            Query((Predicate(0, 250.5, None), Predicate(1, None, 3.0))),
            Query((Predicate(2, 3.0, None),)),
        ]
        # Column 0 constrained by only some queries of the batch.
        queries += [
            Query((Predicate(0, 100.0 * i, 100.0 * i + 75.0),)) if i % 2
            else Query((Predicate(2, 0.0, float(i % 8)),))
            for i in range(10)
        ]
        return queries

    def assert_batch_equals_scalar(self, est, queries):
        scalar = np.array([est.estimate(q) for q in queries])
        for start in range(0, len(queries), 64):
            batch = est.estimate_many(queries[start : start + 64])
            assert np.array_equal(batch, scalar[start : start + 64])
        return scalar

    def test_batch_equals_scalar_before_and_after_update(self, deepdb, binned_table):
        import copy

        from repro.datasets.updates import apply_update

        est = copy.deepcopy(deepdb)
        rng = np.random.default_rng(38)
        queries = self.cases(binned_table, rng)
        before = self.assert_batch_equals_scalar(est, queries)
        table = binned_table
        for _ in range(2):
            table, appended = apply_update(table, rng, fraction=0.3)
            est.update(table, appended)
        after = self.assert_batch_equals_scalar(est, queries)
        # The update moved leaf and sum counts, not just the row count.
        assert not np.allclose(after / table.num_rows, before / binned_table.num_rows)

    def test_batch_plan_is_rebuilt_on_load(self, deepdb, binned_table):
        import pickle

        assert pickle.loads(pickle.dumps(deepdb.__getstate__()))["_plan"] is None
        loaded = pickle.loads(pickle.dumps(deepdb))
        queries = self.cases(binned_table, np.random.default_rng(39))
        assert np.array_equal(
            loaded.estimate_many(queries), deepdb.estimate_many(queries)
        )


class TestDegenerateTables:
    def test_zero_row_table_rejected(self):
        # A zero-row table cannot exist, so batch equivalence on one is
        # untestable by construction; the rejection is the contract.
        with pytest.raises(ValueError, match="at least one row"):
            Table("empty", np.empty((0, 3)))

    def test_one_row_table(self):
        data = np.array([[1.0, 5.0, 2.0]])
        tiny = Table("one-row", data)
        queries = [
            Query((Predicate(0, 0.0, 2.0),)),
            Query((Predicate(0, 3.0, 4.0),)),
            Query((Predicate(1, None, 5.0), Predicate(2, 2.0, None))),
            Query((Predicate(0, 2.0, 0.0),)),  # empty
        ]
        for name in ("postgres", "mysql", "sampling", "mhist"):
            est = make_estimator(name, TINY)
            est.fit(tiny)
            scalar = np.array([est.estimate(q) for q in queries])
            batch = est.estimate_many(queries)
            np.testing.assert_allclose(batch, scalar, rtol=RTOL, atol=0.0)
        heur = HeuristicConstantEstimator()
        heur.fit(tiny)
        scalar = np.array([heur.estimate(q) for q in queries])
        assert np.array_equal(heur.estimate_many(queries), scalar)


class TestBatchHookContract:
    def test_wrong_shape_raises(self, table):
        class Broken(HeuristicConstantEstimator):
            def _estimate_batch(self, queries):
                return np.ones(len(queries) + 1)

        est = Broken()
        est.fit(table)
        with pytest.raises(ValueError, match="shape"):
            est.estimate_many([Query((Predicate(0, 0.0, 1.0),))])

    def test_nan_raw_estimates_clamp_to_zero(self, table):
        class NanBatch(HeuristicConstantEstimator):
            def _estimate_batch(self, queries):
                return np.full(len(queries), np.nan)

        est = NanBatch()
        est.fit(table)
        out = est.estimate_many([Query((Predicate(0, 0.0, 1.0),))] * 3)
        # Scalar estimate() maps NaN to 0.0 via max(); the batch clamp
        # must reproduce that, not propagate NaN.
        assert np.array_equal(out, np.zeros(3))


class TestFastPathTiers:
    """Batch/scalar equivalence for the int8 and distilled-student tiers.

    Quantized inference runs in float32, so naru's sampler can round a
    bin differently between the scalar loop and the batch kernel —
    bitwise equality is unattainable.  Mirroring the float32 gating of
    the mixed-precision work, the quantized tiers are held to q-error
    *bands* instead: batch vs scalar within p95 q-error 1.1, and the
    quantized model within 1.5x p95 q-error of its own fp teacher.
    """

    QERR_BATCH_P95 = 1.1
    QERR_TEACHER_P95 = 1.5

    @staticmethod
    def qerr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.maximum(np.asarray(a, dtype=np.float64), 1.0)
        b = np.maximum(np.asarray(b, dtype=np.float64), 1.0)
        return np.maximum(a / b, b / a)

    @pytest.fixture(scope="class")
    def probes(self, table):
        rng = np.random.default_rng(41)
        return list(generate_workload(table, 60, rng).queries) + edge_queries(table)

    @pytest.fixture(scope="class", params=["mscn-int8", "lw-nn-int8"])
    def quantized_mlp(self, request, table, train):
        est = make_estimator(request.param, TINY)
        est.fit(table, train)
        return est

    def test_mlp_batch_matches_scalar(self, quantized_mlp, probes):
        scalar = np.array([quantized_mlp.estimate(q) for q in probes])
        batch = quantized_mlp.estimate_many(probes)
        # Dequantize-on-the-fly runs in float32; reordered reductions
        # cost more ulps than the float64 paths' 1e-9.
        np.testing.assert_allclose(batch, scalar, rtol=2e-4, atol=1e-6)

    def test_naru_batch_within_qerror_band(self, table, probes):
        est = make_estimator("naru-int8", TINY)
        est.fit(table)
        est.inference_seed = 1234
        scalar = np.array([est.estimate(q) for q in probes])
        batch = est.estimate_many(probes)
        p95 = float(np.percentile(self.qerr(batch, scalar), 95.0))
        assert p95 <= self.QERR_BATCH_P95, (
            f"quantized naru batch vs scalar p95 q-error {p95:.3f} "
            f"exceeds {self.QERR_BATCH_P95}"
        )

    @pytest.mark.parametrize("method", ["naru", "mscn", "lw-nn"])
    def test_quantized_tracks_fp_teacher(self, method, table, train, probes):
        import copy

        teacher = make_estimator(method, TINY)
        teacher.fit(table, train if teacher.requires_workload else None)
        if hasattr(teacher, "inference_seed"):
            teacher.inference_seed = 1234
        quantized = copy.deepcopy(teacher)
        quantized.quantize_int8()
        fp = teacher.estimate_many(probes)
        q8 = quantized.estimate_many(probes)
        p95 = float(np.percentile(self.qerr(q8, fp), 95.0))
        assert p95 <= self.QERR_TEACHER_P95, (
            f"int8 {method} p95 q-error vs fp teacher {p95:.3f} "
            f"exceeds {self.QERR_TEACHER_P95}"
        )

    def test_student_batch_matches_scalar(self, table, train, probes):
        from repro.fastpath import DistilledStudent

        teacher = make_estimator("mscn", TINY)  # deterministic teacher
        teacher.fit(table, train)
        student = DistilledStudent(teacher, num_queries=200, seed=3)
        student.fit(table)
        scalar = np.array([student.estimate(q) for q in probes])
        batch = student.estimate_many(probes)
        np.testing.assert_allclose(batch, scalar, rtol=RTOL, atol=0.0)

    def test_cache_on_off_exact_hit_identity(self, table, train):
        """A cached answer must equal the answer the chain would give."""
        from repro.fastpath import SemanticEstimateCache
        from repro.serve import EstimatorService

        rng = np.random.default_rng(43)
        queries = list(generate_workload(table, 20, rng).queries)

        def build(cache):
            est = make_estimator("lw-xgb", TINY)
            est.fit(table, train)
            return EstimatorService([est], cache=cache, deadline_ms=None)

        plain = build(None)
        cached = build(SemanticEstimateCache(capacity=256, scan_limit=0))
        uncached_answers = plain.estimate_many(queries)
        first = cached.estimate_many(queries)   # cold: populates
        second = cached.estimate_many(queries)  # warm: exact hits
        assert cached.cache.hits >= len(queries)
        np.testing.assert_array_equal(first, uncached_answers)
        np.testing.assert_array_equal(second, uncached_answers)


@pytest.mark.slow
class TestBatchPerfSmoke:
    """Batched inference must beat the scalar loop on a real batch."""

    @pytest.mark.parametrize("method", ["naru", "mscn"])
    def test_faster_than_scalar_loop(self, method, table, train):
        import time

        est = make_estimator(method, TINY)
        est.fit(table, train if est.requires_workload else None)
        if hasattr(est, "inference_seed"):
            est.inference_seed = 99
        rng = np.random.default_rng(36)
        queries = list(generate_workload(table, 256, rng).queries)
        start = time.perf_counter()
        for q in queries:
            est.estimate(q)
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        est.estimate_many(queries)
        batch_seconds = time.perf_counter() - start
        assert batch_seconds < scalar_seconds, (
            f"{method}: batch {batch_seconds:.3f}s not faster than "
            f"scalar {scalar_seconds:.3f}s on {len(queries)} queries"
        )
