"""The columnar batch path: ``QueryBatch``, codec decode, MSCN kernels.

A shard request frame decodes straight into
:class:`~repro.core.query.PredicateArrays`, held by a lazy
:class:`~repro.core.query.QueryBatch`, and MSCN featurizes from those
arrays.  These tests pin that path to the object path: the decoded
arrays equal ``PredicateArrays.of`` of the queries, the featurizer
kernels equal the padded training tensor and a brute-force bitmap, and
served estimates are bit-identical for float and int8 models.  Query
memos (codec rows, cache signatures) must not travel in pickles.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.core import Predicate, Query
from repro.core.query import PredicateArrays, QueryBatch
from repro.estimators.learned import MscnEstimator
from repro.serve.cache import query_signature
from repro.shard.codec import pack_queries, unpack_queries

# NaN bounds make NaN features, and the network's matmuls warn about them.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

#: bounds drawn besides plain integers: NaN, ±inf and signed zeros
EXOTIC = [math.nan, math.inf, -math.inf, 0.0, -0.0]

#: batch sizes of the equivalence properties (1..256, both ends included)
SIZES = [1, 2, 3, 5, 8, 17, 64, 100, 128, 255, 256]


def random_query(rng: np.random.Generator, num_columns: int) -> Query:
    """Equality, open, closed, empty (lo > hi) and exotic-bound predicates."""
    k = int(rng.integers(1, num_columns + 1))
    preds = []
    for column in rng.choice(num_columns, size=k, replace=False).tolist():
        a, b = (
            EXOTIC[int(rng.integers(len(EXOTIC)))]
            if rng.random() < 0.15
            else float(rng.integers(-5, 110))
            for _ in range(2)
        )
        shape = rng.random()
        if shape < 0.2:
            preds.append(Predicate(column, a, a))
        elif shape < 0.35:
            preds.append(Predicate(column, a, None))
        elif shape < 0.5:
            preds.append(Predicate(column, None, b))
        else:  # closed, and empty whenever a > b
            preds.append(Predicate(column, a, b))
    return Query(tuple(preds))


def decode(queries: list[Query]) -> QueryBatch:
    buf = bytearray(1 << 18)
    used = pack_queries(queries, buf)
    batch, _, _ = unpack_queries(buf[:used])
    return batch


def reference_atoms(feat, queries: list[Query]) -> tuple[np.ndarray, np.ndarray]:
    """The per-query loop the atom kernel replaced: an equality atom
    (op 2), else a ``>=`` atom (op 0) then a ``<=`` atom (op 1)."""
    rows, counts = [], []
    for query in queries:
        atoms = []
        for p in query.predicates:
            if p.is_equality:
                atoms.append((p.column, 2, p.lo))
                continue
            if p.lo is not None:
                atoms.append((p.column, 0, p.lo))
            if p.hi is not None:
                atoms.append((p.column, 1, p.hi))
        counts.append(len(atoms))
        for column, op, literal in atoms:
            row = np.zeros(feat.predicate_dim)
            row[column] = 1.0
            row[feat.num_columns + op] = 1.0
            row[-1] = (literal - feat.mins[column]) / feat.spans[column]
            rows.append(row)
    return np.array(rows).reshape(-1, feat.predicate_dim), np.array(counts)


def assert_arrays_identical(got: PredicateArrays, want: PredicateArrays) -> None:
    for name in ("arity", "query", "column", "lo", "hi", "lo_open", "hi_open"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # NaN- and -0.0-exact


@pytest.fixture(scope="module")
def models(small_synthetic, synthetic_workloads):
    train, _ = synthetic_workloads
    return {
        quantize or "float": MscnEstimator(epochs=2, quantize=quantize).fit(
            small_synthetic, train
        )
        for quantize in (None, "int8")
    }


@pytest.fixture(scope="module")
def batches(small_synthetic):
    rng = np.random.default_rng(2024)
    return [
        [random_query(rng, small_synthetic.num_columns) for _ in range(size)]
        for size in SIZES
    ]


class TestQueryBatch:
    def test_stays_columnar_until_an_item_is_read(self):
        queries = [Query((Predicate(0, 1.0, 2.0),)), Query((Predicate(1, None, 4.0),))]
        batch = decode(queries)
        assert len(batch) == 2
        assert PredicateArrays.of(batch) is batch.arrays
        assert not batch.materialized
        assert batch[1] == queries[1]
        assert batch.materialized
        assert list(batch) == queries

    def test_compares_equal_to_its_list(self):
        queries = [Query((Predicate(0, 1.0, 2.0), Predicate(2, 5.0, None)))]
        batch = decode(queries)
        assert batch == queries and queries == batch
        assert batch == decode(queries)
        assert batch != queries + queries
        assert batch != tuple(queries)
        assert decode([]) == []

    def test_rebuilt_queries_keep_bounds_bit_exact(self, batches):
        for queries in batches:
            for got, want in zip(decode(queries), queries):
                assert len(got.predicates) == len(want.predicates)
                for p, q in zip(got.predicates, want.predicates):
                    assert p.column == q.column
                    for a, b in ((p.lo, q.lo), (p.hi, q.hi)):
                        assert (a is None) == (b is None)
                        if a is not None:
                            assert np.float64(a).tobytes() == np.float64(b).tobytes()


class TestColumnarEquivalence:
    def test_decoded_arrays_equal_predicate_arrays_of(self, batches):
        for queries in batches:
            assert_arrays_identical(
                decode(queries).arrays, PredicateArrays.of(queries)
            )

    def test_atoms_equal_the_per_query_loop(self, models, batches):
        feat = models["float"]._featurizer
        for queries in batches:
            atoms, counts = feat.atoms(PredicateArrays.of(queries))
            want_atoms, want_counts = reference_atoms(feat, queries)
            assert atoms.tobytes() == want_atoms.tobytes()
            np.testing.assert_array_equal(counts, want_counts)

    def test_atoms_are_the_valid_rows_of_predicate_tensor(self, models, batches):
        feat = models["float"]._featurizer
        for queries in batches:
            preds = PredicateArrays.of(queries)
            atoms, counts = feat.atoms(preds)
            padded, mask = feat.predicate_tensor(preds)
            assert atoms.tobytes() == padded[mask.astype(bool)].tobytes()
            np.testing.assert_array_equal(counts, mask.sum(axis=1))
            # every valid slot comes first in its row
            assert (mask == (np.arange(mask.shape[1]) < counts[:, None])).all()

    def test_bitmaps_equal_brute_force(self, models, batches):
        feat = models["float"]._featurizer
        for queries in batches:
            want = np.ones((len(queries), len(feat.sample)), dtype=bool)
            for i, query in enumerate(queries):
                for p in query.predicates:
                    vals = feat.sample[:, p.column]
                    if p.lo is not None:
                        want[i] &= vals >= p.lo
                    if p.hi is not None:
                        want[i] &= vals <= p.hi
            got = feat.bitmaps(PredicateArrays.of(queries))
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want.astype(np.float64))

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_decoded_estimates_bit_identical(self, models, batches, kind):
        model = models[kind]
        for queries in batches:
            batch = decode(queries)
            got = model.estimate_many(batch)
            assert not batch.materialized
            assert got.tobytes() == model.estimate_many(queries).tobytes()

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_scalar_estimate_is_a_batch_of_one(self, models, batches, kind):
        model = models[kind]
        for query in batches[-1][:32]:
            assert model.estimate(query) == model.estimate_many([query])[0]

    def test_forward_atoms_matches_padded_forward(self, models, batches):
        """Same MLP rows; the pooling sums add in a different order, so
        the two forwards agree to rounding, not bit for bit."""
        feat, net = models["float"]._featurizer, models["float"]._network
        for queries in batches:
            preds = PredicateArrays.of(queries)
            bitmaps = feat.bitmaps(preds)
            padded = net.forward(*feat.predicate_tensor(preds), bitmaps)
            flat = net.forward_atoms(*feat.atoms(preds), bitmaps)
            np.testing.assert_allclose(flat, padded, rtol=1e-12, atol=1e-12)


class TestQueryMemosStayOutOfPickles:
    def test_memoized_query_pickles_like_a_fresh_one(self):
        query = Query((Predicate(0, 1.0, 2.0), Predicate(3, None, 7.5)))
        fresh = pickle.dumps(query)
        pack_queries([query], bytearray(256))  # memoizes codec rows
        query_signature(query)  # memoizes the cache signature
        assert "_codec_rows" in query.__dict__
        assert "_cache_signature" in query.__dict__
        memoized = pickle.dumps(query)
        assert len(memoized) == len(fresh)
        back = pickle.loads(memoized)
        assert back == query and hash(back) == hash(query)
        assert set(back.__dict__) == {"predicates"}

    def test_copies_share_the_instance(self):
        query = Query((Predicate(0, 1.0, 2.0),))
        assert copy.copy(query) is query
        assert copy.deepcopy(query) is query
        assert copy.deepcopy([query])[0] is query
