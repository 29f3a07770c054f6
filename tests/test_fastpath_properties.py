"""Property-based correctness suite for :mod:`repro.fastpath`.

Four families of seeded random properties, each over 1000+ generated
cases:

* **Quantization round-trip** — per-channel int8 quantization must
  reconstruct every weight to within half a quantization step
  (``scale/2``), preserve exact zeros (the MADE masks depend on it),
  and the dequantize-on-the-fly matmul must equal the matmul against
  the explicitly dequantized matrix.
* **Subsumption soundness** — whenever :func:`subsumes` claims
  ``sub ⊆ sup``, brute-force row evaluation over a random table must
  agree: every row matching the subset matches the superset.  The
  checker may decline containment it cannot prove (one-directional),
  but a positive claim must never be wrong.
* **Monotonicity bound** — every semantic cache answer lies in
  ``[0, cached]`` where ``cached`` is the containing rectangle's
  stored estimate, both for :func:`interpolated_bound` directly and
  for answers served by :class:`SemanticEstimateCache`.
* **Reference kernels** — the cache's column-map scan and binary-search
  coverage agree bit for bit with the per-entry ``predicate_on`` scan
  and boolean-mask coverage they replaced, over edge-case bounds and
  random cache sessions.
"""

import math
import struct
from collections import Counter, OrderedDict

import numpy as np
import pytest

from repro.core import Predicate, Query
from repro.fastpath import (
    SemanticEstimateCache,
    interpolated_bound,
    qmatmul,
    quantize_per_channel,
    subsumes,
)

# ----------------------------------------------------------------------
# Case generators
# ----------------------------------------------------------------------

def random_weight(rng: np.random.Generator) -> np.ndarray:
    """A weight matrix with a randomly nasty value distribution."""
    rows = int(rng.integers(1, 40))
    cols = int(rng.integers(1, 40))
    kind = rng.integers(0, 5)
    if kind == 0:  # plain Gaussian init
        w = rng.normal(0.0, rng.uniform(1e-3, 10.0), size=(rows, cols))
    elif kind == 1:  # heavy-tailed with outlier channels
        w = rng.standard_t(2, size=(rows, cols)) * rng.uniform(0.1, 100.0)
    elif kind == 2:  # one-sided (all positive) — range must still span 0
        w = rng.uniform(0.5, 3.0, size=(rows, cols))
    elif kind == 3:  # constant columns (zero span per channel)
        w = np.tile(rng.normal(size=(1, cols)), (rows, 1))
    else:  # mostly-masked: exact zeros everywhere but a few entries
        w = np.zeros((rows, cols))
        hot = rng.random(size=(rows, cols)) < 0.2
        w[hot] = rng.normal(0.0, 5.0, size=int(hot.sum()))
    # Sprinkle exact zeros into every variant: masked MADE weights are
    # the norm, not the exception.
    w[rng.random(size=w.shape) < 0.1] = 0.0
    return w.astype(np.float32)


def random_predicate(rng: np.random.Generator, column: int) -> Predicate:
    """Closed / one-sided / equality / empty, over a small domain."""
    a, b = np.sort(rng.uniform(0.0, 20.0, size=2)).tolist()
    kind = rng.integers(0, 5)
    if kind == 0:
        return Predicate(column, a, b)
    if kind == 1:
        return Predicate(column, None, b)
    if kind == 2:
        return Predicate(column, a, None)
    if kind == 3:
        return Predicate(column, a, a)  # equality
    return Predicate(column, b + 1.0, a)  # empty: lo > hi


def random_query(rng: np.random.Generator, num_columns: int) -> Query:
    num_preds = int(rng.integers(1, num_columns + 1))
    cols = rng.choice(num_columns, size=num_preds, replace=False)
    return Query(tuple(random_predicate(rng, int(c)) for c in sorted(cols)))


def tighten(rng: np.random.Generator, query: Query, num_columns: int) -> Query:
    """A query whose rows are a subset of ``query``'s by construction."""
    preds = []
    for p in query.predicates:
        lo = p.lo if p.lo is not None else -1e6
        hi = p.hi if p.hi is not None else 1e6
        if hi < lo:  # empty stays empty
            preds.append(p)
            continue
        new_lo, new_hi = np.sort(rng.uniform(lo, hi, size=2)).tolist()
        preds.append(Predicate(p.column, new_lo, new_hi))
    # Optionally constrain an extra, previously free column.
    free = sorted(set(range(num_columns)) - set(query.columns))
    if free and rng.random() < 0.5:
        col = int(rng.choice(free))
        preds.append(random_predicate(rng, col))
    return Query(tuple(sorted(preds, key=lambda p: p.column)))


def row_mask(table_data: np.ndarray, query: Query) -> np.ndarray:
    """Brute-force row-level evaluation of the conjunction."""
    mask = np.ones(len(table_data), dtype=bool)
    for p in query.predicates:
        col = table_data[:, p.column]
        if p.lo is not None:
            mask &= col >= p.lo
        if p.hi is not None:
            mask &= col <= p.hi
    return mask


# ----------------------------------------------------------------------
# Quantization round-trip
# ----------------------------------------------------------------------

class TestQuantizationRoundTrip:
    def test_error_within_half_step_1000_cases(self):
        rng = np.random.default_rng(20260807)
        for _ in range(1000):
            w = random_weight(rng)
            qt = quantize_per_channel(w)
            err = np.abs(qt.dequantize() - w)
            # Per-element bound: half a quantization step per channel,
            # plus float32 rounding slack.
            bound = qt.scale.astype(np.float64) * 0.5 * (1.0 + 1e-3) + 1e-7
            assert (err <= bound[None, :]).all(), (
                f"round-trip error {err.max()} exceeds half-step bound"
            )

    def test_exact_zeros_preserved(self):
        """Masked MADE weights must dequantize back to exactly 0.0."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = random_weight(rng)
            qt = quantize_per_channel(w)
            back = qt.dequantize()
            zero = w == 0.0
            assert (back[zero] == 0.0).all(), "exact zero not preserved"

    def test_qmatmul_matches_dequantized_matmul(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = random_weight(rng)
            qt = quantize_per_channel(w)
            x = rng.normal(0.0, 2.0, size=(5, w.shape[0])).astype(np.float32)
            fused = qmatmul(x, qt)
            explicit = x @ qt.dequantize()
            # Float32 rounding error scales with the *accumulated*
            # magnitude — including the zero-point correction the fused
            # kernel subtracts — not the (possibly cancelled) result.
            accumulated = np.abs(x) @ np.abs(qt.q.astype(np.float32))
            correction = np.abs(x).sum(axis=-1, keepdims=True) * np.abs(
                qt.zero_point.astype(np.float32)
            )
            budget = 1e-5 * (accumulated + correction) * qt.scale + 1e-6
            assert (np.abs(fused - explicit) <= budget).all()

    def test_quantized_range_is_int8(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            qt = quantize_per_channel(random_weight(rng))
            assert qt.q.dtype == np.int8
            assert qt.scale.dtype == np.float32
            assert (qt.scale > 0.0).all()

    def test_size_shrinks_4x_vs_float32(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(256, 256)).astype(np.float32)
        qt = quantize_per_channel(w)
        # int8 payload plus per-channel scale/zero-point overhead.
        assert qt.size_bytes <= w.nbytes // 4 + 256 * 5


# ----------------------------------------------------------------------
# Subsumption soundness
# ----------------------------------------------------------------------

class TestSubsumptionSoundness:
    def test_positive_claims_sound_1000_cases(self):
        """subsumes == True must imply row containment, brute-forced."""
        rng = np.random.default_rng(20210807)
        num_columns = 4
        table_data = rng.uniform(0.0, 20.0, size=(300, num_columns))
        positives = 0
        for _ in range(1200):
            sup = random_query(rng, num_columns)
            # Mix constructed-subset pairs (exercise the True branch)
            # with unrelated pairs (exercise refusals).
            if rng.random() < 0.6:
                sub = tighten(rng, sup, num_columns)
            else:
                sub = random_query(rng, num_columns)
            if subsumes(sup, sub):
                positives += 1
                sup_mask = row_mask(table_data, sup)
                sub_mask = row_mask(table_data, sub)
                escaped = sub_mask & ~sup_mask
                assert not escaped.any(), (
                    f"{escaped.sum()} rows match {sub} but not the "
                    f"claimed superset {sup}"
                )
        # The generator must actually exercise the positive branch.
        assert positives >= 300, f"only {positives} positive claims generated"

    def test_constructed_subsets_recognised(self):
        """Interval-tightened pairs must be claimed (no false negatives
        for the easy constructive case with both sides bounded)."""
        rng = np.random.default_rng(23)
        recognised = 0
        for _ in range(500):
            lo, hi = np.sort(rng.uniform(0.0, 20.0, size=2)).tolist()
            sup = Query((Predicate(0, lo, hi),))
            in_lo, in_hi = np.sort(rng.uniform(lo, hi, size=2)).tolist()
            sub = Query((Predicate(0, in_lo, in_hi),))
            assert subsumes(sup, sub)
            recognised += 1
        assert recognised == 500

    def test_free_superset_column_defeats_nothing(self):
        """A column only the *subset* constrains cannot break containment."""
        sup = Query((Predicate(0, 0.0, 10.0),))
        sub = Query((Predicate(0, 2.0, 8.0), Predicate(1, 5.0, 6.0)))
        assert subsumes(sup, sub)

    def test_constrained_superset_column_missing_from_subset_defeats(self):
        sup = Query((Predicate(0, 0.0, 10.0), Predicate(1, 0.0, 5.0)))
        sub = Query((Predicate(0, 2.0, 8.0),))
        assert not subsumes(sup, sub)

    def test_strictly_wider_subset_refused(self):
        sup = Query((Predicate(0, 2.0, 8.0),))
        sub = Query((Predicate(0, 0.0, 10.0),))
        assert not subsumes(sup, sub)


# ----------------------------------------------------------------------
# Monotonicity bound
# ----------------------------------------------------------------------

class TestMonotonicityBound:
    def test_interpolated_bound_in_range_1000_cases(self):
        rng = np.random.default_rng(20190807)
        num_columns = 4
        for _ in range(1000):
            sup = random_query(rng, num_columns)
            sub = tighten(rng, sup, num_columns)
            if not subsumes(sup, sub):
                continue
            cached = float(rng.uniform(0.0, 1e6))
            answer = interpolated_bound(sup, sub, cached)
            assert 0.0 <= answer <= cached, (
                f"semantic answer {answer} outside [0, {cached}]"
            )

    def test_sampled_interpolation_respects_bound_1000_cases(self):
        """Empirical (sample-driven) interpolation obeys the same clamp."""
        rng = np.random.default_rng(20220807)
        num_columns = 4
        sample = rng.uniform(0.0, 20.0, size=(200, num_columns)).astype(
            np.float32
        )
        for _ in range(1000):
            sup = random_query(rng, num_columns)
            sub = tighten(rng, sup, num_columns)
            cached = float(rng.uniform(0.0, 1e6))
            answer = interpolated_bound(sup, sub, cached, sample)
            assert 0.0 <= answer <= cached

    def test_sampled_interpolation_tracks_skew(self):
        """With all the mass in the subset range, the empirical answer
        keeps (almost) the whole cached estimate where the uniform
        width ratio would wrongly shrink it."""
        rng = np.random.default_rng(37)
        # 95% of rows in [0, 1], 5% spread over [1, 100].
        col = np.concatenate(
            [rng.uniform(0.0, 1.0, 950), rng.uniform(1.0, 100.0, 50)]
        )
        sample = col[:, None].astype(np.float32)
        sup = Query((Predicate(0, 0.0, 100.0),))
        sub = Query((Predicate(0, 0.0, 1.0),))
        uniform = interpolated_bound(sup, sub, 1000.0)
        empirical = interpolated_bound(sup, sub, 1000.0, sample)
        assert uniform <= 20.0  # width ratio: 1/100th of the estimate
        assert empirical >= 900.0  # observed mass: almost all of it

    def test_empty_subset_predicate_answers_zero(self):
        sup = Query((Predicate(0, 0.0, 10.0),))
        sub = Query((Predicate(0, 8.0, 2.0),))  # lo > hi: matches nothing
        # [8, 2] lies inside [0, 10] by Predicate.contains
        assert subsumes(sup, sub)
        assert interpolated_bound(sup, sub, 500.0) == 0.0

    def test_cache_served_answers_respect_bound(self):
        """Every answer the cache serves semantically is ≤ its source."""
        rng = np.random.default_rng(29)
        cache = SemanticEstimateCache(capacity=64, scan_limit=64)
        num_columns = 3
        semantic_served = 0
        for _ in range(1000):
            if rng.random() < 0.4 or len(cache) == 0:
                q = random_query(rng, num_columns)
                cache.put(q, float(rng.uniform(0.0, 1e5)))
                continue
            base = random_query(rng, num_columns)
            probe = tighten(rng, base, num_columns)
            value = cache.get(probe)
            if cache.last_hit_kind == "semantic_hit":
                semantic_served += 1
                superset, cached = cache.last_semantic_match
                assert subsumes(superset, probe)
                assert 0.0 <= value <= cached
        assert semantic_served > 0, "cache never served semantically"

    def test_interpolation_off_serves_cached_value_verbatim(self):
        cache = SemanticEstimateCache(capacity=8, interpolate=False)
        cache.put(Query((Predicate(0, 0.0, 10.0),)), 400.0)
        got = cache.get(Query((Predicate(0, 2.0, 4.0),)))
        assert got == 400.0
        assert cache.last_hit_kind == "semantic_hit"


# ----------------------------------------------------------------------
# Cache bookkeeping under the semantic path
# ----------------------------------------------------------------------

class TestSemanticCacheBookkeeping:
    def test_generation_bump_invalidates_semantic_answers(self):
        cache = SemanticEstimateCache(capacity=8)
        cache.put(Query((Predicate(0, 0.0, 10.0),)), 100.0)
        sub = Query((Predicate(0, 2.0, 4.0),))
        assert cache.get(sub) is not None
        cache.bump_generation()
        assert cache.get(sub) is None
        assert cache.last_hit_kind is None

    def test_hit_rate_counts_semantic_hits(self):
        cache = SemanticEstimateCache(capacity=8)
        cache.put(Query((Predicate(0, 0.0, 10.0),)), 100.0)
        cache.get(Query((Predicate(0, 1.0, 2.0),)))  # semantic
        cache.get(Query((Predicate(1, 0.0, 1.0),)))  # miss
        assert cache.semantic_hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_scan_limit_bounds_the_search(self):
        cache = SemanticEstimateCache(capacity=64, scan_limit=1)
        # Oldest entry is the only superset; the newest 1 scanned entry
        # is unrelated, so the scan must give up.
        cache.put(Query((Predicate(0, 0.0, 10.0),)), 100.0)
        for i in range(5):
            cache.put(Query((Predicate(1, float(i), float(i)),)), 1.0)
        assert cache.get(Query((Predicate(0, 2.0, 4.0),))) is None

    def test_exact_hit_short_circuits_scan(self):
        cache = SemanticEstimateCache(capacity=8)
        q = Query((Predicate(0, 0.0, 10.0),))
        cache.put(q, 123.0)
        assert cache.get(q) == 123.0
        assert cache.last_hit_kind == "hit"
        assert cache.semantic_hits == 0


# ----------------------------------------------------------------------
# Differential: the cache's kernels against the per-entry reference
# ----------------------------------------------------------------------
#
# The reference is the semantic cache as first written: the scan asks
# ``Query.predicate_on`` for each column of each scanned entry, and the
# empirical coverage builds two boolean masks over the whole sample per
# column.  The shipped kernels (a per-lookup column map, and binary
# searches over per-column sorted copies of the sample) must agree with
# it bit for bit.


def reference_signature(query: Query) -> tuple:
    return tuple(
        (p.column, p.lo, p.hi)
        for p in sorted(query.predicates, key=lambda p: p.column)
    )


def _signature_subsumes(signature: tuple, subset: Query) -> bool:
    for column, lo, hi in signature:
        sub = subset.predicate_on(column)
        if sub is None:
            return False
        if lo is not None and (sub.lo is None or sub.lo < lo):
            return False
        if hi is not None and (sub.hi is None or sub.hi > hi):
            return False
    return True


def _coverage_fraction(sup: Predicate, sub: Predicate) -> float:
    if sup.lo is None or sup.hi is None or sub.lo is None or sub.hi is None:
        return 1.0
    span = sup.hi - sup.lo
    if span <= 0.0:
        return 1.0
    width = max(0.0, sub.hi - sub.lo)
    return min(1.0, width / span)


def _sample_mask(sample: np.ndarray, pred: Predicate) -> np.ndarray:
    column = sample[:, pred.column]
    mask = np.ones(len(column), dtype=bool)
    if pred.lo is not None:
        mask &= column >= pred.lo
    if pred.hi is not None:
        mask &= column <= pred.hi
    return mask


def _empirical_fraction(sample, sup, sub) -> float:
    sub_mask = _sample_mask(sample, sub)
    if sup is None:
        return float(sub_mask.mean()) if len(sub_mask) else 1.0
    sup_mask = _sample_mask(sample, sup)
    denom = int(sup_mask.sum())
    if denom == 0:
        return _coverage_fraction(sup, sub)
    return float((sup_mask & sub_mask).sum() / denom)


def reference_bound(superset, subset, cached, sample=None) -> float:
    if any(p.is_empty for p in subset.predicates):
        return 0.0
    shrink = 1.0
    covered = set()
    for sup_pred in superset.predicates:
        sub_pred = subset.predicate_on(sup_pred.column)
        if sub_pred is None:
            continue
        covered.add(sup_pred.column)
        if sample is not None:
            shrink *= _empirical_fraction(sample, sup_pred, sub_pred)
        else:
            shrink *= _coverage_fraction(sup_pred, sub_pred)
    if sample is not None:
        for sub_pred in subset.predicates:
            if sub_pred.column not in covered:
                shrink *= _empirical_fraction(sample, None, sub_pred)
    return min(max(0.0, cached * shrink), cached)


class ReferenceCache:
    """The LRU and the semantic scan over sorted-tuple keys."""

    def __init__(self, capacity, scan_limit, interpolate=True, sample=None):
        self.capacity = capacity
        self.scan_limit = scan_limit
        self.interpolate = interpolate
        self.sample = None if sample is None else np.asarray(sample, np.float32)
        self.entries = OrderedDict()
        self.generation = 0
        self.hits = self.misses = self.semantic_hits = self.evictions = 0
        self.last_hit_kind = None
        self.last_semantic_match = None

    def __len__(self):
        return len(self.entries)

    def put(self, query, estimate):
        key = (self.generation, reference_signature(query))
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = estimate
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def bump_generation(self):
        self.generation += 1
        return self.generation

    def get(self, query):
        key = (self.generation, reference_signature(query))
        exact = self.entries.get(key)
        if exact is not None:
            self.entries.move_to_end(key)
            self.hits += 1
            self.last_hit_kind = "hit"
            self.last_semantic_match = None
            return exact
        self.misses += 1
        scanned = 0
        for key in reversed(self.entries):
            generation, signature = key
            if generation != self.generation:
                continue
            if scanned >= self.scan_limit:
                break
            scanned += 1
            if not _signature_subsumes(signature, query):
                continue
            superset = Query(tuple(Predicate(*t) for t in signature))
            cached = self.entries[key]
            value = (
                reference_bound(superset, query, cached, self.sample)
                if self.interpolate
                else cached
            )
            self.misses -= 1
            self.semantic_hits += 1
            self.last_hit_kind = "semantic_hit"
            self.last_semantic_match = (superset, cached)
            self.put(query, value)
            return value
        self.last_hit_kind = None
        self.last_semantic_match = None
        return None


def bits(value) -> bytes | None:
    """Exact identity of a float answer (NaN, -0.0 and all)."""
    return None if value is None else struct.pack("<d", value)


def predicate_bits(query: Query) -> list:
    return [(p.column, bits(p.lo), bits(p.hi)) for p in query.predicates]


#: float32 max, and bounds that overflow to ±inf when cast to float32
F32_MAX = float(np.finfo(np.float32).max)
EDGE_BOUNDS = (
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1e300, -1e300, F32_MAX, 3.5e38, -3.5e38,
)


def edge_sample(rng: np.random.Generator, rows: int, columns: int) -> np.ndarray:
    """float32 rows on a coarse grid (ties), with signed zeros and a
    sprinkle of ±inf and NaN."""
    sample = (np.round(rng.uniform(0.0, 20.0, (rows, columns)) * 2) / 2).astype(
        np.float32
    )
    sample[rng.random(sample.shape) < 0.05] = -0.0
    special = rng.random(sample.shape) < 0.03
    sample[special] = rng.choice(
        np.array([np.inf, -np.inf, np.nan], np.float32), int(special.sum())
    )
    return sample


def edge_bound(rng: np.random.Generator, column: np.ndarray):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return None
    if kind == 1:
        return float(rng.choice(EDGE_BOUNDS))
    value = float(column[int(rng.integers(0, len(column)))])
    if kind == 2:  # a sample value itself: ties at the boundary
        return value
    if kind == 3:  # one float64 ulp off: rounds onto the value in float32
        return float(np.nextafter(value, rng.choice([-math.inf, math.inf])))
    return float(rng.uniform(-1.0, 21.0))


def edge_predicate(rng, column: int, sample: np.ndarray) -> Predicate:
    while True:
        lo = edge_bound(rng, sample[:, column])
        hi = edge_bound(rng, sample[:, column])
        if lo is not None or hi is not None:
            if rng.random() < 0.8 and lo is not None and hi is not None:
                lo, hi = min(lo, hi), max(lo, hi)
            return Predicate(column, lo, hi)


def edge_query(rng, sample: np.ndarray) -> Query:
    num_columns = sample.shape[1]
    cols = rng.choice(num_columns, int(rng.integers(1, num_columns + 1)), False)
    return Query(tuple(edge_predicate(rng, int(c), sample) for c in cols))


def edge_subset(rng, sup: Query, sample: np.ndarray) -> Query:
    """A query the cache's scan takes for a subset of ``sup``: each side
    inside ``sup``'s by the scan's ``<``/``>`` tests (so a NaN bound
    passes), maybe with a column ``sup`` leaves free."""
    preds = []
    for p in sup.predicates:
        column = sample[:, p.column]
        lo, hi = edge_bound(rng, column), edge_bound(rng, column)
        if p.lo is not None and (lo is None or lo < p.lo):
            lo = p.lo
        if p.hi is not None and (hi is None or hi > p.hi):
            hi = p.hi
        preds.append(Predicate(p.column, lo, hi))
    free = sorted(set(range(sample.shape[1])) - set(sup.columns))
    if free and rng.random() < 0.5:
        preds.append(edge_predicate(rng, int(rng.choice(free)), sample))
    return Query(tuple(preds))


class TestKernelsMatchReference:
    def test_interpolated_bound_bit_equal_20000_pairs(self):
        rng = np.random.default_rng(20261020)
        sample = edge_sample(rng, 64, 3)
        seen = Counter()
        for _ in range(20000):
            sup = edge_query(rng, sample)
            if rng.random() < 0.7:
                sub = edge_subset(rng, sup, sample)
            else:
                sub = edge_query(rng, sample)
            cached = float(rng.choice([0.0, 1.0, 1e6, float(rng.uniform(0, 1e5))]))
            use = sample if rng.random() < 0.8 else None
            with np.errstate(over="ignore"):
                want = reference_bound(sup, sub, cached, use)
                got = interpolated_bound(sup, sub, cached, use)
            assert bits(got) == bits(want), (sup, sub, cached, use is None)
            assert type(got) is float
            seen["zero" if want == 0.0 else "cached" if want == cached else "shrunk"] += 1
        # answers of every kind were compared, not only the clamps
        assert min(seen.values()) >= 1000 and len(seen) == 3, seen

    def test_300_random_cache_sessions_match_reference(self):
        seen = Counter()
        for seed in range(300):
            self.run_session(np.random.default_rng([20261020, seed]), seed, seen)
        # every branch of the scan ran, often
        assert seen["hit"] >= 500 and seen["semantic_hit"] >= 1000, seen
        assert seen[None] >= 1000 and seen["evictions"] >= 1000, seen
        assert seen["bumps"] >= 100 and seen["scan_limit_0_gets"] >= 100, seen

    @staticmethod
    def run_session(rng, seed: int, seen: Counter) -> None:
        sample = edge_sample(rng, 48, 3) if seed % 4 else None
        scan_limit = int(rng.integers(0, 21))
        interpolate = seed % 7 != 0
        new = SemanticEstimateCache(16, scan_limit, interpolate, sample)
        ref = ReferenceCache(16, scan_limit, interpolate, sample)
        grid = edge_sample(rng, 32, 3) if sample is None else sample
        pool = [edge_query(rng, grid) for _ in range(24)]
        for _ in range(60):
            op = rng.random()
            if op < 0.03:
                assert new.bump_generation() == ref.bump_generation()
                seen["bumps"] += 1
                continue
            base = pool[int(rng.integers(0, len(pool)))]
            if op < 0.35:
                value = float(rng.choice([0.0, 7.0, float(rng.uniform(0, 1e5))]))
                new.put(base, value)
                ref.put(base, value)
                continue
            probe = base if op < 0.55 else edge_subset(rng, base, grid)
            with np.errstate(over="ignore"):
                got, want = new.get(probe), ref.get(probe)
            assert bits(got) == bits(want)
            assert new.last_hit_kind == ref.last_hit_kind
            seen[ref.last_hit_kind] += 1
            seen["scan_limit_0_gets"] += scan_limit == 0
            if ref.last_semantic_match is None:
                assert new.last_semantic_match is None
            else:
                got_sup, got_cached = new.last_semantic_match
                want_sup, want_cached = ref.last_semantic_match
                assert predicate_bits(got_sup) == predicate_bits(want_sup)
                assert bits(got_cached) == bits(want_cached)
            assert (new.hits, new.misses, new.semantic_hits) == (
                ref.hits, ref.misses, ref.semantic_hits,
            )
            assert (len(new), new.evictions) == (len(ref), ref.evictions)
        seen["evictions"] += ref.evictions
