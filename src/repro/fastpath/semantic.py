"""Semantic estimate cache: answer subset queries from cached supersets.

The serving tier's :class:`~repro.serve.cache.EstimateCache` only ever
answers an *exact* repeat of a cached query.  Real dashboards drill
down: the follow-up query is the same conjunctive rectangle with one or
more sides tightened.  Under the repo's predicate model (Section 2.1 —
a query is a conjunction of per-column intervals, at most one per
column), containment is decidable per column:

    Q_sub ⊆ Q_sup  ⇐  every predicate of Q_sup contains Q_sub's
                       predicate on that column (interval containment),
                       and Q_sup constrains no column Q_sub leaves free.

Interval containment implies row containment — any row satisfying the
tighter interval satisfies the wider one — and a column Q_sup does not
constrain admits every row, so the implication is *sound*: the subset
query's true cardinality can never exceed the superset's.  (It is
deliberately one-directional; the checker never needs to prove
equality.)  ``tests/test_fastpath_properties.py`` brute-forces this
against row-level evaluation over a thousand seeded predicate pairs.

On an exact-key miss the cache scans its current-generation entries
(most recent first, up to ``scan_limit``) for a cached superset and
serves a **monotonicity-bounded** answer: the cached estimate scaled by
the covered per-column fraction, clamped to ``[0, cached]``.  The bound
is the soundness contract — a semantic answer never exceeds the
estimate of the containing rectangle.  The fraction comes from a
materialized row ``sample`` when one is supplied (empirical marginal
coverage — an AVI product over *observed* column distributions, robust
to skew) and falls back to interval-width ratios (uniformity) without
one.  A miss builds the probe's ``{column: (lo, hi)}`` map once and
tests up to ``scan_limit`` keys against it; a subset hit counts sample
rows by binary search over per-column sorted copies of the sample made
once, in ``__init__`` (:class:`_SortedSample`).
Entries are generation-namespaced exactly like the exact-hit cache, so
a lifecycle hot-swap (``bump_generation``) invalidates semantic answers
and exact answers in the same O(1) step.
"""

from __future__ import annotations

import numpy as np

from ..core.query import Predicate, Query
from ..serve.cache import EstimateCache, query_signature

#: default bound on how many cached entries one miss may scan
DEFAULT_SCAN_LIMIT = 128


def subsumes(superset: Query, subset: Query) -> bool:
    """True when every row matching ``subset`` must match ``superset``.

    Sound under the conjunctive-rectangle model: checked per column via
    :meth:`Predicate.contains`.  Columns the superset leaves free are
    unconstrained (vacuously containing); a column the superset
    constrains but the subset leaves free defeats containment.
    """
    for sup_pred in superset.predicates:
        sub_pred = subset.predicate_on(sup_pred.column)
        if sub_pred is None or not sup_pred.contains(sub_pred):
            return False
    return True


def _coverage_fraction(sup_lo, sup_hi, sub_lo, sub_hi) -> float:
    """Fraction of the interval ``[sup_lo, sup_hi]`` covered by
    ``[sub_lo, sub_hi]`` (in [0, 1]).

    Unbounded sides make the ratio undefined; those columns contribute
    no shrink (fraction 1.0) — the bound stays sound, only looser.
    """
    if sup_lo is None or sup_hi is None or sub_lo is None or sub_hi is None:
        return 1.0
    span = sup_hi - sup_lo
    if span <= 0.0:
        return 1.0
    width = max(0.0, sub_hi - sub_lo)
    return min(1.0, width / span)


class _SortedSample:
    """A row sample kept as one sorted copy per column.

    The rows whose value lies in ``[lo, hi]`` are then one contiguous
    run of the sorted column, found by two binary searches instead of
    two boolean masks over the whole sample.  Bounds are cast to the
    sample's dtype first, as NumPy casts a Python number it compares
    with the array, so a count equals the masks' sum bit for bit (a
    bound beyond float32's range becomes ±inf; ``-0.0 == 0.0``).  A
    non-float sample is read as float32, like the cache's.
    """

    __slots__ = ("rows", "cast", "columns", "ends")

    def __init__(self, sample: np.ndarray) -> None:
        sample = np.asarray(sample)
        if sample.dtype.kind != "f":
            sample = sample.astype(np.float32)
        self.rows = len(sample)
        self.cast = sample.dtype.type
        self.columns = tuple(np.sort(np.array(sample.T, order="C"), axis=1))
        # NaN sorts last and lies in no interval: an open upper side
        # ends where the NaNs begin.
        inf = self.cast(np.inf)
        self.ends = [int(c.searchsorted(inf, "right")) for c in self.columns]

    def run(self, column: int, lo, hi) -> tuple[int, int]:
        """``(a, b)`` such that the sorted rows ``a:b`` of ``column`` are
        those in ``[lo, hi]`` (None: an open side); a NaN bound, which
        no row satisfies, gives ``b <= a``."""
        values = self.columns[column]
        a = 0 if lo is None else int(values.searchsorted(self.cast(lo), "left"))
        if hi is None:
            return a, self.ends[column]
        hi = self.cast(hi)
        # searchsorted puts a NaN upper bound past the NaN rows
        return a, (int(values.searchsorted(hi, "right")) if hi == hi else 0)


def _interpolate(
    superset: tuple[tuple, ...],
    bounds: dict[int, tuple],
    cached: float,
    sample: _SortedSample | None,
) -> float:
    """:func:`interpolated_bound` on primitive forms: the superset's
    ``(column, lo, hi)`` triples and the subset's ``{column: (lo, hi)}``.

    With a sample, a column both constrain keeps the observed fraction
    of the superset's rows that the subset keeps: the two intervals
    meet in one interval, so its run is the overlap of their runs.  An
    empty superset run falls back to the width ratio (no evidence beats
    no evidence).
    """
    for lo, hi in bounds.values():
        if lo is not None and hi is not None and lo > hi:
            return 0.0
    shrink = 1.0
    covered = set()
    for column, sup_lo, sup_hi in superset:
        sub = bounds.get(column)
        if sub is None:
            continue
        covered.add(column)
        sub_lo, sub_hi = sub
        if sample is not None:
            a, b = sample.run(column, sup_lo, sup_hi)
            if b > a:
                sub_a, sub_b = sample.run(column, sub_lo, sub_hi)
                shrink *= max(0, min(b, sub_b) - max(a, sub_a)) / (b - a)
                continue
        shrink *= _coverage_fraction(sup_lo, sup_hi, sub_lo, sub_hi)
    if sample is not None:
        rows = sample.rows
        for column, (sub_lo, sub_hi) in bounds.items():
            if column not in covered:
                a, b = sample.run(column, sub_lo, sub_hi)
                shrink *= max(0, b - a) / rows if rows else 1.0
    return min(max(0.0, cached * shrink), cached)


def interpolated_bound(
    superset: Query,
    subset: Query,
    cached: float,
    sample: np.ndarray | None = None,
) -> float:
    """Semantic answer for ``subset`` given ``cached`` for ``superset``.

    The cached estimate is scaled by the product of per-column coverage
    fractions and clamped to ``[0, cached]`` so the monotonicity bound
    holds by construction.  With a row ``sample`` the fractions are
    empirical marginal coverages (AVI over observed distributions —
    skew-aware); without one they fall back to interval-width ratios
    (uniformity within the cached rectangle).  Columns only the subset
    constrains contribute their sample selectivity (with a sample) or
    nothing (without — sound either way, just looser).  An empty subset
    predicate matches nothing: the answer is 0.  The fractions multiply
    in the superset's predicate order, then the subset's.
    """
    bounds = {p.column: (p.lo, p.hi) for p in subset.predicates}
    return _interpolate(
        tuple((p.column, p.lo, p.hi) for p in superset.predicates),
        bounds,
        cached,
        None if sample is None else _SortedSample(sample),
    )


class SemanticEstimateCache(EstimateCache):
    """LRU estimate cache that also answers subset queries.

    Exact hits behave identically to the base class (canonicalized
    keys, LRU order, generation namespacing).  On an exact miss the
    current generation's entries are scanned newest-first for a cached
    superset; a match serves :func:`interpolated_bound` and counts as a
    ``semantic_hit``.  ``last_hit_kind`` tells the serving layer which
    metric outcome to record; ``last_semantic_match`` exposes the
    matched superset and its cached value so tests can assert the
    monotonicity bound on every served answer.
    """

    def __init__(
        self,
        capacity: int = 1024,
        scan_limit: int = DEFAULT_SCAN_LIMIT,
        interpolate: bool = True,
        sample: np.ndarray | None = None,
    ) -> None:
        super().__init__(capacity)
        if scan_limit < 0:
            raise ValueError(f"scan_limit must be non-negative, got {scan_limit}")
        self.scan_limit = scan_limit
        self.interpolate = interpolate
        #: the optional row sample for empirical interpolation, sorted
        #: once per column so each lookup counts by binary search
        self.sample = (
            None
            if sample is None
            else _SortedSample(np.asarray(sample, dtype=np.float32))
        )
        self.semantic_hits = 0
        self.last_hit_kind: str | None = None
        #: ``(superset_query, cached_value)`` behind the last semantic hit
        self.last_semantic_match: tuple[Query, float] | None = None

    def get(self, query: Query) -> float | None:
        # Exact-hit path inlined from the base class: at fast-path
        # speeds the extra super().get frame is a measurable slice of
        # the single-digit-microsecond budget.
        key = (self.generation, query_signature(query))
        entries = self._entries
        exact = entries.get(key)
        if exact is not None:
            entries.move_to_end(key)
            self.hits += 1
            self.last_hit_kind = "hit"
            self.last_semantic_match = None
            return exact
        self.misses += 1
        # The miss is counted; re-classify below if the subsumption
        # scan finds a containing rectangle.  The probe's intervals are
        # looked up by column once here, not searched per scanned entry.
        bounds = {p.column: (p.lo, p.hi) for p in query.predicates}
        generation = self.generation
        scan_limit = self.scan_limit
        scanned = 0
        for key in reversed(entries):
            if key[0] != generation:
                continue
            if scanned >= scan_limit:
                break
            scanned += 1
            # subsumes() on the key's primitive (column, lo, hi) form
            for column, lo, hi in key[1]:
                sub = bounds.get(column)
                if sub is None:
                    break
                sub_lo, sub_hi = sub
                if lo is not None and (sub_lo is None or sub_lo < lo):
                    break
                if hi is not None and (sub_hi is None or sub_hi > hi):
                    break
            else:
                # The key is a set; the superset's predicates go in
                # column order (columns are distinct, so sorting the
                # triples sorts by column).
                superset = tuple(sorted(key[1]))
                cached = entries[key]
                value = (
                    _interpolate(superset, bounds, cached, self.sample)
                    if self.interpolate
                    else cached
                )
                self.misses -= 1
                self.semantic_hits += 1
                self.last_hit_kind = "semantic_hit"
                # Predicate objects are rebuilt from the primitive key
                # only on a match (see query_signature for the key).
                self.last_semantic_match = (
                    Query(tuple(Predicate(c, lo, hi) for c, lo, hi in superset)),
                    cached,
                )
                # Memoize under the subset's own key: a dashboard repeats
                # the drill-down it just ran, and the repeat should be an
                # exact hit (~1us) instead of paying this scan again.  The
                # entry is generation-namespaced like any other, so a
                # hot-swap invalidates it with the rest.
                self.put(query, value)
                return value
        self.last_hit_kind = None
        self.last_semantic_match = None
        return None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.semantic_hits + self.misses
        return (self.hits + self.semantic_hits) / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"SemanticEstimateCache(size={len(self)}/{self.capacity}, "
            f"gen={self.generation}, hits={self.hits}, "
            f"semantic={self.semantic_hits}, misses={self.misses})"
        )
