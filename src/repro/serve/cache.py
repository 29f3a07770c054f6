"""Keyed estimate cache for the serving layer.

Real deployments answer the same parametrized queries over and over
(dashboards, prepared statements), and a cardinality estimate only goes
stale when the underlying data changes.  :class:`EstimateCache` is a
small LRU map from :class:`~repro.core.query.Query` (frozen, hence
hashable) to the served estimate.  Keys are **canonicalized** — the
set of the query's ``(column, lo, hi)`` triples — so the same
conjunction written with its predicates in a different order hits the
same entry.

Entries are **namespaced by model generation**: every key carries the
generation counter current at insertion time, and
:meth:`bump_generation` — called by the service on ``update()`` and on
lifecycle hot-swaps (see :meth:`EstimatorService.replace_primary`) —
makes every existing entry unreachable in O(1).  A hit is therefore
always as fresh as a cold call against the *current* model; answers
computed by a replaced model can never be served again, and stale
entries age out through normal LRU eviction.

The cache is opt-in: pass ``cache=`` to
:class:`~repro.serve.service.EstimatorService`.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.query import Query


def query_signature(query: Query) -> frozenset[tuple]:
    """Canonical primitive cache key: the frozenset of the query's
    ``(column, lo, hi)`` triples, memoized on the query object.

    Cache lookups at fast-path speeds are dominated by hashing.  A key
    built from :class:`Predicate` objects re-enters Python for every
    element's generated ``__hash__`` on every dict probe, and even a
    nested tuple of ints and floats is rehashed element by element on
    every probe: CPython caches no tuple's hash.  A frozenset hashes its
    elements once and keeps its own hash, so each later probe of the
    cache's OrderedDict (the lookup, the LRU bump, every step of the
    semantic scan) costs one stored hash.  A query constrains each
    column at most once, so the set is canonical: the same conjunction
    with its predicates in another order gives an equal key.  The
    signature is a pure function of a frozen value, so it is computed
    once and stashed on the instance (``object.__setattr__`` bypasses
    the frozen guard exactly like the dataclass-generated ``__init__``
    does); replayed query objects pay for it only on first sight.
    """
    sig = query.__dict__.get("_cache_signature")
    if sig is None:
        sig = frozenset((p.column, p.lo, p.hi) for p in query.predicates)
        object.__setattr__(query, "_cache_signature", sig)
    return sig


class EstimateCache:
    """Bounded LRU map from (model generation, query) to served estimate."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Generation tag stamped onto new entries; old-generation
        #: entries are unreachable and simply age out of the LRU.
        self.generation = 0
        self._entries: OrderedDict[tuple[int, frozenset[tuple]], float] = (
            OrderedDict()
        )

    def _key(self, query: Query) -> tuple[int, frozenset[tuple]]:
        return (self.generation, query_signature(query))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query: Query) -> bool:
        return self._key(query) in self._entries

    def get(self, query: Query) -> float | None:
        """Cached estimate for ``query`` under the current generation."""
        key = self._key(query)
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, query: Query, estimate: float) -> None:
        """Insert or refresh an entry, evicting the least recently used."""
        key = self._key(query)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = estimate
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def bump_generation(self) -> int:
        """Invalidate every entry by advancing the generation tag.

        O(1): old entries stay in the map (counting against capacity
        until evicted) but can never match a lookup again.  Returns the
        new generation.
        """
        self.generation += 1
        return self.generation

    def clear(self) -> None:
        """Drop every entry immediately (also reclaims their capacity)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"EstimateCache(size={len(self)}/{self.capacity}, "
            f"gen={self.generation}, hits={self.hits}, misses={self.misses})"
        )
