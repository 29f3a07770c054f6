"""Consistent-hash ring and routing keys for shard routing.

A :class:`HashRing` maps routing keys (tenant + query identity) to shard
names so that (a) the same key always lands on the same shard — shard-
local estimate caches stay hot and per-tenant traffic is stable — and
(b) adding or removing a shard only remaps ``~1/num_shards`` of the key
space, instead of reshuffling everything like ``hash(key) % N`` would.

Hashes are :func:`hashlib.blake2b` digests of the key bytes, **not**
Python's builtin ``hash`` (which is salted per process via
``PYTHONHASHSEED`` — routing must be identical across runs and across
forked workers).  Each shard is placed at ``replicas`` points on the
ring (virtual nodes) so the key space splits evenly even with few
shards.

:func:`routing_key` builds a request's key as bytes: the tenant, then
one fixed-width record per predicate, packed with a single
:class:`struct.Struct` — a key is built for every request, so it must
cost far less than rendering the query as text.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .admission import ShardRequest

#: one predicate of a routing key: column, None-flags (bit 0: no lower
#: bound, bit 1: no upper bound), lower bound, upper bound.  An absent
#: bound packs as 0.0; the flags keep ``(None, 5)`` apart from ``(0, 5)``.
_PREDICATE = struct.Struct("<iBdd")


def stable_hash(key: str | bytes) -> int:
    """A process-independent 64-bit hash of ``key``."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def routing_key(request: ShardRequest) -> bytes:
    """Stable routing key: tenant plus query identity, as packed bytes.

    The tenant is length-prefixed so it can never run into the
    predicate records.  Bounds are normalised with ``+ 0.0`` so ``-0.0``
    and ``0.0`` — equal bounds of equal queries — pack alike.  Nothing
    here depends on the salted builtin ``hash``, so the key is the same
    in every process.  Keeping the tenant in the key gives per-tenant
    affinity; keeping the query in it keeps shard-local caches hot for
    repeated queries.
    """
    tenant = request.tenant.encode("utf-8")
    parts = [len(tenant).to_bytes(4, "little"), tenant]
    pack = _PREDICATE.pack
    for p in request.query.predicates:
        lo, hi = p.lo, p.hi
        parts.append(
            pack(
                p.column,
                (lo is None) | (hi is None) << 1,
                0.0 if lo is None else lo + 0.0,
                0.0 if hi is None else hi + 0.0,
            )
        )
    return b"".join(parts)


class HashRing:
    """Consistent hashing over named nodes with virtual replicas."""

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def _point(self, node: str, replica: int) -> int:
        return stable_hash(f"{node}#{replica}")

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = self._point(node, replica)
            # Blake2b collisions across distinct (node, replica) labels
            # are astronomically unlikely; first writer keeps the point.
            if point not in self._owners:
                self._owners[point] = node
                bisect.insort(self._points, point)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        for replica in range(self.replicas):
            point = self._point(node, replica)
            if self._owners.get(point) == node:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    def node_for(self, key: str | bytes) -> str:
        """The shard owning ``key``: first ring point clockwise of it."""
        if not self._points:
            raise RuntimeError("hash ring has no nodes")
        point = stable_hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[self._points[index]]
