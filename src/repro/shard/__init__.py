"""Sharded serving: consistent-hash routing, supervised fork-based
worker pools, admission control with priority load shedding, and
rolling model swaps — the million-query robustness tier on top of
:mod:`repro.serve` and :mod:`repro.parallel`.

Layering::

    ShardRouter                 route by consistent hash, scatter/gather
                                shards, rolling swaps
      ├── ModelArena            shm model generations, zero-copy swaps
      └── Shard (×N)            admission + worker pool + fallback chain
            ├── AdmissionController   quotas, capacity, deadlines → shed
            ├── WorkerSupervisor      forked workers, restarts, drain
            │     └── ShmRing + codec   batches as framed shm ndarrays
            └── EstimatorService      in-process degradation chain

The pipes between supervisor and workers are a pure control plane:
bulk data (model tensors, query batches, results) crosses only through
shared memory (:mod:`.shm`, :mod:`.codec`), and ``tests/test_lint.py``
rule 7 bans any other payload over a shard pipe.  A batch that cannot
ride the ring (too large for a slot, or no free worker) is answered by
the shard's in-process fallback chain; a model swap of forked workers
attaches an arena generation.  Inline pools (no fork) call the model directly.

The tier keeps no cache of its own: caching belongs to
:class:`~repro.serve.EstimatorService`, and a shard's fallback chain
runs without one.  Answers are built by
:func:`~repro.serve.service.served_estimate`, the serving chain's one
``ServedEstimate`` builder (``tests/test_lint.py`` rule 8).

Every request gets an answer — worker, fallback chain, or heuristic
shed tier — so availability stays 1.0 under worker crashes, hangs,
slow workers, queue floods, model corruption, failed swaps and
exhausted restart budgets (``tests/test_shard.py``).
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    ShardRequest,
)
from .codec import (
    CodecError,
    CodecOverflow,
    pack_queries,
    pack_results,
    unpack_queries,
    unpack_results,
)
from .hashing import HashRing, routing_key, stable_hash
from .shm import (
    ArenaError,
    ArenaGeneration,
    ModelArena,
    ShmRing,
)
from .router import (
    RollingSwapReport,
    Shard,
    ShardBatch,
    ShardRouter,
    ShardStats,
)
from .supervisor import DispatchResult, DispatchTicket, WorkerSupervisor

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "ArenaError",
    "ArenaGeneration",
    "CodecError",
    "CodecOverflow",
    "DispatchResult",
    "DispatchTicket",
    "HashRing",
    "ModelArena",
    "RollingSwapReport",
    "Shard",
    "ShardBatch",
    "ShardRequest",
    "ShardRouter",
    "ShardStats",
    "ShmRing",
    "WorkerSupervisor",
    "pack_queries",
    "pack_results",
    "routing_key",
    "stable_hash",
    "unpack_queries",
    "unpack_results",
]
