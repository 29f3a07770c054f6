"""Shared-memory model arena and slot ring for the zero-copy data plane.

Two pieces of process-shared plumbing are the data plane of the sharded
serving tier's forked worker pools:

* :class:`ModelArena` — publishes each model *generation* into a
  ``multiprocessing.shared_memory`` segment: a fixed header (magic,
  generation id, SHA-256 checksum, meta length, tensor-region offset),
  a pickled meta block (per-tensor dtype/shape/offset table plus the
  skeleton pickle from :func:`repro.persistence.split_tensors`), and a
  64-byte-aligned tensor region.  Workers :meth:`~ModelArena.attach`
  read-only ndarray views over the region instead of receiving a
  pickled estimator, so a rolling swap is "publish generation, send a
  tiny control frame".  The parent refcounts attached generations and
  unlinks retired segments once the last reference drops.

* :class:`ShmRing` — a preallocated ring of fixed-size request/response
  slots in one shared segment, the only path a query batch takes to a
  forked worker.  The parent owns the free list; workers inherit the
  mapping over ``fork`` and read/write slots they are handed via pipe
  control frames (see :mod:`repro.shard.codec`).

Both are fork-first by design: segments are created by the parent
before (or while) workers exist, children inherit the resource-tracker
session, and only the parent ever unlinks — so the lifetime story is
"parent refcounts, parent unlinks, ``close()`` unlinks whatever is
left".  Models attached from an arena are **inference-only**: their
tensors are read-only views, so in-place training updates would raise.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory



from ..persistence import (
    read_tensors,
    split_tensors,
    join_tensors,
    tensor_table,
    write_tensors,
)

__all__ = [
    "ArenaError",
    "ArenaGeneration",
    "ArenaAttachment",
    "ModelArena",
    "ShmRing",
]


class ArenaError(RuntimeError):
    """A shared-memory segment could not be published or attached."""


#: Segment header: magic, generation id, SHA-256 of everything after the
#: header, meta pickle length, byte offset of the tensor region.
_HEADER = struct.Struct("<12sQ32sQQ")
_MAGIC = b"repro-arena\x00"
HEADER_BYTES = _HEADER.size


def _segment_prefix() -> str:
    """Unique-per-arena segment name prefix (pid + random suffix)."""
    return f"repro-{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class ArenaGeneration:
    """Handle describing one published model generation."""

    generation: int
    name: str
    size: int
    checksum: str
    tensor_bytes: int
    num_tensors: int


@dataclass
class ArenaAttachment:
    """A worker-side attachment: the rebuilt model + its live segment.

    The segment must outlive the model (the model's tensors are views
    into it); :meth:`close` drops the mapping once the model has been
    replaced and its arrays are no longer referenced.
    """

    model: object
    generation: ArenaGeneration
    _segment: shared_memory.SharedMemory = field(repr=False, default=None)

    def close(self) -> None:
        """Release the mapping; harmless if views are still referenced."""
        self.model = None
        if self._segment is None:
            return
        try:
            self._segment.close()
        except BufferError:
            # Someone still holds a tensor view; the mapping stays until
            # process exit.  Never fatal — the parent owns the unlink.
            pass
        self._segment = None


class ModelArena:
    """Publish model generations to shared memory; refcount their life.

    The publishing process (the shard router or a supervisor) calls
    :meth:`publish` to snapshot a model into a fresh segment and gets a
    :class:`ArenaGeneration` handle back.  Each supervisor that swaps
    its workers onto the generation takes a reference with
    :meth:`acquire` and drops it with :meth:`release` after the next
    swap.  Publishing auto-retires every earlier generation: a retired
    generation is unlinked the moment its refcount reaches zero, and
    :meth:`close` unlinks anything still standing.
    """

    def __init__(self, *, prefix: str | None = None) -> None:
        self._prefix = prefix or _segment_prefix()
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self._handles: dict[int, ArenaGeneration] = {}
        self._refs: dict[int, int] = {}
        self._retired: set[int] = set()
        self._counter = 0
        #: generations published over this arena's lifetime.
        self.published = 0
        #: segments unlinked so far (retired generations fully drained).
        self.unlinked = 0

    # -- publishing ----------------------------------------------------
    def publish(self, model: object) -> ArenaGeneration:
        """Snapshot ``model`` into a new shared-memory generation."""
        skeleton, tensors = split_tensors(model)
        table, tensor_bytes = tensor_table(tensors)
        meta = pickle.dumps(
            {"skeleton": skeleton, "table": table},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        data_offset = _aligned(HEADER_BYTES + len(meta))
        size = data_offset + max(tensor_bytes, 1)

        self._counter += 1
        generation = self._counter
        name = f"{self._prefix}-g{generation}"
        try:
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        except OSError as exc:
            raise ArenaError(f"could not create arena segment {name}: {exc}") from exc

        buf = segment.buf
        buf[HEADER_BYTES : HEADER_BYTES + len(meta)] = meta
        write_tensors(tensors, table, buf[data_offset:])
        digest = hashlib.sha256(buf[HEADER_BYTES:size]).digest()
        _HEADER.pack_into(
            buf, 0, _MAGIC, generation, digest, len(meta), data_offset
        )

        handle = ArenaGeneration(
            generation=generation,
            name=segment.name.lstrip("/"),
            size=size,
            checksum=digest.hex(),
            tensor_bytes=tensor_bytes,
            num_tensors=len(table),
        )
        self._segments[generation] = segment
        self._handles[generation] = handle
        self._refs[generation] = 0
        self.published += 1
        # Older generations take no new attachments; drain-and-unlink.
        for old in list(self._segments):
            if old != generation:
                self.retire(old)
        return handle

    # -- refcounting ---------------------------------------------------
    def acquire(self, handle: ArenaGeneration) -> None:
        """Take a reference: ``handle`` is in use by a worker pool."""
        if handle.generation not in self._segments:
            raise ArenaError(
                f"generation {handle.generation} is not live in this arena"
            )
        self._refs[handle.generation] += 1

    def release(self, handle: ArenaGeneration) -> None:
        """Drop a reference; unlinks the segment once retired + drained."""
        generation = handle.generation
        if generation not in self._segments:
            return  # already unlinked (e.g. close() during teardown)
        self._refs[generation] -= 1
        if self._refs[generation] <= 0 and generation in self._retired:
            self._unlink(generation)

    def retire(self, generation: int) -> None:
        """Mark ``generation`` obsolete; unlink as soon as refs drain."""
        if generation not in self._segments:
            return
        self._retired.add(generation)
        if self._refs.get(generation, 0) <= 0:
            self._unlink(generation)

    def _unlink(self, generation: int) -> None:
        segment = self._segments.pop(generation)
        self._handles.pop(generation, None)
        self._refs.pop(generation, None)
        self._retired.discard(generation)
        try:
            segment.close()
        except BufferError:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        self.unlinked += 1

    def live_generations(self) -> list[int]:
        """Generations whose segments still exist (tests + introspection)."""
        return sorted(self._segments)

    def close(self) -> None:
        """Unlink every remaining segment, live or retired."""
        for generation in list(self._segments):
            self._unlink(generation)

    # -- worker side ---------------------------------------------------
    @staticmethod
    def attach(name: str) -> ArenaAttachment:
        """Attach a published generation read-only and rebuild its model.

        Verifies the magic and the SHA-256 checksum before trusting the
        meta pickle, then joins the skeleton around read-only tensor
        views into the segment.  The returned attachment keeps the
        segment mapped; call :meth:`ArenaAttachment.close` after the
        model has been replaced.
        """
        try:
            segment = shared_memory.SharedMemory(name=name)
        except OSError as exc:
            raise ArenaError(f"arena segment {name} is gone: {exc}") from exc
        try:
            magic, generation, digest, meta_len, data_offset = _HEADER.unpack_from(
                segment.buf, 0
            )
            if magic != _MAGIC:
                raise ArenaError(f"{name} is not an arena segment")
            actual = hashlib.sha256(segment.buf[HEADER_BYTES:]).digest()
            if actual != digest:
                raise ArenaError(f"{name} failed its content checksum")
            meta = pickle.loads(
                segment.buf[HEADER_BYTES : HEADER_BYTES + meta_len]
            )
            region = segment.buf[data_offset:]
            arrays = read_tensors(meta["table"], region, copy=False)
            model = join_tensors(meta["skeleton"], arrays)
        except ArenaError:
            _close_quietly(segment)
            raise
        except (KeyError, ValueError, pickle.UnpicklingError, struct.error) as exc:
            _close_quietly(segment)
            raise ArenaError(f"arena segment {name} is torn: {exc}") from exc
        handle = ArenaGeneration(
            generation=generation,
            name=name,
            size=segment.size,
            checksum=digest.hex(),
            tensor_bytes=sum(row[3] for row in meta["table"]),
            num_tensors=len(meta["table"]),
        )
        return ArenaAttachment(model=model, generation=handle, _segment=segment)


def _aligned(offset: int, align: int = 64) -> int:
    return (offset + align - 1) // align * align


def _close_quietly(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:
        # A half-built view still references the mapping; it dies with
        # the frame that raised.
        pass


class ShmRing:
    """A ring of fixed-size shared-memory slots for query/result frames.

    The parent creates the ring before forking workers and owns the
    free list; a slot index travels to exactly one worker inside a pipe
    control frame, the worker overwrites the slot with its result frame,
    and the parent releases the slot after decoding the reply (or after
    killing the worker — a slot is never reused while a process that
    might still write it is alive).
    """

    def __init__(
        self,
        num_slots: int,
        slot_bytes: int,
        *,
        prefix: str | None = None,
    ) -> None:
        if num_slots < 1 or slot_bytes < HEADER_BYTES:
            raise ValueError("ring needs at least one usable slot")
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        name = f"{prefix or _segment_prefix()}-ring"
        self._segment = shared_memory.SharedMemory(
            name=name, create=True, size=num_slots * slot_bytes
        )
        self.name = self._segment.name.lstrip("/")
        self._free: list[int] = list(range(num_slots - 1, -1, -1))
        self._free_set: set[int] = set(self._free)
        self._closed = False

    @property
    def free_count(self) -> int:
        return len(self._free)

    def acquire(self) -> int | None:
        """Pop a free slot index, or ``None`` when the ring is full."""
        if not self._free:
            return None
        slot = self._free.pop()
        self._free_set.discard(slot)
        return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the free list (double-release is a bug)."""
        if slot in self._free_set:
            raise ValueError(f"slot {slot} released twice")
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range")
        self._free.append(slot)
        self._free_set.add(slot)

    def slot_view(self, slot: int) -> memoryview:
        """The writable byte window of ``slot`` (parent and workers)."""
        start = slot * self.slot_bytes
        return self._segment.buf[start : start + self.slot_bytes]

    def close(self, *, unlink: bool) -> None:
        """Drop the mapping; the owning parent also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:
            pass
        if unlink:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass
