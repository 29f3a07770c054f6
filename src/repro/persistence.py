"""Model persistence: save a fitted estimator to disk and load it back.

A production deployment trains estimators offline (the expensive part —
see Figure 4) and ships the fitted artifact to the optimizer process.
This module provides that boundary: a small versioned container around
Python pickling, with integrity checks on load.

Estimators are plain Python objects over numpy arrays, so pickle is both
complete and compact here; the header guards against loading artifacts
from incompatible library versions, and a SHA-256 content checksum makes
a truncated or bit-flipped artifact fail loudly instead of unpickling
garbage into the serving path.

Two layers:

* :func:`save_bundle` / :func:`load_bundle` — the generic checksummed
  container (magic, SHA-256, pickled dict with a ``kind`` tag).  All
  writes are **atomic**: the bytes go to a temporary file in the target
  directory, are fsynced, and only then renamed over the final path, so
  a crash mid-write can never leave a torn artifact where a reader looks
  for one.  :mod:`repro.lifecycle` stores its training checkpoints in
  this container.
* :func:`save_estimator` / :func:`load_estimator` — the estimator
  artifact format built on top, with :class:`ArtifactInfo` metadata.

Format 3 splits every sizeable ndarray out of the pickle stream
(:func:`split_tensors`) and stores it in a contiguous, 64-byte-aligned
tensor blob behind a per-tensor dtype/shape table.  The pickle that
remains — the *skeleton* — is just object structure and scalars.  The
same split/join machinery backs :class:`repro.shard.shm.ModelArena`,
which maps the identical layout into ``multiprocessing.shared_memory``
so forked workers can attach read-only tensor views instead of
receiving a pickled model.  Only the current format loads: an artifact
of any other format raises :class:`PersistenceError` naming it.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core.estimator import CardinalityEstimator

#: Bumped whenever a change breaks estimator attribute layout or the
#: on-disk container (version 2 added the payload checksum; version 3
#: moved ndarrays out of the pickle into an aligned tensor blob).
FORMAT_VERSION = 3

_MAGIC = b"repro-estimator"
_DIGEST_BYTES = hashlib.sha256().digest_size

#: ``kind`` tag of estimator artifacts.
ESTIMATOR_KIND = "estimator"


@dataclass(frozen=True)
class ArtifactInfo:
    """Metadata stored alongside a persisted estimator."""

    format_version: int
    estimator_name: str
    estimator_class: str
    table_name: str
    num_rows: int


class PersistenceError(RuntimeError):
    """Raised when an artifact cannot be read back safely."""


# ----------------------------------------------------------------------
# Tensor split/join (shared with repro.shard.shm)
# ----------------------------------------------------------------------
#: Arrays smaller than this stay inline in the skeleton pickle — the
#: out-of-band bookkeeping costs more than it saves below this size.
MIN_TENSOR_BYTES = 256

#: Tag used for out-of-band tensor references in the skeleton pickle.
_TENSOR_TAG = "repro-tensor"

#: Tensor offsets are aligned so attached views are cache-line aligned
#: (and safely aligned for any numpy dtype).
TENSOR_ALIGN = 64


class _TensorPickler(pickle.Pickler):
    """Pickler that extracts large ndarrays as out-of-band tensors.

    Arrays are deduplicated by object identity (a model whose layers
    share a weight array stays shared after a join) and snapshotted
    contiguously so the blob layout is a straight byte copy.
    """

    def __init__(self, file: io.BytesIO, min_bytes: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._min_bytes = min_bytes
        self.tensors: list[np.ndarray] = []
        self._index: dict[int, int] = {}
        # ``id()`` keys are only stable while the object is alive;
        # pin every extracted array (pickle's memo does not hold
        # persistent-id'd objects, and __reduce__ can yield temporaries).
        self._pinned: list[np.ndarray] = []

    def persistent_id(self, obj: object):  # noqa: D102 (pickle hook)
        if type(obj) is np.ndarray and obj.nbytes >= self._min_bytes:
            idx = self._index.get(id(obj))
            if idx is None:
                idx = len(self.tensors)
                self._index[id(obj)] = idx
                self._pinned.append(obj)
                self.tensors.append(np.ascontiguousarray(obj))
            return (_TENSOR_TAG, idx)
        return None


class _TensorUnpickler(pickle.Unpickler):
    """Unpickler resolving tensor references against a provided list."""

    def __init__(self, file: io.BytesIO, tensors: Sequence[np.ndarray]) -> None:
        super().__init__(file)
        self._tensors = tensors

    def persistent_load(self, pid: object) -> np.ndarray:  # noqa: D102
        if (
            isinstance(pid, tuple)
            and len(pid) == 2
            and pid[0] == _TENSOR_TAG
            and isinstance(pid[1], int)
            and 0 <= pid[1] < len(self._tensors)
        ):
            return self._tensors[pid[1]]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def split_tensors(
    obj: object, *, min_bytes: int = MIN_TENSOR_BYTES
) -> tuple[bytes, list[np.ndarray]]:
    """Pickle ``obj`` with large ndarrays factored out.

    Returns ``(skeleton, tensors)``: the skeleton is a pickle holding
    ``(tag, index)`` references where the arrays were, and ``tensors``
    are contiguous snapshots in reference order.  Inverse of
    :func:`join_tensors`.
    """
    buffer = io.BytesIO()
    pickler = _TensorPickler(buffer, min_bytes)
    pickler.dump(obj)
    return buffer.getvalue(), pickler.tensors


def join_tensors(skeleton: bytes, tensors: Sequence[np.ndarray]) -> object:
    """Rebuild a :func:`split_tensors` object around ``tensors``.

    The arrays are installed as-is — pass shared-memory views to attach
    a zero-copy model, or fresh copies to materialise a private one.
    """
    return _TensorUnpickler(io.BytesIO(skeleton), tensors).load()


def _aligned(offset: int) -> int:
    return (offset + TENSOR_ALIGN - 1) // TENSOR_ALIGN * TENSOR_ALIGN


def tensor_table(
    tensors: Sequence[np.ndarray],
) -> tuple[list[tuple[str, tuple[int, ...], int, int]], int]:
    """Lay out ``tensors`` back to back with aligned offsets.

    Returns ``(table, total_bytes)`` where each table row is
    ``(dtype_descr, shape, offset, nbytes)``.  The descr string comes
    from :func:`numpy.lib.format.dtype_to_descr`, the same stable
    encoding ``.npy`` files use.
    """
    table: list[tuple[str, tuple[int, ...], int, int]] = []
    offset = 0
    for tensor in tensors:
        offset = _aligned(offset)
        table.append(
            (
                np.lib.format.dtype_to_descr(tensor.dtype),
                tuple(tensor.shape),
                offset,
                tensor.nbytes,
            )
        )
        offset += tensor.nbytes
    return table, offset


def write_tensors(
    tensors: Sequence[np.ndarray],
    table: Sequence[tuple[str, tuple[int, ...], int, int]],
    buf,
) -> None:
    """Copy each tensor's bytes into ``buf`` at its table offset."""
    view = np.frombuffer(buf, dtype=np.uint8)
    for tensor, (_descr, _shape, offset, nbytes) in zip(tensors, table):
        view[offset : offset + nbytes] = np.frombuffer(
            tensor, dtype=np.uint8, count=nbytes
        )


def read_tensors(
    table: Sequence[tuple[str, tuple[int, ...], int, int]],
    buf,
    *,
    copy: bool,
) -> list[np.ndarray]:
    """Materialise the arrays a :func:`tensor_table` describes.

    With ``copy=False`` the arrays are read-only views into ``buf``
    (the caller must keep the buffer alive — e.g. the shared-memory
    segment); with ``copy=True`` they are private writable copies.
    """
    arrays: list[np.ndarray] = []
    for descr, shape, offset, nbytes in table:
        dtype = np.lib.format.descr_to_dtype(descr)
        array = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        if array.nbytes != nbytes:
            raise PersistenceError(
                f"tensor table mismatch: {shape} {descr} is "
                f"{array.nbytes} bytes, table says {nbytes}"
            )
        if copy:
            array = array.copy()
        else:
            array.flags.writeable = False
        arrays.append(array)
    return arrays


# ----------------------------------------------------------------------
# Atomic checksummed container (generic layer)
# ----------------------------------------------------------------------
def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp file, fsync, rename.

    A crash at any point leaves either the previous contents of ``path``
    or the complete new contents — never a torn prefix.  The temporary
    file lives in the target directory so the final ``os.replace`` is a
    same-filesystem rename.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Persist the rename itself (directory entry). Best-effort: some
    # filesystems refuse O_RDONLY opens of directories.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_bundle(obj: object, path: str | Path, *, kind: str) -> None:
    """Persist ``obj`` in the checksummed container, tagged ``kind``.

    The write is atomic (:func:`atomic_write_bytes`); the load side
    verifies the checksum and the ``kind`` tag before unpickling is
    trusted, so a truncated/corrupt file or a bundle of the wrong kind
    raises :class:`PersistenceError` instead of leaking garbage.
    """
    _write_checked(path, {"kind": kind, "format_version": FORMAT_VERSION}, obj)


def _write_checked(path: str | Path, header: dict, obj: object) -> None:
    """Pickle ``header`` plus ``obj`` as format-3 fields (skeleton
    pickle, tensor table, blob) and write it atomically behind the magic
    and its SHA-256 checksum."""
    skeleton, tensors = split_tensors(obj)
    table, total = tensor_table(tensors)
    blob = bytearray(total)
    write_tensors(tensors, table, blob)
    payload = pickle.dumps(
        header | {"skeleton": skeleton, "tensors": table, "blob": bytes(blob)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    checksum = hashlib.sha256(payload).digest()
    atomic_write_bytes(path, _MAGIC + checksum + payload)


def _join_payload(bundle: dict, path: str | Path) -> object:
    """Rebuild a format-3 payload (private, writable tensor copies)."""
    try:
        arrays = read_tensors(bundle["tensors"], bundle["blob"], copy=True)
        return join_tensors(bundle["skeleton"], arrays)
    except (KeyError, ValueError, pickle.UnpicklingError) as exc:
        raise PersistenceError(f"{path} has a torn tensor table: {exc}") from exc


def _check_version(version: object, path: str | Path) -> None:
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} was written with format {version}, "
            f"this library reads format {FORMAT_VERSION}"
        )


def load_bundle(path: str | Path, *, kind: str) -> object:
    """Load a :func:`save_bundle` artifact, verifying its ``kind``."""
    bundle = _read_checked(path)
    found = bundle.get("kind")
    if found != kind:
        raise PersistenceError(
            f"{path} is a {found!r} bundle, expected {kind!r}"
        )
    _check_version(bundle.get("format_version"), path)
    return _join_payload(bundle, path)


# ----------------------------------------------------------------------
# Estimator artifacts (built on the generic layer)
# ----------------------------------------------------------------------
def save_estimator(estimator: CardinalityEstimator, path: str | Path) -> ArtifactInfo:
    """Persist a *fitted* estimator; returns the stored metadata."""
    try:
        table = estimator.table
    except RuntimeError as exc:
        raise PersistenceError("only fitted estimators can be saved") from exc
    info = ArtifactInfo(
        format_version=FORMAT_VERSION,
        estimator_name=estimator.name,
        estimator_class=type(estimator).__qualname__,
        table_name=table.name,
        num_rows=table.num_rows,
    )
    _write_checked(path, {"info": info}, estimator)
    return info


def load_info(path: str | Path) -> ArtifactInfo:
    """Read only the metadata of an artifact."""
    return _load_estimator_bundle(path)["info"]


def load_estimator(path: str | Path) -> CardinalityEstimator:
    """Load a previously saved estimator, ready to answer queries."""
    bundle = _load_estimator_bundle(path)
    estimator = bundle["estimator"]
    if not isinstance(estimator, CardinalityEstimator):
        raise PersistenceError("artifact does not contain an estimator")
    return estimator


def _read_checked(path: str | Path) -> dict:
    """Magic + checksum + unpickle; the integrity layer shared by both
    estimator artifacts and generic bundles."""
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise PersistenceError(f"{path} is not a repro estimator artifact")
    body = data[len(_MAGIC):]
    if len(body) < _DIGEST_BYTES:
        raise PersistenceError(f"{path} is truncated (no checksum header)")
    checksum, payload = body[:_DIGEST_BYTES], body[_DIGEST_BYTES:]
    if hashlib.sha256(payload).digest() != checksum:
        raise PersistenceError(
            f"{path} failed its content checksum; the artifact is corrupted"
        )
    try:
        bundle = pickle.loads(payload)
    except Exception as exc:  # pickle raises many concrete types
        raise PersistenceError(f"could not unpickle {path}: {exc}") from exc
    if not isinstance(bundle, dict):
        raise PersistenceError(f"{path} does not contain a repro bundle")
    return bundle


def _load_estimator_bundle(path: str | Path) -> dict:
    bundle = _read_checked(path)
    info = bundle.get("info")
    if not isinstance(info, ArtifactInfo):
        raise PersistenceError(f"{path} has no artifact metadata")
    _check_version(info.format_version, path)
    bundle["estimator"] = _join_payload(bundle, path)
    return bundle
