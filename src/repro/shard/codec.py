"""Binary frame codec for query batches and result arrays.

A forked worker pool moves every query batch and every result through a
:class:`~repro.shard.shm.ShmRing` slot as a struct-framed byte layout
instead of a pickle.  The duplex pipes carry only fixed-size control
tuples (op, request id, slot index, frame length) — see
:mod:`repro.shard.supervisor`.

Request frame (little-endian, offsets computed identically on both
sides from the header counts)::

    header   u32 magic | u32 n_queries | u32 n_preds | u32 flags
    trace    2 × u64                       (when flags & TRACE)
    counts   u32[n_queries]                predicates per query
    cols     u32[n_preds]                  column ids, query-major
    pflags   u8[n_preds]                   bit0 = lo bound present,
                                           bit1 = hi bound present
    (pad to 8)
    los      f64[n_preds]                  0.0 placeholder when absent
    his      f64[n_preds]

Bounds travel as raw IEEE doubles behind presence bits, so open-sided
predicates, NaN and ±inf all round-trip exactly — forked answers are
bit-identical to in-process ones.

Result frame::

    header     u32 magic | u32 n | u32 flags | u32 reserved
    codes      u8[n]                         0 = OK per estimate
    (pad to 8)
    estimates  f64[n]                        raw doubles (NaN/inf exact)

The request frame is already columnar, so :func:`unpack_queries`
decodes it straight into :class:`~repro.core.query.PredicateArrays`
(copied out of the slot, which the result frame overwrites) and returns
a :class:`~repro.core.query.QueryBatch` that builds :class:`Query`
objects only if a caller reads one.  The batch kernels take the arrays
as they are, so a worker answers without a per-predicate Python loop.
Decoding checks what :class:`Query` would check and raises
:class:`CodecError` for a query without predicates, a column repeated
inside a query, or a predicate without a bound.

A batch that does not fit its slot raises :class:`CodecOverflow`; the
supervisor counts it and leaves the batch to the shard's in-process
fallback chain.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

import numpy as np

from ..core.query import PredicateArrays, Query, QueryBatch

__all__ = [
    "CodecError",
    "CodecOverflow",
    "OUTCOME_OK",
    "OUTCOME_ERROR",
    "pack_queries",
    "unpack_queries",
    "pack_results",
    "unpack_results",
]


class CodecError(RuntimeError):
    """A frame could not be encoded or decoded."""


class CodecOverflow(CodecError):
    """The frame does not fit the slot buffer."""


_REQ_MAGIC = 0x51524551  # "QREQ"
_RES_MAGIC = 0x53525351  # "QSRS"
_HEADER = struct.Struct("<IIII")
_TRACE = struct.Struct("<QQ")

_F_TRACE = 1 << 0
_F_PARENT = 1 << 1  # the trace's parent-span half is present (not None)

_LO_PRESENT = 1
_HI_PRESENT = 2

#: Per-estimate outcome codes in the result frame.
OUTCOME_OK = 0
OUTCOME_ERROR = 1

_U64_MAX = 2**64 - 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _query_rows(query: Query) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-query column/flag/bound rows, memoized on the Query object.

    Queries are immutable and reused heavily across batches (replay
    streams tile a fixed workload), so the ndarray encoding is computed
    once per query — mirroring ``serve.cache.query_signature``.
    """
    rows = getattr(query, "_codec_rows", None)
    if rows is None:
        preds = query.predicates
        k = len(preds)
        cols = np.empty(k, dtype=np.uint32)
        flags = np.zeros(k, dtype=np.uint8)
        los = np.zeros(k, dtype=np.float64)
        his = np.zeros(k, dtype=np.float64)
        for i, pred in enumerate(preds):
            cols[i] = pred.column
            if pred.lo is not None:
                flags[i] |= _LO_PRESENT
                los[i] = pred.lo
            if pred.hi is not None:
                flags[i] |= _HI_PRESENT
                his[i] = pred.hi
        rows = (cols, flags, los, his)
        object.__setattr__(query, "_codec_rows", rows)
    return rows


def pack_queries(
    queries: Sequence[Query],
    buf,
    *,
    trace_ctx: tuple[int, int | None] | None = None,
) -> int:
    """Encode a query batch into ``buf``; returns the frame length.

    Raises :class:`CodecOverflow` when the frame exceeds ``len(buf)``.
    """
    n = len(queries)
    rows = [_query_rows(q) for q in queries]
    counts = np.fromiter((r[0].size for r in rows), np.uint32, count=n)
    p = int(counts.sum())

    flags = 0
    if trace_ctx is not None:
        trace_id, parent = trace_ctx
        if not (0 <= trace_id <= _U64_MAX) or (
            parent is not None and not (0 <= parent <= _U64_MAX)
        ):
            raise CodecError(f"trace context {trace_ctx!r} does not fit u64")
        flags |= _F_TRACE
        if parent is not None:
            flags |= _F_PARENT

    offset = _HEADER.size
    if flags & _F_TRACE:
        trace_off = offset
        offset += _TRACE.size
    counts_off = offset
    offset += 4 * n
    cols_off = offset
    offset += 4 * p
    pflags_off = offset
    offset = _align8(offset + p)
    los_off = offset
    offset += 8 * p
    his_off = offset
    total = offset + 8 * p
    if total > len(buf):
        raise CodecOverflow(f"frame needs {total} bytes, slot has {len(buf)}")

    view = np.frombuffer(buf, dtype=np.uint8, count=total)
    _HEADER.pack_into(buf, 0, _REQ_MAGIC, n, p, flags)
    if flags & _F_TRACE:
        trace_id, parent = trace_ctx
        _TRACE.pack_into(buf, trace_off, trace_id, parent or 0)
    view[counts_off : counts_off + 4 * n] = counts.view(np.uint8)
    if p:
        cols = np.concatenate([r[0] for r in rows])
        pflags = np.concatenate([r[1] for r in rows])
        los = np.concatenate([r[2] for r in rows])
        his = np.concatenate([r[3] for r in rows])
        view[cols_off : cols_off + 4 * p] = cols.view(np.uint8)
        view[pflags_off : pflags_off + p] = pflags
        view[los_off : los_off + 8 * p] = los.view(np.uint8)
        view[his_off : his_off + 8 * p] = his.view(np.uint8)
    return total


def unpack_queries(buf) -> tuple[QueryBatch, tuple[int, int | None] | None]:
    """Decode a :func:`pack_queries` frame: (queries, trace_ctx).

    The queries come back as a columnar :class:`QueryBatch`; no
    :class:`Query` is built unless a caller reads one.  A frame that
    describes an invalid query raises :class:`CodecError`.
    """
    if len(buf) < _HEADER.size:
        raise CodecError("request frame shorter than its header")
    magic, n, p, flags = _HEADER.unpack_from(buf, 0)
    if magic != _REQ_MAGIC:
        raise CodecError(f"bad request magic {magic:#x}")

    offset = _HEADER.size
    trace_ctx: tuple[int, int | None] | None = None
    if flags & _F_TRACE:
        trace_id, parent = _TRACE.unpack_from(buf, offset)
        trace_ctx = (trace_id, parent if flags & _F_PARENT else None)
        offset += _TRACE.size
    counts = np.frombuffer(buf, dtype=np.uint32, count=n, offset=offset)
    offset += 4 * n
    cols = np.frombuffer(buf, dtype=np.uint32, count=p, offset=offset)
    offset += 4 * p
    pflags = np.frombuffer(buf, dtype=np.uint8, count=p, offset=offset)
    offset = _align8(offset + p)
    los = np.frombuffer(buf, dtype=np.float64, count=p, offset=offset)
    offset += 8 * p
    his = np.frombuffer(buf, dtype=np.float64, count=p, offset=offset)
    if int(counts.sum()) != p:
        raise CodecError("predicate counts do not sum to the frame total")
    return QueryBatch(_predicate_arrays(counts, cols, pflags, los, his)), trace_ctx


def _predicate_arrays(counts, cols, pflags, los, his) -> PredicateArrays:
    """The frame's columns as :class:`PredicateArrays`, copied out of
    ``buf`` (the result frame overwrites the slot).

    Checks what :class:`Query` and :class:`Predicate` would: a query has
    at least one predicate, no column repeats inside a query, and a
    predicate bounds at least one side.
    """
    if not counts.all():
        raise CodecError("request frame holds a query with no predicates")
    lo_open = (pflags & _LO_PRESENT) == 0
    hi_open = (pflags & _HI_PRESENT) == 0
    if (lo_open & hi_open).any():
        raise CodecError("request frame holds a predicate with no bound")
    arity = counts.astype(np.int64)
    query = np.repeat(np.arange(arity.size), arity)
    column = cols.astype(np.int64)
    keys = np.sort((query << 32) | column)
    if (keys[1:] == keys[:-1]).any():
        raise CodecError("request frame repeats a column inside a query")
    return PredicateArrays(
        arity=arity,
        query=query,
        column=column,
        lo=np.where(lo_open, -np.inf, los),
        hi=np.where(hi_open, np.inf, his),
        lo_open=lo_open,
        hi_open=hi_open,
    )


def pack_results(estimates, codes, buf) -> int:
    """Encode an estimates/outcome-codes pair; returns the frame length."""
    values = np.ascontiguousarray(estimates, dtype=np.float64)
    outcome = np.ascontiguousarray(codes, dtype=np.uint8)
    if values.ndim != 1 or outcome.shape != values.shape:
        raise CodecError("estimates and codes must be matching 1-d arrays")
    n = values.size
    codes_off = _HEADER.size
    values_off = _align8(codes_off + n)
    total = values_off + 8 * n
    if total > len(buf):
        raise CodecOverflow(f"frame needs {total} bytes, slot has {len(buf)}")
    view = np.frombuffer(buf, dtype=np.uint8, count=total)
    _HEADER.pack_into(buf, 0, _RES_MAGIC, n, 0, 0)
    view[codes_off : codes_off + n] = outcome
    view[values_off : values_off + 8 * n] = values.view(np.uint8)
    return total


def unpack_results(buf, *, copy: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Decode a :func:`pack_results` frame: (estimates, codes).

    ``copy=True`` (the default) detaches the arrays from ``buf`` so the
    ring slot can be released immediately after decoding.
    """
    if len(buf) < _HEADER.size:
        raise CodecError("result frame shorter than its header")
    magic, n, _flags, _reserved = _HEADER.unpack_from(buf, 0)
    if magic != _RES_MAGIC:
        raise CodecError(f"bad result magic {magic:#x}")
    codes_off = _HEADER.size
    values_off = _align8(codes_off + n)
    codes = np.frombuffer(buf, dtype=np.uint8, count=n, offset=codes_off)
    values = np.frombuffer(buf, dtype=np.float64, count=n, offset=values_off)
    if copy:
        return values.copy(), codes.copy()
    return values, codes
