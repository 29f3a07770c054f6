"""Conjunctive range queries over a single table.

The paper (Section 2.1) considers queries of the form::

    SELECT COUNT(*) FROM R WHERE theta_1 AND ... AND theta_d

where each predicate is an equality (``A = a``), an open range
(``A <= a`` / ``A >= a``) or a closed range (``a <= A <= b``).  A
:class:`Predicate` captures all three with an optional lower/upper bound;
a :class:`Query` is a conjunction of predicates over distinct columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .table import Table


@dataclass(frozen=True)
class Predicate:
    """One bound interval on one column.

    ``lo``/``hi`` of ``None`` denote an unbounded side (open range).
    ``lo == hi`` denotes an equality predicate.  ``lo > hi`` is permitted:
    it is the "invalid predicate" probed by the Fidelity-B rule and
    matches nothing.
    """

    column: int
    lo: float | None
    hi: float | None

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ValueError("predicate must bound at least one side")

    @property
    def is_equality(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_open(self) -> bool:
        """True when only one side is bounded."""
        return self.lo is None or self.hi is None

    @property
    def is_empty(self) -> bool:
        """True for contradictory predicates like ``100 <= A <= 10``."""
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def contains(self, other: "Predicate") -> bool:
        """True when this interval contains ``other`` (same column)."""
        if self.column != other.column:
            return False
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def render(self, column_name: str) -> str:
        if self.is_equality:
            return f"{column_name} = {self.lo:g}"
        if self.lo is None:
            return f"{column_name} <= {self.hi:g}"
        if self.hi is None:
            return f"{column_name} >= {self.lo:g}"
        return f"{self.lo:g} <= {column_name} <= {self.hi:g}"


@dataclass(frozen=True)
class Query:
    """A conjunction of predicates over distinct columns."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        cols = [p.column for p in self.predicates]
        if len(cols) != len(set(cols)):
            raise ValueError("each column may appear in at most one predicate")
        if not self.predicates:
            raise ValueError("query must have at least one predicate")

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(p.column for p in self.predicates)

    def predicate_on(self, column: int) -> Predicate | None:
        """Return the predicate on ``column``, or None if unconstrained."""
        for p in self.predicates:
            if p.column == column:
                return p
        return None

    def to_sql(self, table: Table) -> str:
        """Human-readable SQL rendering of the query."""
        clauses = " AND ".join(
            p.render(table.columns[p.column].name) for p in self.predicates
        )
        return f"SELECT COUNT(*) FROM {table.name} WHERE {clauses}"

    def replace(self, column: int, predicate: Predicate) -> "Query":
        """New query with the predicate on ``column`` swapped out."""
        preds = tuple(
            predicate if p.column == column else p for p in self.predicates
        )
        return Query(preds)

    # Codec rows and cache signatures are memoized in the instance dict;
    # a pickle carries only the value, and copies share the (immutable)
    # instance, as tuples do.
    def __getstate__(self) -> dict:
        return {"predicates": self.predicates}

    def __copy__(self) -> "Query":
        return self

    def __deepcopy__(self, memo) -> "Query":
        return self


def closed_range(column: int, lo: float, hi: float) -> Predicate:
    """Convenience constructor for ``lo <= A <= hi``."""
    return Predicate(column, lo, hi)


def equality(column: int, value: float) -> Predicate:
    """Convenience constructor for ``A = value``."""
    return Predicate(column, value, value)


def query_of(*predicates: Predicate) -> Query:
    """Build a query from predicates given in any order."""
    return Query(tuple(predicates))


@dataclass(frozen=True)
class PredicateArrays:
    """Every predicate of a query batch as flat arrays, query-major.

    Predicate ``k`` belongs to query ``query[k]``; a query's predicates
    are contiguous and keep their order.  An open side reads ``-inf`` in
    ``lo`` or ``inf`` in ``hi`` and is flagged in ``lo_open``/``hi_open``
    (an infinite bound given by the caller is not open).
    """

    arity: np.ndarray
    query: np.ndarray
    column: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_open: np.ndarray
    hi_open: np.ndarray

    @classmethod
    def of(cls, queries: Sequence[Query]) -> "PredicateArrays":
        """The batch's arrays; a :class:`QueryBatch` returns its own."""
        if isinstance(queries, QueryBatch):
            return queries.arrays
        preds = [p for q in queries for p in q.predicates]
        n = len(preds)
        arity = np.array([len(q.predicates) for q in queries], dtype=np.int64)
        los = [p.lo for p in preds]
        his = [p.hi for p in preds]
        lo = [-math.inf if v is None else v for v in los]
        hi = [math.inf if v is None else v for v in his]
        return cls(
            arity=arity,
            query=np.arange(len(queries)).repeat(arity),
            column=np.fromiter([p.column for p in preds], np.int64, n),
            lo=np.fromiter(lo, np.float64, n),
            hi=np.fromiter(hi, np.float64, n),
            lo_open=np.fromiter([v is None for v in los], bool, n),
            hi_open=np.fromiter([v is None for v in his], bool, n),
        )

    def take(self, positions: Sequence[int]) -> "PredicateArrays":
        """The arrays of the queries at ``positions``, in that order
        (equal to :meth:`of` of those queries)."""
        positions = np.asarray(positions, dtype=np.int64)
        arity = self.arity[positions]
        starts = (np.cumsum(self.arity) - self.arity)[positions]
        # Each picked query's predicates are the run at its start: shift
        # the run offsets of the new layout onto the old ones.
        rows = np.repeat(starts - (np.cumsum(arity) - arity), arity) + np.arange(
            int(arity.sum())
        )
        return PredicateArrays(
            arity=arity,
            query=np.arange(len(positions)).repeat(arity),
            column=self.column[rows],
            lo=self.lo[rows],
            hi=self.hi[rows],
            lo_open=self.lo_open[rows],
            hi_open=self.hi_open[rows],
        )

    @property
    def is_empty(self) -> np.ndarray:
        """:attr:`Predicate.is_empty` per predicate."""
        return self.lo > self.hi

    @property
    def is_equality(self) -> np.ndarray:
        """:attr:`Predicate.is_equality` per predicate."""
        return ~self.lo_open & ~self.hi_open & (self.lo == self.hi)


class QueryBatch(Sequence):
    """A read-only query batch that holds its :class:`Query` objects,
    its :class:`PredicateArrays`, or both, and builds the missing form
    on first use (then keeps it).

    The batch kernels read the arrays (:meth:`PredicateArrays.of`
    returns them as they are), so a batch decoded from a shard request
    frame reaches an estimator without building a :class:`Query`, and a
    batch wrapped once by :meth:`of` builds its arrays once however many
    kernels read them; :meth:`take` hands a sub-batch the rows of both.
    The batch compares equal to the list of its queries.  Arrays must
    describe valid queries: every query has a predicate, no column
    repeats inside a query, and every predicate bounds a side.
    """

    __slots__ = ("_arrays", "_queries")

    def __init__(self, arrays: PredicateArrays) -> None:
        self._arrays: PredicateArrays | None = arrays
        self._queries: list[Query] | None = None

    @classmethod
    def of(cls, queries: Sequence[Query]) -> "QueryBatch":
        """``queries`` as a batch; the arrays are built on first use."""
        batch = cls.__new__(cls)
        batch._arrays = None
        batch._queries = list(queries)
        return batch

    @property
    def arrays(self) -> PredicateArrays:
        if self._arrays is None:
            self._arrays = PredicateArrays.of(self._queries)
        return self._arrays

    @property
    def materialized(self) -> bool:
        """True once the :class:`Query` objects have been built."""
        return self._queries is not None

    def take(self, positions: Sequence[int]) -> "QueryBatch":
        """The queries at ``positions``, in that order, as a batch that
        reuses this one's work: built arrays are sliced, not rebuilt."""
        sub = QueryBatch.__new__(QueryBatch)
        sub._queries = (
            None if self._queries is None else [self._queries[i] for i in positions]
        )
        sub._arrays = None if self._arrays is None else self._arrays.take(positions)
        return sub

    def _materialize(self) -> list[Query]:
        if self._queries is None:
            a = self.arrays
            los = [
                None if open_ else v
                for v, open_ in zip(a.lo.tolist(), a.lo_open.tolist())
            ]
            his = [
                None if open_ else v
                for v, open_ in zip(a.hi.tolist(), a.hi_open.tolist())
            ]
            preds = list(map(Predicate, a.column.tolist(), los, his))
            queries = []
            start = 0
            for end in np.cumsum(a.arity).tolist():
                queries.append(Query(tuple(preds[start:end])))
                start = end
            self._queries = queries
        return self._queries

    def __len__(self) -> int:
        if self._queries is not None:
            return len(self._queries)
        return len(self._arrays.arity)

    def __getitem__(self, index):
        queries = self._queries
        return (self._materialize() if queries is None else queries)[index]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, QueryBatch):
            other = other._materialize()
        if not isinstance(other, list):
            return NotImplemented
        return self._materialize() == other

    __hash__ = None

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "columnar"
        return f"QueryBatch({len(self)} queries, {state})"
