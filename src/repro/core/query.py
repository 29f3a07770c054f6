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
        preds = [p for q in queries for p in q.predicates]
        n = len(preds)
        arity = np.array([len(q.predicates) for q in queries], dtype=np.int64)
        los = [p.lo for p in preds]
        his = [p.hi for p in preds]
        lo = [-math.inf if v is None else v for v in los]
        hi = [math.inf if v is None else v for v in his]
        return cls(
            arity=arity,
            query=np.repeat(np.arange(len(queries)), arity),
            column=np.fromiter([p.column for p in preds], np.int64, n),
            lo=np.fromiter(lo, np.float64, n),
            hi=np.fromiter(hi, np.float64, n),
            lo_open=np.fromiter([v is None for v in los], bool, n),
            hi_open=np.fromiter([v is None for v in his], bool, n),
        )

    @property
    def is_empty(self) -> np.ndarray:
        """:attr:`Predicate.is_empty` per predicate."""
        return self.lo > self.hi

    @property
    def is_equality(self) -> np.ndarray:
        """:attr:`Predicate.is_equality` per predicate."""
        return ~self.lo_open & ~self.hi_open & (self.lo == self.hi)
