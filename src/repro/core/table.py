"""Relation substrate: numpy-backed tables with column metadata.

A :class:`Table` is the ground-truth oracle of the benchmark.  Every
estimator is fit against a table, and the exact answer to a conjunctive
range query is computed here by vectorised predicate evaluation.

Values are stored as ``float64``.  Categorical columns hold integer codes
(0..k-1); numerical columns hold raw measurements.  This mirrors the
preprocessing used by the paper's released benchmark, which dictionary-
encodes categorical attributes before handing data to the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Column:
    """Metadata for one attribute of a relation.

    Attributes:
        name: Attribute name, used in SQL rendering and reports.
        is_categorical: If true, only equality predicates are generated
            for this column (paper Section 3, workload generator).
        distinct_values: Sorted unique values present in the column.
    """

    name: str
    is_categorical: bool
    distinct_values: np.ndarray = field(repr=False)

    @property
    def domain_min(self) -> float:
        return float(self.distinct_values[0])

    @property
    def domain_max(self) -> float:
        return float(self.distinct_values[-1])

    @property
    def domain_size(self) -> float:
        """Width of the value domain (max - min)."""
        return self.domain_max - self.domain_min

    @property
    def num_distinct(self) -> int:
        return int(len(self.distinct_values))


class Table:
    """An in-memory relation with exact query evaluation.

    Args:
        name: Relation name.
        data: 2-D array of shape ``(num_rows, num_columns)``.
        column_names: One name per column.
        categorical: Per-column flag; defaults to all-numerical.
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        column_names: list[str] | None = None,
        categorical: list[bool] | None = None,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"table data must be 2-D, got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("table must contain at least one row")
        if not np.all(np.isfinite(data)):
            raise ValueError("table data must be finite (no NaN/inf)")
        self.name = name
        self.data = data
        n_cols = data.shape[1]
        if column_names is None:
            column_names = [f"col{i}" for i in range(n_cols)]
        if len(column_names) != n_cols:
            raise ValueError("column_names length does not match data width")
        if categorical is None:
            categorical = [False] * n_cols
        if len(categorical) != n_cols:
            raise ValueError("categorical length does not match data width")
        self.columns = [
            Column(
                name=column_names[i],
                is_categorical=categorical[i],
                distinct_values=np.unique(data[:, i]),
            )
            for i in range(n_cols)
        ]

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.data.shape[1])

    @property
    def num_categorical(self) -> int:
        return sum(1 for c in self.columns if c.is_categorical)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @cached_property
    def domain_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Every column's ``domain_min`` and ``domain_max`` as two arrays."""
        return (
            np.array([c.domain_min for c in self.columns], dtype=np.float64),
            np.array([c.domain_max for c in self.columns], dtype=np.float64),
        )

    def column_index(self, name: str) -> int:
        """Return the position of the column called ``name``."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise KeyError(f"no column named {name!r} in table {self.name!r}")

    def log10_domain_product(self) -> float:
        """log10 of the joint-domain size (the "Domain" column of Table 3)."""
        counts = np.array([c.num_distinct for c in self.columns], dtype=np.float64)
        return float(np.sum(np.log10(counts)))

    def size_bytes(self) -> int:
        """In-memory size of the data payload, used for model-size budgets."""
        return int(self.data.nbytes)

    # ------------------------------------------------------------------
    # Query evaluation (ground truth)
    # ------------------------------------------------------------------
    def selection_mask(self, query: "Query") -> np.ndarray:  # noqa: F821
        """Boolean mask of rows satisfying every predicate of ``query``."""
        mask = np.ones(self.num_rows, dtype=bool)
        for pred in query.predicates:
            col = self.data[:, pred.column]
            if pred.lo is not None:
                mask &= col >= pred.lo
            if pred.hi is not None:
                mask &= col <= pred.hi
        return mask

    def cardinality(self, query: "Query") -> int:  # noqa: F821
        """Exact COUNT(*) answer for a conjunctive query."""
        return int(np.count_nonzero(self.selection_mask(query)))

    def cardinalities(self, queries: list["Query"]) -> np.ndarray:  # noqa: F821
        """Exact answers for a batch of queries."""
        return np.array([self.cardinality(q) for q in queries], dtype=np.float64)

    def selectivity(self, query: "Query") -> float:  # noqa: F821
        """Fraction of rows satisfying the query."""
        return self.cardinality(query) / self.num_rows

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def sample(self, fraction: float, rng: np.random.Generator) -> "Table":
        """Uniform random sample of rows as a new table (without replacement)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        n = max(1, int(round(self.num_rows * fraction)))
        idx = rng.choice(self.num_rows, size=n, replace=False)
        return Table(
            f"{self.name}_sample",
            self.data[idx],
            self.column_names,
            [c.is_categorical for c in self.columns],
        )

    def append_rows(self, rows: np.ndarray, name: str | None = None) -> "Table":
        """New table with ``rows`` appended (the dynamic-environment update)."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.num_columns:
            raise ValueError(
                f"appended rows must have shape (*, {self.num_columns}), got {rows.shape}"
            )
        return Table(
            name or self.name,
            np.vstack([self.data, rows]),
            self.column_names,
            [c.is_categorical for c in self.columns],
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, cols={self.num_columns}, "
            f"cat={self.num_categorical})"
        )
