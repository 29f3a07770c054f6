"""Property tests: the bound sketch's upper bound is *provable*.

The whole value of :class:`repro.guard.BoundSketch` is the inequality

    upper_bound(q)  >=  true cardinality of q

holding for every query — including out-of-distribution ones and
queries against an updated table.  These tests hammer that invariant
with 1000+ seeded generated cases across exact-mode, bucket-mode and
real-data tables; a single violation is a soundness bug, not noise.
"""

import numpy as np
import pytest

from repro.core import Table, generate_workload
from repro.core.workload import WorkloadConfig
from repro.datasets import census, generate_synthetic
from repro.datasets.updates import apply_update
from repro.guard import BoundSketch

#: queries per (table, phase) cell; 3 tables x 2 phases x 200 = 1200 cases
CASES_PER_CELL = 200

#: every query style, with a heavy OOD share — the bound must hold
#: exactly where the learned models break
CONFIG = WorkloadConfig(ood_probability=0.5)


def exact_mode_table() -> Table:
    """Low-cardinality columns: every ColumnBound stays exact."""
    rng = np.random.default_rng(7)
    return generate_synthetic(2000, skew=1.2, correlation=0.6, domain_size=20, rng=rng)


def bucket_mode_table() -> Table:
    """Continuous columns force the equi-depth bucket mode."""
    rng = np.random.default_rng(11)
    data = np.column_stack(
        [
            rng.normal(0.0, 5.0, size=6000),
            rng.exponential(3.0, size=6000),
            rng.uniform(-100.0, 100.0, size=6000),
        ]
    )
    return Table("continuous", data, ["n", "e", "u"])


def census_table() -> Table:
    return census(num_rows=2500)


TABLES = {
    "exact": exact_mode_table,
    "bucket": bucket_mode_table,
    "census": census_table,
}


def _seed(kind: str) -> int:
    # str hash() is salted per process; this is stable across runs.
    return int.from_bytes(kind.encode(), "little") % (2**31)


def assert_sound(sketch: BoundSketch, table: Table, workload) -> None:
    uppers = np.array([sketch.upper_bound(q) for q in workload.queries])
    actuals = np.asarray(workload.cardinalities, dtype=np.float64)
    violations = np.flatnonzero(uppers < actuals)
    assert violations.size == 0, (
        f"{violations.size} bound violations; first: "
        f"query={workload.queries[violations[0]]!r} "
        f"upper={uppers[violations[0]]} actual={actuals[violations[0]]}"
    )
    # The bound is also never vacuous: it may not exceed the table size.
    assert np.all(uppers <= table.num_rows)


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_upper_bound_holds_for_generated_queries(kind):
    table = TABLES[kind]()
    sketch = BoundSketch(table, max_exact=64 if kind == "bucket" else 4096)
    if kind == "bucket":
        assert any(not c.exact for c in sketch._columns)
    rng = np.random.default_rng(_seed(kind))
    workload = generate_workload(table, CASES_PER_CELL, rng, CONFIG)
    assert_sound(sketch, table, workload)


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_upper_bound_holds_after_update(kind):
    table = TABLES[kind]()
    sketch = BoundSketch(table, max_exact=64 if kind == "bucket" else 4096)
    rng = np.random.default_rng(_seed(kind) + 1)
    new_table, appended = apply_update(table, rng, fraction=0.3)
    sketch.update(new_table, appended)
    workload = generate_workload(new_table, CASES_PER_CELL, rng, CONFIG)
    assert_sound(sketch, new_table, workload)


def test_bound_stays_sound_across_repeated_updates():
    """Soundness survives *cumulative* folds, not just one."""
    table = exact_mode_table()
    sketch = BoundSketch(table)
    rng = np.random.default_rng(42)
    for _ in range(3):
        table, appended = apply_update(table, rng, fraction=0.2)
        sketch.update(table, appended)
    workload = generate_workload(table, 100, rng, CONFIG)
    assert_sound(sketch, table, workload)


# ----------------------------------------------------------------------
# Batch forms equal the scalar forms
# ----------------------------------------------------------------------
def edge_bound_queries(table: Table, rng, count: int) -> list:
    """Queries whose bounds mix None, +-inf, NaN, empty and plain values."""
    from repro.core import Predicate, Query

    lows = table.data.min(axis=0)
    highs = table.data.max(axis=0)
    specials = [None, -np.inf, np.inf, float("nan")]
    queries = []
    for _ in range(count):
        size = rng.integers(1, table.num_columns + 1)
        cols = rng.choice(table.num_columns, size=size, replace=False)
        preds = []
        for c in sorted(cols.tolist()):
            span = highs[c] - lows[c]
            a, b = sorted(rng.uniform(lows[c] - 0.2 * span, highs[c] + 0.2 * span, 2))
            kind = rng.integers(5)
            if kind == 0:
                lo, hi = a, b
            elif kind == 1:
                lo, hi = b + 1.0, a  # empty
            elif kind == 2:
                lo = hi = float(table.data[rng.integers(table.num_rows), c])
            else:
                lo = specials[rng.integers(4)] if rng.random() < 0.7 else a
                hi = specials[rng.integers(4)] if rng.random() < 0.7 else b
                if lo is None and hi is None:
                    hi = b
            preds.append(Predicate(c, lo, hi))
        queries.append(Query(tuple(preds)))
    return queries


def batch_cases(table: Table, rng) -> list:
    generated = list(generate_workload(table, 96, rng, CONFIG).queries)
    return generated + edge_bound_queries(table, rng, 96)


def assert_batch_matches_scalar(sketch: BoundSketch, queries) -> None:
    # Size 1 too: a scalar serve is a batch of one.
    for size in (64, 1):
        for start in range(0, len(queries), size):
            batch = queries[start : start + size]
            scalar = np.array([sketch.upper_bound(q) for q in batch])
            np.testing.assert_array_equal(sketch.upper_bounds(batch), scalar)
    assert sketch.upper_bounds([]).shape == (0,)


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_upper_bounds_batch_equals_scalar(kind):
    table = TABLES[kind]()
    sketch = BoundSketch(table, max_exact=64 if kind == "bucket" else 4096)
    rng = np.random.default_rng(_seed(kind) + 2)
    assert_batch_matches_scalar(sketch, batch_cases(table, rng))
    for _ in range(2):
        table, appended = apply_update(table, rng, fraction=0.2)
        sketch.update(table, appended)
        assert_batch_matches_scalar(sketch, batch_cases(table, rng))


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_ood_batch_scores_equal_scalar(kind):
    from repro.guard import DomainSnapshot, OodDetector

    table = TABLES[kind]()
    rng = np.random.default_rng(_seed(kind) + 3)
    training = generate_workload(table, 100, rng)
    for workload in (training, None):
        detector = OodDetector(DomainSnapshot.capture(table, workload))
        queries = batch_cases(table, rng)
        scalar = [detector.score(q).score for q in queries]
        batch = detector.scores(queries)
        np.testing.assert_array_equal(batch, scalar)
        # Size-1 batches too: a scalar serve is a batch of one.
        singles = np.concatenate([detector.scores([q]) for q in queries])
        np.testing.assert_array_equal(singles, scalar)
        assert (batch > detector.threshold).tolist() == [
            detector.is_ood(q) for q in queries
        ]
        assert any(batch > detector.threshold) and not all(batch > detector.threshold)
    assert detector.scores([]).shape == (0,)
