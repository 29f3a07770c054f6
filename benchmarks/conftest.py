"""Benchmark harness configuration.

Each paper file (marker ``paper``; run them with ``python -m pytest
benchmarks -m paper``) regenerates one table or figure of the paper and
benchmarks the representative hot path (usually inference) with
pytest-benchmark.  Their formatted tables are written to
``benchmarks/results/<experiment>.txt`` so a ``--benchmark-only`` run
leaves the regenerated evaluation on disk.  The other files gate the
serving stack's committed ``BENCH_*.json`` baselines.

Scale is controlled by ``$REPRO_SCALE`` (default: ``ci`` here, so the
whole suite completes in minutes on one CPU; use ``default`` or
``paper`` for higher fidelity).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import BenchContext
from repro.scale import Scale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return BenchContext(Scale.from_environment(fallback="ci"), seed=42)


def _recorder(directory: Path):
    directory.mkdir(exist_ok=True)

    def _record(experiment: str, text: str) -> None:
        path = directory / f"{experiment}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture(scope="session")
def record_result():
    """Write one experiment's formatted table to the results directory."""
    return _recorder(RESULTS_DIR)


@pytest.fixture(scope="session")
def record_scratch(tmp_path_factory):
    """Write a table to a scratch directory instead.

    For the serving gates: their committed tables are regenerated at
    default scale (``python -m repro.bench <experiment>``), never as a
    side effect of a ci-scale test run.
    """
    return _recorder(tmp_path_factory.mktemp("results"))
