"""Self-test of the benchmark: a tiny run of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
Each workload runs once untraced and once traced at ``ci`` scale
(``REPRO_SCALE=ci``) for a second; every metric ``BENCHMARK.json``
names must be printed with its unit and be finite, and no served answer
may fail a check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        env={**os.environ, "REPRO_SCALE": "ci"},
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(
        ROOT,
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in expected}
    for metric in expected:
        value = printed[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(value["value"]), metric["name"]
    if trace == 1:
        assert printed["error_share"]["value"] == 0.0
        assert printed["trace.reconciled"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
