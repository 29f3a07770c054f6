"""Estimate guardrails under adversarial faults (see repro.guard).

Two layers of checking:

* a **live run** of the guard experiment at the session scale, asserting
  the qualitative invariants (full availability, bounded worst case, a
  completed quarantine cycle) on fresh numbers;
* the **committed baseline** ``guard`` section of ``BENCH_serve.json``
  (regenerated at ``default`` scale via ``python -m repro.bench
  guard``), validated against the issue's acceptance bars so a stale or
  hand-edited artifact fails CI.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.guard_exp import (
    ACCEPTANCE_AVAILABILITY,
    ACCEPTANCE_IMPROVEMENT,
    ACCEPTANCE_OVERHEAD,
    format_guard,
    run_guard_bench,
)
from repro.core import generate_workload
from repro.guard import BoundSketch

REPO_ROOT = Path(__file__).parent.parent
BASELINE = REPO_ROOT / "BENCH_serve.json"

EXPECTED_SCENARIOS = {"correlated-shift", "ood-shift", "update-skew"}


@pytest.fixture(scope="module")
def result(ctx, record_scratch):
    out = run_guard_bench(ctx, replay=96)
    record_scratch("guard", format_guard(out))
    return out


def test_scenarios_are_complete(result):
    assert {s.scenario for s in result.scenarios} == EXPECTED_SCENARIOS


def test_every_scenario_fully_available(result):
    for s in result.scenarios:
        assert s.availability == 1.0, s.scenario


def test_guard_never_makes_the_worst_case_worse(result):
    for s in result.scenarios:
        assert s.worst_q_on <= s.worst_q_off, s.scenario
    assert result.worst_case_improvement >= 1.0


def test_bounds_fired_under_correlated_shift(result):
    shift = next(s for s in result.scenarios if s.scenario == "correlated-shift")
    assert shift.clamped > 0
    assert shift.improvement > 1.0


def test_ood_queries_were_rerouted(result):
    ood = next(s for s in result.scenarios if s.scenario == "ood-shift")
    assert ood.ood_rerouted > 0


def test_quarantine_cycle_completed(result):
    cycle = result.quarantine
    assert cycle.demotions >= 1
    assert cycle.demoted_after > 0
    assert cycle.readmissions >= 1
    assert cycle.final_state == "healthy"


def test_clamp_hot_path_benchmark(ctx, benchmark):
    """The guard's per-query cost: one bounds lookup + clamp."""
    table = ctx.table("census")
    sketch = BoundSketch(table)
    queries = list(
        generate_workload(table, 64, np.random.default_rng(ctx.seed)).queries
    )

    def clamp_all():
        return [min(1e9, sketch.upper_bound(q)) for q in queries]

    uppers = benchmark(clamp_all)
    assert all(0.0 <= u <= table.num_rows for u in uppers)


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def payload(self):
        assert BASELINE.exists(), "run `python -m repro.bench guard` to regenerate"
        data = json.loads(BASELINE.read_text())
        assert "guard" in data, "run `python -m repro.bench guard` to regenerate"
        return data

    def test_schema(self, payload):
        guard = payload["guard"]
        for key in (
            "method",
            "dataset",
            "scale",
            "seed",
            "acceptance",
            "worst_case_improvement",
            "availability",
            "p50_off_us",
            "p50_on_us",
            "p50_overhead_fraction",
            "scenarios",
            "quarantine",
        ):
            assert key in guard, key
        assert guard["scale"] in ("default", "paper")
        assert set(guard["scenarios"]) == EXPECTED_SCENARIOS

    def test_worst_case_improvement_floor(self, payload):
        guard = payload["guard"]
        assert guard["acceptance"]["improvement_floor"] == ACCEPTANCE_IMPROVEMENT
        assert guard["worst_case_improvement"] >= ACCEPTANCE_IMPROVEMENT

    def test_availability_floor(self, payload):
        guard = payload["guard"]
        assert guard["availability"] >= ACCEPTANCE_AVAILABILITY
        for name, s in guard["scenarios"].items():
            assert s["availability"] == 1.0, name

    def test_overhead_ceiling(self, payload):
        guard = payload["guard"]
        assert guard["acceptance"]["overhead_ceiling"] == ACCEPTANCE_OVERHEAD
        assert guard["p50_overhead_fraction"] < ACCEPTANCE_OVERHEAD

    def test_quarantine_cycle_recorded(self, payload):
        cycle = payload["guard"]["quarantine"]
        assert cycle["demotions"] >= 1
        assert cycle["readmissions"] >= 1
        assert cycle["final_state"] == "healthy"

    def test_guard_is_the_only_section(self, payload):
        # The guard experiment is the file's one writer and writes it
        # whole: no stale section of a deleted experiment survives.
        assert set(payload) == {"guard"}
