"""Sharded serving at scale: the chaos matrix (see repro.shard).

Two layers of checking:

* a **live run** of the scale experiment at the session scale, asserting
  the availability invariant and bit-identity on fresh numbers;
* the **committed baseline** ``BENCH_serve.json`` (regenerated at
  ``default`` scale via ``python -m repro.bench scale``), validated for
  schema and invariants so a stale or hand-edited artifact fails CI.

Speedup floors only apply where parallelism is physically possible: they
are gated on the ``cpu_count`` recorded *in the artifact*, so a baseline
produced on a 1-CPU container documents throughput without pretending
fork beats in-process serving there.
"""

import json
from pathlib import Path

import pytest

from repro.bench.scale_exp import (
    default_chaos_matrix,
    run_chaos_scenario,
    scale_experiment,
)

REPO_ROOT = Path(__file__).parent.parent
BASELINE = REPO_ROOT / "BENCH_serve.json"

#: the no-fault baseline plus the eight chaos scenarios
EXPECTED_SCENARIOS = {
    "no-fault",
    "worker-crash",
    "worker-hang",
    "slow-worker",
    "queue-flood",
    "model-corruption",
    "rolling-swap-failure",
    "budget-exhaustion",
    "slo-breach",
}


@pytest.fixture(scope="module")
def results(ctx, tmp_path_factory):
    # The live run's JSON and table go to a scratch dir: the committed
    # BENCH_serve.json and results/scale_serving.txt are regenerated
    # deliberately (at default scale, ``python -m repro.bench scale``),
    # not as a side effect of a ci-scale benchmark run.
    scratch = tmp_path_factory.mktemp("scale_serving")
    out = scale_experiment(
        ctx,
        json_path=scratch / "BENCH_serve.json",
        text_path=scratch / "scale_serving.txt",
    )
    return {r.scenario: r for r in out}


def test_chaos_matrix_is_complete(results):
    assert set(results) == EXPECTED_SCENARIOS


def test_every_scenario_fully_available(results):
    """The acceptance bar: crash, hang, flood or corruption, every
    request still gets a finite in-bounds answer."""
    for r in results.values():
        assert r.availability == 1.0, r.scenario
        assert r.worker_served + r.fallback_served + r.shed == r.queries, r.scenario


def test_no_fault_is_bit_identical_to_serial(results):
    r = results["no-fault"]
    assert r.bit_identical is True
    assert r.shed == 0
    assert r.fallback_served == 0


def test_faults_leave_their_fingerprints(results):
    # Only fingerprints that are deterministic at any replay size; the
    # probabilistic ones (crash restarts at p=5e-5) are asserted on the
    # committed default-scale baseline below.
    assert results["queue-flood"].shed > 0
    assert set(results["queue-flood"].shed_reasons) <= {
        "capacity",
        "quota",
        "deadline",
    }
    assert results["model-corruption"].fallback_served > 0
    exhausted = results["budget-exhaustion"]
    assert exhausted.exhausted_shards > 0
    assert exhausted.fallback_mode_shards > 0


def test_rolling_swap_covers_all_outcomes(results):
    outcomes = results["rolling-swap-failure"].swap_outcomes
    assert outcomes == ("rejected", "rolled_back", "promoted")


def test_telemetry_counter_sum_matches_every_scenario(results):
    """Merged worker-side ``repro_worker_queries_total`` across all label
    sets must equal the parent's accepted-dispatch count — under crash,
    hang, re-dispatch, swap and inline fallback alike."""
    for r in results.values():
        assert r.telemetry_consistent is True, r.scenario


def test_worker_spans_reparent_under_dispatch(results):
    """Wherever workers answered, at least one worker span must link
    back to a parent-side ``serve.batch`` span via the propagated trace
    context (None means no worker served — e.g. budget exhaustion)."""
    r = results["no-fault"]
    assert r.worker_spans > 0
    assert r.worker_spans_reparented is True
    for r in results.values():
        assert r.worker_spans_reparented in (True, None), r.scenario


def test_slo_breach_scenario_pages_then_recovers(results):
    """The forced-breach scenario must cross the burn-rate threshold
    under slowed workers and recover after the mid-replay clean swap."""
    transitions = results["slo-breach"].slo_transitions
    assert transitions, "no SLO transitions recorded"
    assert transitions[0] == "breach"
    assert "recovered" in transitions


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def payload(self):
        assert BASELINE.exists(), "run `python -m repro.bench scale` to regenerate"
        return json.loads(BASELINE.read_text())

    def test_schema(self, payload):
        for key in (
            "experiment",
            "scale",
            "seed",
            "cpu_count",
            "num_shards",
            "workers_per_shard",
            "chunk",
            "partial",
            "bit_identical",
            "serial_qps",
            "parallel_qps",
            "speedup",
            "scenarios",
        ):
            assert key in payload, key
        assert payload["experiment"] == "scale_serving"
        assert payload["partial"] is False
        assert payload["cpu_count"] >= 1

    def test_replayed_at_scale(self, payload):
        # The committed artifact must come from a >=100k-query replay.
        assert payload["scale"] in ("default", "paper")
        for name, scenario in payload["scenarios"].items():
            assert scenario["queries"] >= 100_000, name

    def test_availability_invariant_held(self, payload):
        assert set(payload["scenarios"]) == EXPECTED_SCENARIOS
        for name, scenario in payload["scenarios"].items():
            assert scenario["availability"] == 1.0, name
            assert scenario["throughput_qps"] > 0, name
            assert scenario["p99_ms"] >= scenario["p50_ms"] >= 0.0, name

    def test_telemetry_invariants_recorded(self, payload):
        for name, scenario in payload["scenarios"].items():
            assert scenario["telemetry_consistent"] is True, name
            assert scenario["worker_spans_reparented"] in (True, None), name
        no_fault = payload["scenarios"]["no-fault"]
        assert no_fault["worker_spans"] > 0
        assert no_fault["worker_spans_reparented"] is True

    def test_slo_breach_recorded(self, payload):
        transitions = payload["scenarios"]["slo-breach"]["slo_transitions"]
        assert transitions and transitions[0] == "breach"
        assert "recovered" in transitions

    def test_bit_identity_recorded(self, payload):
        assert payload["bit_identical"] is True

    def test_crash_scenario_exercised_supervision(self, payload):
        # At >=100k queries with crash p=5e-5, restarts are a
        # statistical certainty: a zero means supervision never fired.
        crash = payload["scenarios"]["worker-crash"]
        assert crash["worker_restarts"] + crash["redispatches"] > 0
        exhausted = payload["scenarios"]["budget-exhaustion"]
        assert exhausted["exhausted_shards"] > 0

    def test_speedup_floor_where_cores_exist(self, payload):
        if payload["cpu_count"] < 2:
            pytest.skip("single-CPU baseline: fork cannot beat in-process")
        assert payload["speedup"] >= 1.1


def test_dispatch_hot_path_benchmark(ctx, benchmark, results):
    """Benchmark the no-fault sharded replay (routing + admission +
    dispatch overhead on top of raw inference)."""
    scenario = default_chaos_matrix(ctx.seed)[0]
    result = benchmark(
        lambda: run_chaos_scenario(ctx, scenario, replay=512, mode="inline")
    )
    assert result.availability == 1.0


@pytest.mark.slow
def test_million_query_replay(ctx, tmp_path):
    """The headline number: >=1M queries through the full chaos matrix."""
    out = scale_experiment(
        ctx,
        replay=1_000_000,
        json_path=tmp_path / "BENCH_serve.json",
        text_path=tmp_path / "scale_serving.txt",
    )
    assert len(out) == len(EXPECTED_SCENARIOS)
    for r in out:
        assert r.availability == 1.0, r.scenario
        assert r.queries >= 1_000_000, r.scenario
