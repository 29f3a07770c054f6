"""Training-throughput baseline: kernels and process fan-out.

Validates the committed ``BENCH_train.json`` baseline (schema, the
float32-kernel and fused-Adam acceptance criteria, the fan-out
bit-identity flag) and re-runs the cheap parts live: the parallel
tuning sweep must still produce exactly the serial answer, and the
fused Adam step must still match the unfused reference bit-for-bit.
Regenerate the committed baseline with ``python -m repro.bench train``
(same seed and scale as this suite's session context).

Speedup floors are hardware-gated: fan-out cannot beat serial on a
single-CPU runner (the committed ``cpu_count`` records what the
baseline machine had), so wall-clock assertions only apply where the
recorded core count makes them physically possible.
"""

import json
from pathlib import Path

import pytest

from repro.bench.train_exp import adam_microbench, fanout_result
from repro.parallel import detect_worker_count

REPO_ROOT = Path(__file__).parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_train.json"

REQUIRED_KERNEL_KEYS = {
    "method",
    "epochs",
    "float64_epoch_seconds",
    "float32_epoch_seconds",
    "speedup",
    "float64_p95",
    "float32_p95",
    "float64_model_bytes",
    "float32_model_bytes",
}


@pytest.fixture(scope="module")
def baseline():
    """The committed machine-readable baseline."""
    return json.loads(BASELINE_PATH.read_text())


class TestCommittedBaseline:
    def test_schema(self, baseline):
        assert baseline["experiment"] == "train_throughput"
        assert baseline["cpu_count"] >= 1
        for method, kernel in baseline["kernels"].items():
            assert REQUIRED_KERNEL_KEYS <= set(kernel), method
            assert kernel["float32_epoch_seconds"] > 0.0
        assert baseline["adam_step"]["steps"] > 0
        assert baseline["fanout"]["trials"] >= 8
        assert baseline["fanout"]["workers"] >= 4

    def test_adam_fused_was_bit_identical(self, baseline):
        assert baseline["adam_step"]["bit_identical"] is True

    def test_fanout_results_were_equal(self, baseline):
        assert baseline["fanout"]["results_equal"] is True

    def test_float32_halves_model_bytes(self, baseline):
        for method, kernel in baseline["kernels"].items():
            assert (
                kernel["float32_model_bytes"] * 2 == kernel["float64_model_bytes"]
            ), method

    def test_float32_accuracy_within_tolerance(self, baseline):
        # The documented contract: float32 p95 within 10% of float64.
        for method, kernel in baseline["kernels"].items():
            ratio = kernel["float32_p95"] / kernel["float64_p95"]
            assert 1 / 1.1 <= ratio <= 1.1, f"{method}: {ratio}"

    def test_naru_float32_kernel_speedup(self, baseline):
        # The MADE forward/backward is matmul-bound, so halving the
        # element width must show up; 1.2x is the committed floor
        # (measured ~1.5-1.8x on the baseline machine).
        assert baseline["kernels"]["naru"]["speedup"] >= 1.2

    def test_fanout_speedup_where_cores_allow(self, baseline):
        # >=2x at 4 workers is only asserted when the recording machine
        # had >=2 usable cores; a 1-core baseline records overhead (the
        # honest number) and is exempt from the floor.
        fanout = baseline["fanout"]
        if fanout["cpu_count"] >= 2:
            assert fanout["speedup"] >= 2.0
        else:
            assert fanout["speedup"] > 0.0
            assert fanout["parallel_worker_seconds"] > 0.0


class TestLiveEquivalence:
    def test_parallel_sweep_is_bit_identical(self, ctx, record_scratch):
        """The non-negotiable live check: fan-out never changes results."""
        out = fanout_result(ctx, workers=4)
        assert out.results_equal
        assert out.cpu_count == detect_worker_count()
        record_scratch(
            "train_fanout",
            f"fanout: {out.trials} trials x {out.workers} workers on "
            f"{out.cpu_count} cpus; serial {out.serial_seconds:.2f}s, "
            f"parallel {out.parallel_seconds:.2f}s "
            f"({out.speedup:.2f}x), results_equal={out.results_equal}",
        )

    def test_fused_adam_still_bit_identical(self):
        result = adam_microbench(steps=20, shape=(64, 64))
        assert result.bit_identical


def test_adam_fused_step_benchmark(benchmark):
    """Benchmark the fused Adam step at a training-realistic size."""
    import numpy as np

    from repro.nn import Adam
    from repro.nn.layers import Parameter

    rng = np.random.default_rng(0)
    params = [Parameter(rng.standard_normal((256, 256))) for _ in range(4)]
    opt = Adam(params, 1e-3, fused=True)
    for p in params:
        p.grad[...] = rng.standard_normal(p.value.shape)
    benchmark(opt.step)
