"""Figure 8: how much does GPU help in dynamic environments?

"GPU" timings derive from the paper's measured speedup factors applied
to real CPU wall-clock (see DESIGN.md substitutions).
"""

import pytest

from repro.bench.dynamic_exp import figure8, format_figure8

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def cells(ctx, record_result):
    out = figure8(ctx)
    record_result("figure8", format_figure8(out))
    return out


def test_gpu_shortens_update_for_both_methods(cells):
    by = {(c.dataset, c.method, c.device): c for c in cells}
    for dataset in {c.dataset for c in cells}:
        for method in ("naru", "lw-nn"):
            cpu = by[(dataset, method, "cpu")]
            gpu = by[(dataset, method, "gpu")]
            assert gpu.update_seconds < cpu.update_seconds


def test_gpu_never_hurts_p99_materially(cells):
    """A shorter update can only shift queries from the stale to the
    updated model; the dynamic p99 should not get much worse."""
    by = {(c.dataset, c.method, c.device): c for c in cells}
    for dataset in {c.dataset for c in cells}:
        for method in ("naru", "lw-nn"):
            cpu = by[(dataset, method, "cpu")]
            gpu = by[(dataset, method, "gpu")]
            if cpu.finished and gpu.finished:
                assert gpu.p99 <= cpu.p99 * 2.0


def test_device_model_benchmark(benchmark, cells):
    from repro.dynamic import GPU

    benchmark(GPU.model_seconds, "naru", 100.0)
