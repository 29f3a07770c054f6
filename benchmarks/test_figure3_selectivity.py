"""Figure 3: selectivity distribution of the unified workload."""

import numpy as np
import pytest

from repro.bench.static import format_figure3, figure3
from repro.core.workload import WorkloadGenerator

pytestmark = pytest.mark.paper


def test_figure3(ctx, record_result, benchmark):
    series = figure3(ctx)
    record_result("figure3", format_figure3(series))

    for dataset, fracs in series.items():
        assert fracs.sum() == 1.0 or abs(fracs.sum() - 1.0) < 1e-9
        # The paper's generator produces a broad spectrum: no single
        # bucket may swallow the whole workload.
        assert fracs.max() < 0.9, dataset
        # Mostly non-empty queries (centers are data tuples 90% of the time).
        assert fracs[0] < 0.3, dataset

    generator = WorkloadGenerator(ctx.table("census"))
    rng = np.random.default_rng(0)
    benchmark(generator.generate_query, rng)
