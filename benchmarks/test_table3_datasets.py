"""Table 3: dataset characteristics, plus dataset-construction benchmark."""

import pytest

from repro.bench.static import format_table3, table3
from repro.datasets import census

pytestmark = pytest.mark.paper


def test_table3(ctx, record_result, benchmark):
    rows = table3(ctx)
    record_result("table3", format_table3(rows))

    # Shape checks against the paper's Table 3.
    by_name = {r["dataset"]: r for r in rows}
    assert by_name["census"]["cols"] == 13 and by_name["census"]["cat"] == 8
    assert by_name["forest"]["cols"] == 10 and by_name["forest"]["cat"] == 0
    assert by_name["power"]["cols"] == 7
    assert by_name["dmv"]["cols"] == 11 and by_name["dmv"]["cat"] == 10
    sizes = [r["rows"] for r in rows]
    assert sizes == sorted(sizes), "paper's size ordering must be preserved"

    benchmark(census, num_rows=2000)
