"""Benchmark harness: one callable per paper table/figure.

Run ``python -m repro.bench <experiment>`` (e.g. ``table4``) or use the
functions directly with a :class:`~repro.bench.context.BenchContext`.
"""

from .context import BenchContext
from .dynamic_exp import figure6, figure7, figure8
from .figure2 import comparison_graph, missing_edge_fraction
from .reporting import format_seconds, render_table
from .robustness import figure9a, figure9b, figure10, figure11
from .rules_exp import table6
from .static import figure3, figure4, table3, table4, table5

__all__ = [
    "BenchContext",
    "comparison_graph",
    "figure10",
    "figure11",
    "figure3",
    "figure4",
    "figure6",
    "figure7",
    "figure8",
    "figure9a",
    "figure9b",
    "format_seconds",
    "missing_edge_fraction",
    "render_table",
    "table3",
    "table4",
    "table5",
    "table6",
]
