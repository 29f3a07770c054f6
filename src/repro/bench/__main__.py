"""CLI: regenerate any table or figure of the paper's evaluation.

Usage::

    python -m repro.bench table4 [--scale ci|default|paper] [--seed N]
    python -m repro.bench all --scale ci --jobs 4
    python -m repro.bench serving --trace-out          # + telemetry dump
    python -m repro.bench obs --scale ci               # telemetry IS the output
    python -m repro.bench train                        # parallel/kernel baseline

``--jobs N`` fans independent work across N worker processes via
:mod:`repro.parallel`: with several experiments requested, whole
experiments run concurrently (each in its own process with a fresh
context); a single experiment fans its per-(method, dataset) training
cells instead.  Results are bit-identical to ``--jobs 1``.

``--trace-out [DIR]`` installs a span collector and training monitor for
the run and afterwards writes ``<experiment>_spans.jsonl``,
``<experiment>_metrics.prom`` / ``.json`` and ``<experiment>_events.jsonl``
into DIR (default ``benchmarks/results/``).  Tracing forces experiments
to run sequentially in-process (child telemetry dies with the fork), but
per-cell fan-out still applies.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections.abc import Callable
from pathlib import Path

from .. import obs
from ..obs.clock import perf_counter
from ..parallel import ParallelExecutor, worker_seconds
from ..scale import Scale
from . import figure2, robustness, rules_exp  # noqa: F401  (rules_exp via table6)
from .batch_exp import batch_experiment
from .fastpath_exp import fastpath_experiment
from .guard_exp import guard_experiment
from .context import BenchContext
from .train_exp import format_train, train_experiment
from .lifecycle_exp import format_lifecycle, lifecycle_experiment
from .obs_exp import format_obs, obs_experiment
from .obs_report import format_obs_report, obs_report_experiment
from .scale_exp import format_scale, scale_experiment
from .serving_exp import format_serving, serving_experiment
from .dynamic_exp import (
    figure6,
    figure7,
    figure8,
    format_figure6,
    format_figure7,
    format_figure8,
)
from .robustness import figure9a, figure9b, figure10, figure11
from .rules_exp import format_table6, table6
from .static import (
    figure3,
    figure4,
    format_figure3,
    format_figure4,
    format_table3,
    format_table4,
    format_table5,
    table3,
    table4,
    table5,
)

#: experiment id -> runner taking the shared context, returning report text.
#: Module-level so ``--help`` can list every id without building a context.
EXPERIMENTS: dict[str, Callable[[BenchContext], str]] = {
    "table3": lambda ctx: format_table3(table3(ctx)),
    "figure2": lambda ctx: figure2.format_figure2(),
    "figure3": lambda ctx: format_figure3(figure3(ctx)),
    "table4": lambda ctx: format_table4(table4(ctx)),
    "figure4": lambda ctx: format_figure4(figure4(ctx)),
    "table5": lambda ctx: format_table5(table5(ctx)),
    "figure6": lambda ctx: format_figure6(figure6(ctx)),
    "figure7": lambda ctx: format_figure7(figure7(ctx)),
    "figure8": lambda ctx: format_figure8(figure8(ctx)),
    "figure9a": lambda ctx: robustness.format_sweep(
        figure9a(ctx), "c", "Figure 9a: correlation sweep"
    ),
    "figure9b": lambda ctx: robustness.format_sweep(
        figure9b(ctx), "s", "Figure 9b: skew sweep"
    ),
    "figure10": lambda ctx: robustness.format_sweep(
        figure10(ctx), "d", "Figure 10: domain-size sweep"
    ),
    "figure11": lambda ctx: robustness.format_figure11(figure11(ctx)),
    "table6": lambda ctx: format_table6(table6(ctx)),
    "serving": lambda ctx: format_serving(serving_experiment(ctx)),
    "lifecycle": lambda ctx: format_lifecycle(lifecycle_experiment(ctx)),
    "obs": lambda ctx: format_obs(obs_experiment(ctx)),
    "obs-report": lambda ctx: format_obs_report(obs_report_experiment(ctx)),
    "batch": lambda ctx: batch_experiment(ctx),
    "fastpath": lambda ctx: fastpath_experiment(ctx),
    "guard": lambda ctx: guard_experiment(ctx),
    "train": lambda ctx: format_train(train_experiment(ctx)),
    "scale": lambda ctx: format_scale(scale_experiment(ctx)),
}


def _experiment_task(item: tuple, _rng) -> tuple[str, str, float]:
    """Executor task: run one whole experiment in a worker process.

    Each worker builds a *fresh* context (jobs=1 — no nested pools) so
    experiments don't share cached models; only the report string and
    timing cross the pipe."""
    name, scale, seed = item
    ctx = BenchContext(scale, seed=seed)
    start = perf_counter()
    report = EXPERIMENTS[name](ctx)
    return name, report, perf_counter() - start


def experiment_names() -> list[str]:
    return list(EXPERIMENTS)


def _dump_trace(out_dir: Path, stem: str, collector: obs.SpanCollector) -> list[str]:
    """Write spans/metrics/events collected during the run; return paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"{stem}_spans.jsonl"
    metrics_text_path = out_dir / f"{stem}_metrics.prom"
    metrics_json_path = out_dir / f"{stem}_metrics.json"
    events_path = out_dir / f"{stem}_events.jsonl"
    collector.to_jsonl(spans_path)
    registry = obs.get_registry()
    exposition = registry.render_text()
    obs.parse_exposition(exposition)  # lint before publishing
    metrics_text_path.write_text(exposition)
    registry.to_json(metrics_json_path)
    obs.get_events().to_jsonl(events_path)
    return [str(p) for p in (spans_path, metrics_text_path, metrics_json_path, events_path)]


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help=f"experiment id(s) or 'all'; one of: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--scale", default=None, help="ci | default | paper")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent training/experiment cells "
        "(default 1 = serial; results are identical at any N)",
    )
    parser.add_argument(
        "--trace-out",
        nargs="?",
        const="benchmarks/results",
        default=None,
        metavar="DIR",
        help="collect spans/metrics/events during the run and dump "
        "<experiment>_{spans.jsonl,metrics.prom,metrics.json,events.jsonl} "
        "into DIR (default: benchmarks/results)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    scale = Scale.from_name(args.scale) if args.scale else Scale.from_environment()
    ctx = BenchContext(scale, seed=args.seed, jobs=args.jobs)

    names = list(EXPERIMENTS) if "all" in args.experiment else list(args.experiment)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; choose from {sorted(EXPERIMENTS)}"
        )

    collector = None
    if args.trace_out is not None:
        obs.get_registry().reset()
        obs.get_events().clear()
        collector = obs.install_collector()
        obs.install_monitor()

    # A supervisor's SIGTERM gets the same graceful path as Ctrl-C:
    # experiments unwind via KeyboardInterrupt (flushing their partial
    # artifacts, e.g. the scale experiment's BENCH_serve.json), the
    # trace dump below still runs, and the exit code is non-zero.
    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)

    wall_start = perf_counter()
    completed: list[str] = []
    interrupted = False
    try:
        if args.jobs > 1 and len(names) > 1 and collector is None:
            # Whole experiments fan across workers; reports print in
            # request order regardless of completion order.
            executor = ParallelExecutor(max_workers=args.jobs, base_seed=args.seed)
            outcomes = executor.map_tasks(
                _experiment_task, [(n, scale, args.seed) for n in names]
            )
            for name, report, seconds in outcomes:
                print(report)
                print(f"[{name} took {seconds:.1f}s at scale={scale.name}]")
                print()
                completed.append(name)
        else:
            for name in names:
                start = perf_counter()
                print(EXPERIMENTS[name](ctx))
                print(
                    f"[{name} took {perf_counter() - start:.1f}s at scale={scale.name}]"
                )
                print()
                completed.append(name)
        if args.jobs > 1:
            wall = perf_counter() - wall_start
            busy = worker_seconds()
            print(
                f"[parallel: {args.jobs} jobs, {busy:.1f}s of worker time in "
                f"{wall:.1f}s wall ({busy / max(wall, 1e-9):.2f}x concurrency)]"
            )
    except KeyboardInterrupt:
        interrupted = True
        pending = [n for n in names if n not in completed]
        print(
            f"\n[interrupted during {pending[0] if pending else '?'}; "
            f"completed: {', '.join(completed) or 'none'}]",
            file=sys.stderr,
        )
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        try:
            if collector is not None and names != ["obs"]:
                # The obs experiment writes its own (richer) obs_*
                # artifacts.  On interrupt the spans/metrics/events
                # gathered so far are still flushed.
                stem = "all" if "all" in args.experiment else "_".join(names)
                for path in _dump_trace(Path(args.trace_out), stem, collector):
                    print(f"[trace written: {path}]")
        finally:
            if collector is not None:
                obs.uninstall_collector()
                obs.uninstall_monitor()
    return 130 if interrupted else 0


if __name__ == "__main__":
    sys.exit(main())
