"""Benchmark of the serving stack: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-zipf --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run sets the system up ``SETUP_REPS`` times
(``setup_s`` is the median), then drives the last one for ``--seconds``
seconds of client busy time and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced phase and one traced phase, each on a
fresh set-up, and prints the per-layer metrics (spans go to
``perfbench/out/<workload>.spans.jsonl``).  End-to-end timings are
given at the reference host speed: divided by the host slowdown that
probes of a fixed reference kernel, taken off the clock in the same
stretch of time, measure; the raw figures are printed beside them and
kept in the run record.  Either way every served
answer is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when a check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread per process: the sharded workload runs a parent and
# two workers on two cores, and oversubscribed BLAS pools make every
# timing depend on the scheduler.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS setting above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Seed reserved for confirming claims; never used while tuning.
HELD_OUT_SEED = 9001

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Time of one call of ``_reference_kernel`` on the host the benchmark
#: was tuned on (2-vCPU x86_64 guest, Python 3.11, its fast phase), in ms.
REFERENCE_MS = 1.7
#: Client busy time between two reference probes of a timed phase.
PROBE_EVERY_S = 0.25
#: Probes taken before and after each set-up; ``setup_s`` is corrected
#: by the slowdown of all of them together.
SETUP_PROBES = 20
_REFERENCE_VECTOR = np.linspace(0.0, 1.0, 64)


def _reference_kernel() -> None:
    """Fixed interpreter and small-array numpy work, the two kinds of
    work the serving stack's calls are made of; it touches no code of
    the program."""
    total = 0
    for i in range(20_000):
        total += i * i
    x = _REFERENCE_VECTOR
    for _ in range(500):
        x = np.maximum(x * 0.5, 0.1) + _REFERENCE_VECTOR


def probe_ms() -> float:
    """One host-speed probe: the median of three reference-kernel calls."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def slowdown(probes) -> float:
    """Host slowdown against ``REFERENCE_MS``: the mean of the probes
    with the top and bottom tenth dropped, over the reference time.

    The host's speed changes by up to 1.9x in phases of minutes (see
    README, "Host speed"), which no run length averages out.  Timings
    are divided by this factor, measured off the clock in the same
    stretch of time as the work it corrects.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 10
    kept = ordered[cut : len(ordered) - cut]
    return statistics.fmean(kept) / REFERENCE_MS


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing.shared_memory``
    starts, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def run_phase(workload, system, seconds: float, tracer=None):
    """Closed loop: next op, timed call, record — until ``seconds`` of
    client busy time have passed and the workload is at a boundary of
    its own (batch-drift ends on whole epochs).  Input generation,
    logging and a host-speed probe every ``PROBE_EVERY_S`` of busy time
    stay off the clock."""
    workload.begin(system, tracer)
    busy = 0.0
    op_id = 0
    probes = [probe_ms()]
    next_probe = PROBE_EVERY_S
    while busy < seconds or not workload.at_boundary():
        if busy >= next_probe:
            probes.append(probe_ms())
            next_probe += PROBE_EVERY_S
        kind, call, arg = workload.next_op()
        if tracer is not None:
            tracer.read_id = op_id
        start = perf_counter()
        try:
            result, error = call(arg), None
        except Exception as exc:  # a failed call is scored, not fatal
            result, error = None, exc
        elapsed = perf_counter() - start
        busy += elapsed
        op_id += 1
        workload.record(kind, result, error, elapsed)
    probes.append(probe_ms())
    log = workload.finish()
    log.busy_seconds = busy
    log.slowdown = slowdown(probes)
    return log


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Read time per window of ``_windowed_median``.
MEDIAN_WINDOW_S = 0.5


def _windowed_median(read_seconds) -> float:
    """Mean, over consecutive windows of ``MEDIAN_WINDOW_S`` of read time,
    of each window's median read latency.

    The host this benchmark was tuned on switches its speed by up to
    1.7x for stretches of a fraction of a second to minutes, so a run's
    read latencies fall into a fast and a slow cluster.  The median of
    all reads sits in the gap between them and jumps from one cluster to
    the other as their shares cross one half; the mean of per-window
    medians moves in proportion to the shares instead.  Each window's
    median still ignores the outliers inside it.  A trailing partial
    window is folded into the one before it.
    """
    lat = np.asarray(read_seconds, dtype=np.float64)
    window = (np.cumsum(lat) // MEDIAN_WINDOW_S).astype(np.int64)
    if window[-1] > 0:
        window[window == window[-1]] -= 1
    cuts = np.flatnonzero(np.diff(window)) + 1
    return float(np.mean([np.median(part) for part in np.split(lat, cuts)]))


def end_to_end(workload, log, setup_s: float | None, slow: float) -> dict:
    """The bounded metrics; times are divided by the host slowdown
    ``slow`` and rates multiplied by it (``slow=1`` gives raw figures)."""
    queries = len(log.estimates)
    q = log.qerrors()
    metrics = {
        "qps": (queries / log.busy_seconds * slow, "queries/s"),
        "read_p50_us": (_windowed_median(log.read_seconds) * 1e6 / slow, "us"),
        "read_tail_us": (
            _quantile(log.read_seconds, workload.tail_percentile) * 1e6 / slow,
            "us",
        ),
        "qerror_p50": (_quantile(q, 50.0), "ratio"),
        "qerror_p95": (_quantile(q, 95.0), "ratio"),
        "qerror_p99": (_quantile(q, 99.0), "ratio"),
    }
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    return metrics


def companions(log) -> dict:
    """End-to-end figures that can be zero on some workload, so they are
    printed and kept with the per-layer set rather than bounded."""
    writes = log.write_seconds
    write_ms = statistics.median(writes) * 1e3 / log.slowdown if writes else 0.0
    return {
        "write_p50_ms": (write_ms, "ms"),
        "degraded_share": (
            sum(log.degraded) / len(log.degraded) if log.degraded else 0.0,
            "share",
        ),
        "error_share": (len(log.failed_reads) / max(log.reads, 1), "share"),
        # times the primary's breaker opened: each trip moves the served
        # q-error and speed together (the single-process workloads only)
        "breaker_trips": (log.layer.get("breaker_trips", 0), "count"),
    }


def _mean(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def per_layer(system, log, tracer, untraced_qps: float) -> dict:
    """Per-layer metrics of the traced phase (see README for each)."""
    spans = tracer.summary()

    def span(name):
        """(calls, total seconds, self seconds) of one span name."""
        return spans.get(name, (0, 0.0, 0.0))

    def mean(name, scale):
        n, total, _ = span(name)
        return _mean(total, n, scale)

    def share(values):
        return sum(values) / len(values) if values else 0.0

    served = len(log.estimates)
    primary = log.primary
    hits, semantic, misses = log.layer.get("cache_lookups", (0, 0, 0))
    lookups = hits + semantic + misses
    writes = len(log.write_seconds)
    batch_queries = sum(tracer.observed.get("estimators.estimate_many", []))
    tiers = system["tiers"]
    worker_s = log.layer.get("worker_seconds", 0.0)
    dispatches = span("shard.dispatch")[0]
    requests = log.layer.get("requests", 0)
    traced_qps = served / log.busy_seconds * log.slowdown
    ok, error = tracer.reconcile()
    metrics = {
        "serve.self_us": (
            _mean(
                span("serve.serve")[2] + span("serve.serve_batch")[2],
                log.reads,
                1e6,
            ),
            "us",
        ),
        "serve.tier_attempts_per_read": (_mean(log.tier_calls, served), "count"),
        "serve.primary_share": (
            share([t == primary for t in log.tiers]),
            "share",
        ),
        "serve.breaker_open_reads": (log.open_reads, "count"),
        "cache.get_us": (mean("cache.get", 1e6), "us"),
        "cache.put_us": (mean("cache.put", 1e6), "us"),
        "cache.exact_hit_share": (_mean(hits, lookups), "share"),
        "cache.semantic_hit_share": (_mean(semantic, lookups), "share"),
        "guard.ood_us": (mean("guard.is_ood", 1e6), "us"),
        "guard.clamp_us": (mean("guard.clamp", 1e6), "us"),
        "guard.ood_share": (share(tracer.observed.get("guard.is_ood", [])), "share"),
        "guard.clamp_share": (
            share(tracer.observed.get("guard.clamp", [])),
            "share",
        ),
        "guard.update_ms": (mean("guard.update", 1e3), "ms"),
        "estimators.estimate_us": (mean("estimators.estimate", 1e6), "us"),
        "estimators.batch_us_per_query": (
            _mean(span("estimators.estimate_many")[1], batch_queries, 1e6),
            "us",
        ),
        "estimators.update_ms": (
            _mean(span("estimators.update")[1], writes, 1e3),
            "ms",
        ),
        "estimators.fit_s.primary": (tiers[0].timing.fit_seconds, "s"),
        "estimators.fit_s.fallbacks": (
            sum(t.timing.fit_seconds for t in tiers[1:]),
            "s",
        ),
        "shard.route_us": (mean("shard.route", 1e6), "us"),
        "shard.admit_us": (mean("shard.admit", 1e6), "us"),
        "shard.dispatch_ms": (mean("shard.dispatch", 1e3), "ms"),
        "shard.worker_ms": (_mean(worker_s, dispatches, 1e3), "ms"),
        "shard.ipc_ms": (
            mean("shard.dispatch", 1e3) - _mean(worker_s, dispatches, 1e3),
            "ms",
        ),
        "shard.worker_overlap": (worker_s / log.busy_seconds, "ratio"),
        "shard.fallback_share": (_mean(log.layer.get("fallback", 0), requests), "share"),
        "shard.shed_share": (_mean(log.layer.get("shed", 0), requests), "share"),
        "shard.shm_batches": (log.layer.get("shm_batches", 0), "count"),
        "shard.pipe_batches": (log.layer.get("pipe_batches", 0), "count"),
        "shard.swap_ms": (mean("shard.rolling_swap", 1e3), "ms"),
        "shard.arena_publish_ms": (mean("shard.arena_publish", 1e3), "ms"),
        "shard.model_pickles": (log.layer.get("model_pickles", 0), "count"),
        "obs.merge_us": (mean("obs.merge", 1e6), "us"),
        "obs.trace_overhead": (1.0 - traced_qps / untraced_qps, "share"),
        "trace.reconciled": (1 if ok else 0, "count"),
        "trace.reconcile_error": (error, "ratio"),
        "trace.root_coverage": (
            tracer.root_seconds() / log.busy_seconds,
            "ratio",
        ),
        "trace.spans": (len(tracer), "count"),
        "host.slowdown": (log.slowdown, "ratio"),
    }
    return metrics


def _report(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program to benchmark: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from repro.scale import Scale
    from tracing import RECONCILE_TOLERANCE, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    # $REPRO_SCALE, the repository's scale switch, picks another preset
    # (the self-test runs at ci); measured runs use the default.
    scale = Scale.from_environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "held_out_seed": HELD_OUT_SEED,
    }
    print("# env " + json.dumps(record, sort_keys=True))

    began = perf_counter()
    workload = WORKLOADS[args.workload](scale, args.seed)
    record["inputs_wall_s"] = perf_counter() - began
    logs = []
    try:
        if args.trace == 0:
            setups = []
            probes = []
            system = None
            for rep in range(SETUP_REPS):
                if system is not None:
                    workload.close(system)
                probes += [probe_ms() for _ in range(SETUP_PROBES)]
                start = perf_counter()
                system = workload.setup()
                setups.append(perf_counter() - start)
                probes += [probe_ms() for _ in range(SETUP_PROBES)]
            setup_slowdown = slowdown(probes)
            phase_began = perf_counter()
            try:
                log = run_phase(workload, system, args.seconds)
            finally:
                workload.close(system)
            record["phase_wall_s"] = perf_counter() - phase_began
            logs.append(log)
            setup_s = statistics.median(setups) / setup_slowdown
            metrics = end_to_end(workload, log, setup_s, log.slowdown)
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
            raw = end_to_end(workload, log, statistics.median(setups), 1.0)
            _report("end-to-end (at the reference host speed)", metrics)
            print(
                f"# host slowdown {log.slowdown:.3f} in the timed phase, "
                f"{setup_slowdown:.3f} in set-up; raw "
                + ", ".join(
                    f"{name} {raw[name][0]:.6g} {raw[name][1]}"
                    for name in ("qps", "read_p50_us", "read_tail_us", "setup_s")
                )
            )
            _report("companions (not bounded)", companions(log))
            beyond = int(log.reads * (1.0 - workload.tail_percentile / 100.0))
            print(
                f"# read_tail_us is p{workload.tail_percentile:g} of {log.reads} reads "
                f"({beyond} beyond it)"
            )
            record["setup_seconds"] = setups
            record["setup_slowdown"] = setup_slowdown
            record["raw_metrics"] = {k: v[0] for k, v in raw.items()}
        else:
            system = workload.setup()
            try:
                plain = run_phase(workload, system, args.seconds)
            finally:
                workload.close(system)
            logs.append(plain)
            untraced_qps = len(plain.estimates) / plain.busy_seconds * plain.slowdown
            tracer = Tracer()
            system = workload.setup()
            try:
                log = run_phase(workload, system, args.seconds, tracer)
            finally:
                workload.close(system)
            logs.append(log)
            metrics = per_layer(system, log, tracer, untraced_qps)
            metrics.update(companions(plain))
            _report("per-layer (traced phase)", metrics)
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"{args.workload}.spans.jsonl")
            record["reconcile_tolerance"] = RECONCILE_TOLERANCE
    finally:
        _stop_resource_tracker()

    failed = sum(len(log.failed_reads) + log.failed_writes for log in logs)
    attempted = sum(log.reads + len(log.write_seconds) for log in logs)
    checks = {"write_raised": sum(log.failed_writes for log in logs)}
    for log in logs:
        for name, count in log.checks.items():
            checks[name] = checks.get(name, 0) + count
    record["checks"] = checks
    record["reads"] = [log.reads for log in logs]
    record["writes"] = [len(log.write_seconds) for log in logs]
    record["queries"] = [len(log.estimates) for log in logs]
    record["slowdown"] = [log.slowdown for log in logs]
    record["reference_ms"] = REFERENCE_MS
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    record["total_wall_s"] = perf_counter() - began
    OUT.mkdir(exist_ok=True)
    with open(
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w"
    ) as out:
        json.dump(record, out, indent=1, sort_keys=True)
    print("# checks " + json.dumps(checks, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
