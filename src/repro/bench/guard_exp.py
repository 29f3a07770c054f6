"""Guard bench: what the guardrail tier buys under adversarial faults.

The guard subsystem (:mod:`repro.guard`) exists for the failure modes
no NaN/inf sanity check catches: plausible-looking estimates that are
systematically wrong.  This experiment replays three such stresses —
the :mod:`repro.faults` adversarial wrappers — against the same serving
chain with guardrails **off** and **on**:

* **correlated-shift** — AVI-style geometric overestimates
  (:class:`~repro.faults.CorrelatedShiftFault`); the provable upper
  bound clamps them.
* **ood-shift** — queries outside the training domain, answered by a
  domain-shifted model (:class:`~repro.faults.DomainShiftFault`); OOD
  detection reroutes them past the learned tier and the bound sketch
  pins the answer (far-OOD ranges have a provable cardinality of 0).
* **update-skew** — :class:`~repro.faults.UpdateSkewFault` feeds the
  model a biased slice of every append; the q-error feedback loop
  (:class:`~repro.guard.QuarantineMonitor`) demotes it, so the
  steady-state worst case is the bounded safe tier's.

A separate **quarantine cycle** drives a bounded incident window
(``until``-scheduled underestimates, which no bound can catch) through
demotion and automatic probe-gated re-admission.  Latency overhead is
measured on a clean chain, guard off vs on.

Results land in ``BENCH_serve.json`` under a ``guard`` key, plus the
human-readable ``benchmarks/results/guard.txt``.  Acceptance: overall
worst-case q-error with guardrails on is <= 1/10th of the unguarded
worst case, availability stays 1.0, and clean-path p50 overhead is
under 10%.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.metrics import qerror
from ..core.query import Predicate, Query
from ..core.workload import generate_workload
from ..datasets.updates import apply_update
from ..faults import CorrelatedShiftFault, DomainShiftFault, UpdateSkewFault
from ..guard import HEALTHY, EstimateGuard, QuarantineMonitor
from ..obs.clock import perf_counter
from ..serve import EstimatorService, HeuristicConstantEstimator
from .context import BenchContext
from .reporting import render_table

#: the learned primary under test (fast to fit, deterministic)
DEFAULT_METHOD = "lw-xgb"
DEFAULT_DATASET = "census"

#: replay length per scenario arm
DEFAULT_REPLAY = 200

#: acceptance bars (see module docstring)
ACCEPTANCE_IMPROVEMENT = 10.0
ACCEPTANCE_OVERHEAD = 0.10
ACCEPTANCE_AVAILABILITY = 1.0


@dataclass(frozen=True)
class GuardScenarioResult:
    """One stress scenario, guardrails off vs on."""

    scenario: str
    queries: int
    #: worst / p95 q-error over the measured window, unguarded
    worst_q_off: float
    p95_q_off: float
    #: same window, guard installed
    worst_q_on: float
    p95_q_on: float
    #: worst_q_off / worst_q_on
    improvement: float
    availability: float
    #: guard actions during the "on" arm
    clamped: int
    ood_rerouted: int
    demotions: int


@dataclass(frozen=True)
class QuarantineCycleResult:
    """The demote -> probe -> re-admit loop under a bounded incident."""

    serves: int
    demoted_after: int
    demotions: int
    probes_failed: int
    readmissions: int
    final_state: str


@dataclass(frozen=True)
class GuardBenchResult:
    """Everything the guard experiment measures."""

    method: str
    dataset: str
    scenarios: list[GuardScenarioResult]
    quarantine: QuarantineCycleResult
    p50_off_us: float
    p50_on_us: float
    p50_overhead_fraction: float
    #: max worst-q off across scenarios / max worst-q on across scenarios
    worst_case_improvement: float
    availability: float


def _ood_queries(table, queries, fraction: float = 1.5) -> list[Query]:
    """Translate every predicate ``fraction`` column-spans upward —
    far enough outside the trained domain that the true cardinality is
    provably 0 and the OOD score clears any sane threshold."""
    data = table.data
    shifted = []
    for query in queries:
        preds = []
        for p in query.predicates:
            column = data[:, p.column]
            lo_v, hi_v = float(column.min()), float(column.max())
            shift = fraction * ((hi_v - lo_v) or 1.0)
            preds.append(
                Predicate(
                    p.column,
                    (p.lo if p.lo is not None else lo_v) + shift,
                    (p.hi if p.hi is not None else hi_v) + shift,
                )
            )
        shifted.append(Query(tuple(preds)))
    return shifted


def _guarded_service(
    primary, table, *, guarded: bool, quarantine: dict | None = None
) -> EstimatorService:
    """The off/on chain: ``primary`` then the heuristic last resort."""
    guard = None
    if guarded:
        guard = EstimateGuard()
        guard.fit(table)
    heuristic = HeuristicConstantEstimator()
    heuristic.fit(table)
    service = EstimatorService(
        [primary, heuristic], deadline_ms=None, guard=guard
    )
    if guarded and quarantine is not None:
        guard.monitor = QuarantineMonitor(service, **quarantine)
    return service


def _replay(
    service: EstimatorService,
    queries,
    actuals,
    *,
    feedback: bool,
    measure_from: int = 0,
) -> tuple[float, float, float]:
    """(worst q, p95 q, availability) over ``queries[measure_from:]``."""
    qerrs = []
    answered = 0
    for i, (query, actual) in enumerate(zip(queries, actuals)):
        served = service.serve(query)
        answered += 1
        if feedback:
            service.record_actual(query, served, float(actual), tenant="bench")
        if i >= measure_from:
            qerrs.append(qerror(served.estimate, float(actual)))
    errs = np.asarray(qerrs)
    return float(errs.max()), float(np.percentile(errs, 95.0)), answered / len(queries)


def guard_scenarios(
    ctx: BenchContext,
    dataset: str = DEFAULT_DATASET,
    method: str = DEFAULT_METHOD,
    replay: int = DEFAULT_REPLAY,
) -> list[GuardScenarioResult]:
    """Run the three adversarial stresses, guardrails off vs on."""
    table = ctx.table(dataset)
    fitted = ctx.estimator(method, dataset)
    rng = np.random.default_rng(ctx.seed + 301)
    workload = generate_workload(table, replay, rng)
    queries = list(workload.queries)
    actuals = np.asarray(workload.cardinalities, dtype=np.float64)

    results = []
    for scenario in ("correlated-shift", "ood-shift", "update-skew"):
        arm: dict[str, tuple[float, float, float]] = {}
        guard_stats = (0, 0, 0)
        for mode in ("off", "on"):
            guarded = mode == "on"
            primary = copy.deepcopy(fitted)
            serve_queries, serve_actuals = queries, actuals
            feedback = False
            measure_from = 0
            quarantine = None

            if scenario == "correlated-shift":
                primary = CorrelatedShiftFault(
                    primary, magnitude=8.0, seed=ctx.seed
                )
            elif scenario == "ood-shift":
                primary = DomainShiftFault(
                    primary, shift_fraction=-1.5, seed=ctx.seed
                )
                serve_queries = _ood_queries(table, queries)
                serve_actuals = table.cardinalities(serve_queries)
            else:  # update-skew: the guard arm gets the feedback loop
                primary = UpdateSkewFault(primary, seed=ctx.seed)
                feedback = guarded
                # quarantine needs a feedback window to engage; score
                # the steady state on both arms for a fair comparison
                measure_from = len(queries) // 2
                quarantine = {
                    "probe_queries": queries[:32],
                    "qerror_threshold": 8.0,
                    "window": 32,
                    "min_samples": 8,
                    "breach_fraction": 0.5,
                    "probe_interval": 16,
                }

            service = _guarded_service(
                primary, table, guarded=guarded, quarantine=quarantine
            )
            if scenario == "update-skew":
                update_rng = np.random.default_rng(ctx.seed + 302)
                new_table, appended = apply_update(table, update_rng)
                service.update(
                    new_table,
                    appended,
                    generate_workload(
                        new_table, ctx.scale.train_queries, update_rng
                    ),
                )
                serve_queries = list(
                    generate_workload(
                        new_table, replay, np.random.default_rng(ctx.seed + 303)
                    ).queries
                )
                serve_actuals = new_table.cardinalities(serve_queries)

            arm[mode] = _replay(
                service,
                serve_queries,
                serve_actuals,
                feedback=feedback,
                measure_from=measure_from,
            )
            if guarded:
                guard = service.guard
                monitor = guard.monitor
                guard_stats = (
                    guard.clamped,
                    guard.ood_rerouted,
                    0 if monitor is None else monitor.demotions,
                )

        worst_off, p95_off, avail_off = arm["off"]
        worst_on, p95_on, avail_on = arm["on"]
        results.append(
            GuardScenarioResult(
                scenario=scenario,
                queries=replay,
                worst_q_off=worst_off,
                p95_q_off=p95_off,
                worst_q_on=worst_on,
                p95_q_on=p95_on,
                improvement=worst_off / max(worst_on, 1.0),
                availability=min(avail_off, avail_on),
                clamped=guard_stats[0],
                ood_rerouted=guard_stats[1],
                demotions=guard_stats[2],
            )
        )
    return results


def quarantine_cycle(
    ctx: BenchContext,
    dataset: str = DEFAULT_DATASET,
    method: str = DEFAULT_METHOD,
    max_serves: int = 160,
) -> QuarantineCycleResult:
    """Drive a bounded incident through demote -> probe -> re-admit.

    The fault window (`until`) produces geometric *under*estimates —
    invisible to the upper bound — so only the q-error feedback stream
    can catch it.  After the window closes, the periodic probe gate
    sees the model answer cleanly and re-admits it.
    """
    table = ctx.table(dataset)
    fitted = ctx.estimator(method, dataset)
    rng = np.random.default_rng(ctx.seed + 304)
    probe = generate_workload(table, 40, rng)
    workload = generate_workload(table, 256, np.random.default_rng(ctx.seed + 305))
    # Underestimates only register as q-error when the truth is big:
    # replay the heavy-hitter queries, where a deflated answer is
    # unmistakably wrong.
    heavy = [
        i for i, c in enumerate(workload.cardinalities) if c >= 64.0
    ] or list(range(len(workload.queries)))
    queries = [workload.queries[i] for i in heavy]
    actuals = np.asarray(
        [workload.cardinalities[i] for i in heavy], dtype=np.float64
    )

    faulted = CorrelatedShiftFault(
        copy.deepcopy(fitted), magnitude=1.0 / 64.0, until=24, seed=ctx.seed
    )
    service = _guarded_service(
        faulted,
        table,
        guarded=True,
        quarantine={
            "probe_queries": list(probe.queries),
            "qerror_threshold": 8.0,
            "window": 16,
            "min_samples": 8,
            "breach_fraction": 0.5,
            "probe_interval": 16,
        },
    )
    monitor = service.guard.monitor

    serves = 0
    demoted_after = 0
    for i in range(max_serves):
        query = queries[i % len(queries)]
        actual = float(actuals[i % len(actuals)])
        served = service.serve(query)
        service.record_actual(query, served, actual, tenant="bench")
        serves += 1
        status = monitor.status()
        if not demoted_after and status.demotions:
            demoted_after = serves
        if status.readmissions:
            break

    status = monitor.status()
    return QuarantineCycleResult(
        serves=serves,
        demoted_after=demoted_after,
        demotions=status.demotions,
        probes_failed=status.probes_failed,
        readmissions=status.readmissions,
        final_state=status.state,
    )


def latency_overhead(
    ctx: BenchContext,
    dataset: str = DEFAULT_DATASET,
    method: str = DEFAULT_METHOD,
    replay: int = DEFAULT_REPLAY,
    repeats: int = 3,
) -> tuple[float, float]:
    """Clean-path p50 (us), guard off vs on, over the same replay."""
    table = ctx.table(dataset)
    fitted = ctx.estimator(method, dataset)
    queries = list(
        generate_workload(
            table, replay, np.random.default_rng(ctx.seed + 306)
        ).queries
    )
    service_off = _guarded_service(copy.deepcopy(fitted), table, guarded=False)
    service_on = _guarded_service(copy.deepcopy(fitted), table, guarded=True)
    off: list[float] = []
    on: list[float] = []
    # Interleave the arms query by query so clock drift and cache
    # warmth hit both equally — the difference is the guard's cost,
    # not the machine's mood.
    for _ in range(repeats):
        for query in queries:
            start = perf_counter()
            service_off.serve(query)
            off.append(perf_counter() - start)
            start = perf_counter()
            service_on.serve(query)
            on.append(perf_counter() - start)
    return (
        float(np.percentile(off, 50.0) * 1e6),
        float(np.percentile(on, 50.0) * 1e6),
    )


def run_guard_bench(
    ctx: BenchContext,
    dataset: str = DEFAULT_DATASET,
    method: str = DEFAULT_METHOD,
    replay: int = DEFAULT_REPLAY,
) -> GuardBenchResult:
    """All three measurements rolled into one result."""
    scenarios = guard_scenarios(ctx, dataset, method, replay)
    cycle = quarantine_cycle(ctx, dataset, method)
    p50_off, p50_on = latency_overhead(ctx, dataset, method, replay)
    worst_off = max(s.worst_q_off for s in scenarios)
    worst_on = max(s.worst_q_on for s in scenarios)
    return GuardBenchResult(
        method=method,
        dataset=dataset,
        scenarios=scenarios,
        quarantine=cycle,
        p50_off_us=p50_off,
        p50_on_us=p50_on,
        p50_overhead_fraction=(p50_on - p50_off) / p50_off,
        worst_case_improvement=worst_off / max(worst_on, 1.0),
        availability=min(s.availability for s in scenarios),
    )


def format_guard(result: GuardBenchResult) -> str:
    """Human-readable scenario table plus the acceptance roll-ups."""
    header = [
        "scenario",
        "worst q off",
        "worst q on",
        "improvement",
        "p95 off",
        "p95 on",
        "clamped",
        "ood",
        "demoted",
    ]
    rows = [
        [
            s.scenario,
            f"{s.worst_q_off:,.0f}",
            f"{s.worst_q_on:,.0f}",
            f"{s.improvement:,.0f}x",
            f"{s.p95_q_off:,.0f}",
            f"{s.p95_q_on:,.0f}",
            str(s.clamped),
            str(s.ood_rerouted),
            str(s.demotions),
        ]
        for s in result.scenarios
    ]
    title = (
        f"Estimate guardrails under adversarial faults "
        f"({result.method} on {result.dataset}, "
        f"{result.scenarios[0].queries}-query replays)"
    )
    cycle = result.quarantine
    lines = [
        render_table(header, rows, title=title),
        (
            f"worst-case q-error improvement {result.worst_case_improvement:,.0f}x "
            f"(floor {ACCEPTANCE_IMPROVEMENT:.0f}x); availability "
            f"{result.availability:.3f} (floor {ACCEPTANCE_AVAILABILITY:.1f})"
        ),
        (
            f"clean-path p50 {result.p50_off_us:,.0f}us off, "
            f"{result.p50_on_us:,.0f}us on: overhead "
            f"{result.p50_overhead_fraction:+.1%} "
            f"(ceiling {ACCEPTANCE_OVERHEAD:.0%})"
        ),
        (
            f"quarantine cycle: demoted after {cycle.demoted_after} serves, "
            f"{cycle.probes_failed} probe(s) failed, "
            + (
                f"re-admitted by serve {cycle.serves}"
                if cycle.readmissions
                else "not re-admitted"
            )
            + f" (final state: {cycle.final_state})"
        ),
    ]
    return "\n".join(lines)


def write_guard_artifacts(
    ctx: BenchContext,
    result: GuardBenchResult,
    json_path: str | Path = "BENCH_serve.json",
    text_path: str | Path = "benchmarks/results/guard.txt",
) -> list[Path]:
    """Write ``BENCH_serve.json`` (one ``guard`` section) and the text."""
    json_path, text_path = Path(json_path), Path(text_path)
    guard = {
        "method": result.method,
        "dataset": result.dataset,
        "scale": ctx.scale.name,
        "seed": ctx.seed,
        "acceptance": {
            "improvement_floor": ACCEPTANCE_IMPROVEMENT,
            "overhead_ceiling": ACCEPTANCE_OVERHEAD,
            "availability_floor": ACCEPTANCE_AVAILABILITY,
        },
        "worst_case_improvement": result.worst_case_improvement,
        "availability": result.availability,
        "p50_off_us": result.p50_off_us,
        "p50_on_us": result.p50_on_us,
        "p50_overhead_fraction": result.p50_overhead_fraction,
        "scenarios": {s.scenario: asdict(s) for s in result.scenarios},
        "quarantine": asdict(result.quarantine),
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps({"guard": guard}, indent=2, sort_keys=True) + "\n")
    text_path.parent.mkdir(parents=True, exist_ok=True)
    text_path.write_text(format_guard(result) + "\n")
    return [json_path, text_path]


def guard_experiment(
    ctx: BenchContext,
    dataset: str = DEFAULT_DATASET,
    method: str = DEFAULT_METHOD,
    json_path: str | Path = "BENCH_serve.json",
    text_path: str | Path = "benchmarks/results/guard.txt",
) -> str:
    """Run the guard bench, write both artifacts, return the report."""
    result = run_guard_bench(ctx, dataset, method)
    paths = write_guard_artifacts(ctx, result, json_path, text_path)
    lines = [format_guard(result)]
    lines += [f"[baseline written: {p}]" for p in paths]
    return "\n".join(lines)
