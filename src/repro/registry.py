"""Estimator registry: name -> configured instance.

Centralises the hyper-parameters each method uses at a given
:class:`~repro.scale.Scale`, so every benchmark and example constructs
estimators the same way (the paper's "models of Table 4").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from difflib import get_close_matches

from .core.estimator import CardinalityEstimator
from .estimators.learned import (
    DeepDbEstimator,
    DqmDEstimator,
    DqmQEstimator,
    LwNnEstimator,
    LwXgbEstimator,
    MscnEstimator,
    NaruEstimator,
)
from .estimators.traditional import (
    BayesEstimator,
    DbmsAEstimator,
    KdeFeedbackEstimator,
    MhistEstimator,
    MySQLEstimator,
    PostgresEstimator,
    QuickSelEstimator,
    SamplingEstimator,
    StHolesEstimator,
)
from .core.table import Table
from .core.workload import Workload
from .guard import EstimateGuard, QuarantineMonitor
from .lifecycle import DriftDetector, ModelLifecycleManager
from .scale import Scale
from .serve import EstimatorService, HeuristicConstantEstimator

#: Paper ordering of the traditional methods (Table 4, upper half).
TRADITIONAL_NAMES = [
    "postgres",
    "mysql",
    "dbms-a",
    "sampling",
    "mhist",
    "quicksel",
    "bayes",
    "kde-fb",
]

#: Paper ordering of the learned methods (Table 4, lower half).
LEARNED_NAMES = ["mscn", "lw-xgb", "lw-nn", "naru", "deepdb"]

#: The three production systems (Figure 4's baseline group).
DBMS_NAMES = ["postgres", "mysql", "dbms-a"]

#: Methods beyond the paper's 13-way benchmark: the two DQM variants
#: its taxonomy surveys (Table 1) and the STHoles baseline QuickSel's
#: paper compares against.  Available via :func:`make_estimator` but not
#: part of Table 4.
EXTRA_NAMES = [
    "dqm-d",
    "dqm-q",
    "stholes",
    "naru-transformer",
    # Fast-path int8 variants (repro.fastpath): post-training-quantized
    # right after fit, packed weights, inference-only.
    "naru-int8",
    "mscn-int8",
    "lw-nn-int8",
]

#: Default serving fallback chain appended after a primary estimator:
#: cheap, data-driven, and ending in a tier that cannot fail.
DEFAULT_FALLBACK_NAMES = ["sampling", "postgres", "heuristic"]


def _factories(scale: Scale) -> dict[str, Callable[[], CardinalityEstimator]]:
    return {
        "postgres": lambda: PostgresEstimator(),
        "mysql": lambda: MySQLEstimator(),
        "dbms-a": lambda: DbmsAEstimator(),
        "sampling": lambda: SamplingEstimator(),
        "mhist": lambda: MhistEstimator(),
        "quicksel": lambda: QuickSelEstimator(
            num_kernels=min(300, max(50, scale.train_queries // 4))
        ),
        "bayes": lambda: BayesEstimator(),
        "kde-fb": lambda: KdeFeedbackEstimator(
            feedback_queries=min(1000, scale.train_queries)
        ),
        "mscn": lambda: MscnEstimator(
            epochs=scale.nn_epochs, update_epochs=max(2, scale.nn_epochs // 4)
        ),
        "lw-xgb": lambda: LwXgbEstimator(),
        "lw-nn": lambda: LwNnEstimator(
            epochs=scale.nn_epochs, update_epochs=max(2, scale.nn_epochs // 4)
        ),
        "naru": lambda: NaruEstimator(
            epochs=scale.naru_epochs, num_samples=scale.naru_samples
        ),
        "deepdb": lambda: DeepDbEstimator(),
        # Extras beyond the paper's benchmark (see EXTRA_NAMES).
        "dqm-d": lambda: DqmDEstimator(
            epochs=scale.naru_epochs, num_samples=scale.naru_samples
        ),
        "dqm-q": lambda: DqmQEstimator(epochs=scale.nn_epochs),
        "stholes": lambda: StHolesEstimator(),
        "naru-transformer": lambda: NaruEstimator(
            hidden_units=32,
            hidden_layers=2,
            epochs=scale.naru_epochs,
            num_samples=scale.naru_samples,
            block="transformer",
        ),
        "naru-int8": lambda: NaruEstimator(
            epochs=scale.naru_epochs,
            num_samples=scale.naru_samples,
            quantize="int8",
        ),
        "mscn-int8": lambda: MscnEstimator(
            epochs=scale.nn_epochs,
            update_epochs=max(2, scale.nn_epochs // 4),
            quantize="int8",
        ),
        "lw-nn-int8": lambda: LwNnEstimator(
            epochs=scale.nn_epochs,
            update_epochs=max(2, scale.nn_epochs // 4),
            quantize="int8",
        ),
        # Serving-layer last resort (see repro.serve): magic-constant
        # selectivities, cannot fail.
        "heuristic": lambda: HeuristicConstantEstimator(),
    }


def make_estimator(name: str, scale: Scale | None = None) -> CardinalityEstimator:
    """Construct the estimator called ``name`` at the given scale."""
    scale = scale or Scale.default()
    factories = _factories(scale)
    try:
        return factories[name]()
    except KeyError:
        close = get_close_matches(name, factories, n=3, cutoff=0.5)
        hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
        raise KeyError(
            f"unknown estimator {name!r}{hint}; choose from {sorted(factories)}"
        ) from None


def estimator_names() -> list[str]:
    """All thirteen estimator names, traditional first (Table 4 order)."""
    return TRADITIONAL_NAMES + LEARNED_NAMES


def make_traditional(scale: Scale | None = None) -> list[CardinalityEstimator]:
    return [make_estimator(n, scale) for n in TRADITIONAL_NAMES]


def make_learned(scale: Scale | None = None) -> list[CardinalityEstimator]:
    return [make_estimator(n, scale) for n in LEARNED_NAMES]


def make_fallback_chain(
    primary: str | CardinalityEstimator,
    fallbacks: Sequence[str] | None = None,
    scale: Scale | None = None,
) -> list[CardinalityEstimator]:
    """The tier list for a serving chain: ``primary`` then ``fallbacks``.

    ``primary`` may be an estimator name or an already-constructed (even
    already-fitted, even fault-wrapped) instance; fallbacks default to
    :data:`DEFAULT_FALLBACK_NAMES`.
    """
    if isinstance(primary, str):
        primary = make_estimator(primary, scale)
    names = DEFAULT_FALLBACK_NAMES if fallbacks is None else list(fallbacks)
    return [primary] + [make_estimator(n, scale) for n in names]


def make_service(
    primary: str | CardinalityEstimator,
    fallbacks: Sequence[str] | None = None,
    scale: Scale | None = None,
    **service_kwargs,
) -> EstimatorService:
    """A fault-tolerant :class:`EstimatorService` around ``primary``.

    Keyword arguments (``deadline_ms``, ``breaker``, ``clock``, ``cache``,
    and the observability sinks ``registry`` / ``events``) are forwarded
    to the service; passing a shared :class:`~repro.obs.MetricsRegistry`
    lets several services report into one telemetry view, while the
    default (``None``) uses the process-wide instances from
    :mod:`repro.obs` (spans always go to the process-wide collector).
    The fallback tiers
    are constructed fresh, so call ``fit`` once on the returned service
    to fit the whole chain (a pre-fitted ``primary`` instance is refit
    along with it).
    """
    return EstimatorService(
        make_fallback_chain(primary, fallbacks, scale), **service_kwargs
    )


def make_guarded_service(
    primary: str | CardinalityEstimator,
    fallbacks: Sequence[str] | None = None,
    scale: Scale | None = None,
    *,
    table: Table | None = None,
    workload: Workload | None = None,
    probe_workload: Workload | None = None,
    guard_kwargs: dict | None = None,
    quarantine_kwargs: dict | None = None,
    **service_kwargs,
) -> EstimatorService:
    """A :func:`make_service` chain with the full guard tier installed.

    Builds an :class:`~repro.guard.EstimateGuard` (provable bounds +
    OOD detection; tune via ``guard_kwargs``) into the service.  When
    ``table`` is given the chain — and the guard — is fitted here
    (pass ``workload`` for query-driven primaries).  When
    ``probe_workload`` is given a
    :class:`~repro.guard.QuarantineMonitor` is attached too (tune via
    ``quarantine_kwargs``), so sustained q-error breaches demote the
    learned primary and its probe queries gate re-admission; reach it
    at ``service.guard.monitor``.
    """
    guard = EstimateGuard(**(guard_kwargs or {}))
    service = EstimatorService(
        make_fallback_chain(primary, fallbacks, scale),
        guard=guard,
        **service_kwargs,
    )
    if table is not None:
        service.fit(table, workload)
    if probe_workload is not None:
        guard.monitor = QuarantineMonitor(
            service, list(probe_workload.queries), **(quarantine_kwargs or {})
        )
    return service


def make_shard_service(
    primary: str | CardinalityEstimator,
    table: Table,
    fallbacks: Sequence[str] | None = None,
    scale: Scale | None = None,
    workload: Workload | None = None,
    **router_kwargs,
) -> "ShardRouter":
    """A fitted :class:`~repro.shard.ShardRouter` around ``primary``.

    ``primary`` may be an estimator name (resolved with the same typo
    hints as :func:`make_estimator`) or an already-fitted instance.
    Fallback tiers default to :data:`DEFAULT_FALLBACK_NAMES`; they and
    an unfitted primary are fitted on ``table`` here, so the returned
    router is ready to ``start()``.  Keyword arguments (``num_shards``,
    ``workers_per_shard``, ``admission``, ``policy``, ``mode``,
    ``worker_estimator``, timeouts, telemetry sinks, ...) are forwarded
    to the router.
    """
    from .shard import ShardRouter  # late: repro.shard imports this module's deps

    if isinstance(primary, str):
        primary = make_estimator(primary, scale)
    names = DEFAULT_FALLBACK_NAMES if fallbacks is None else list(fallbacks)
    tiers = [make_estimator(n, scale) for n in names]
    for estimator in [primary, *tiers]:
        try:
            estimator.table
        except RuntimeError:
            estimator.fit(
                table, workload if estimator.requires_workload else None
            )
    return ShardRouter(primary, tiers, **router_kwargs)


def make_lifecycle_manager(
    primary: str,
    table: Table,
    train_workload: Workload,
    probe_workload: Workload,
    checkpoint_dir,
    fallbacks: Sequence[str] | None = None,
    scale: Scale | None = None,
    service_kwargs: dict | None = None,
    **manager_kwargs,
) -> ModelLifecycleManager:
    """A :class:`~repro.lifecycle.ModelLifecycleManager` wired end to end.

    Builds and fits a :func:`make_service` chain around ``primary`` on
    ``table``, installs a :class:`~repro.lifecycle.DriftDetector` over
    ``probe_workload`` (baselined against the fitted incumbent), and
    makes fresh registry-configured instances of ``primary`` the
    candidate factory for retrains.  Remaining keyword arguments
    (``gate``, ``policy``, ``attempt_deadline_seconds``, ``seed``,
    ``sleep``, ``quarantine``) are forwarded to the manager.
    """
    scale = scale or Scale.default()
    service = make_service(primary, fallbacks, scale, **(service_kwargs or {}))
    service.fit(table, train_workload)
    return ModelLifecycleManager(
        service,
        lambda: make_estimator(primary, scale),
        DriftDetector(probe_workload),
        checkpoint_dir=checkpoint_dir,
        **manager_kwargs,
    )


#: The factory entry points, for the misspelling hints below.
FACTORY_NAMES = [
    "make_estimator",
    "make_traditional",
    "make_learned",
    "make_fallback_chain",
    "make_service",
    "make_guarded_service",
    "make_shard_service",
    "make_lifecycle_manager",
]


def __getattr__(name: str):
    """Typo hints for factory names, mirroring :func:`make_estimator`.

    ``from repro.registry import make_gaurded_service`` should fail the
    same way ``make_estimator("nauru")`` does: with the close matches
    spelled out, not a bare AttributeError.
    """
    close = get_close_matches(name, FACTORY_NAMES, n=3, cutoff=0.5)
    hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}{hint}")
