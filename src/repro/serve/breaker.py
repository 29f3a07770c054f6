"""Circuit breaker for estimator tiers (the ByteCard-style guardrail).

A breaker watches one tier of the serving fallback chain and cuts it out
of the request path when it misbehaves repeatedly, so a broken model
stops burning the per-query deadline budget.  Classic three-state
machine:

* **CLOSED** — healthy; calls flow through.  ``failure_threshold``
  *consecutive* failures trip the breaker to OPEN.
* **OPEN** — the tier is skipped outright.  After ``recovery_seconds``
  the breaker moves to HALF_OPEN and lets probe traffic through.
* **HALF_OPEN** — calls are allowed as probes; ``probe_successes``
  consecutive successes close the breaker, any failure re-opens it.

The clock is injectable so tests (and the fault-injection harness) can
drive recovery deterministically without sleeping.

Every state transition — including the lazy OPEN -> HALF_OPEN promotion
performed when :attr:`CircuitBreaker.state` is read after the recovery
window — is emitted as a ``breaker.transition`` event on the breaker's
:class:`~repro.obs.EventLog` and counted in the metrics registry, so
tests and dashboards see the exact transition *sequence* rather than
polled snapshots.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..obs import BREAKER_TRANSITIONS, EventLog, MetricsRegistry
from ..obs import get_events as _default_events
from ..obs import get_registry as _default_registry


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery policy of one circuit breaker."""

    #: consecutive failures that trip a CLOSED breaker
    failure_threshold: int = 5
    #: seconds an OPEN breaker waits before probing (HALF_OPEN)
    recovery_seconds: float = 30.0
    #: consecutive HALF_OPEN successes needed to close again
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.recovery_seconds < 0.0:
            raise ValueError("recovery_seconds must be non-negative")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be at least 1")


class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN state machine over success/failure events."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
        events: EventLog | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        #: label attached to emitted transition events (the tier name)
        self.name = name
        self._events = events
        self._registry = registry
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_streak = 0
        self._opened_at = 0.0
        #: number of CLOSED/HALF_OPEN -> OPEN transitions observed
        self.trips = 0

    def _transition(self, new_state: BreakerState) -> None:
        old = self._state
        self._state = new_state
        events = self._events if self._events is not None else _default_events()
        events.emit(
            "breaker.transition",
            breaker=self.name,
            old=old.value,
            new=new_state.value,
        )
        registry = self._registry if self._registry is not None else _default_registry()
        registry.counter(
            BREAKER_TRANSITIONS, "Circuit-breaker state transitions"
        ).inc(breaker=self.name, old=old.value, new=new_state.value)

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state; promotes OPEN to HALF_OPEN once recovery is due."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.config.recovery_seconds
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probe_streak = 0
        return self._state

    def allows_request(self) -> bool:
        """True when the guarded tier should be attempted right now."""
        return self.state is not BreakerState.OPEN

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        state = self.state
        if state is BreakerState.HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= self.config.probe_successes:
                self._close()
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        state = self.state
        if state is BreakerState.HALF_OPEN:
            self._trip()
        else:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self._trip()

    def record_outcomes(self, failed: Sequence[bool]) -> None:
        """:meth:`record_failure` for each True, :meth:`record_success`
        for each False, in order.  A CLOSED breaker that sees no failure
        only resets its failure run, so that case (a healthy sub-batch)
        skips the per-event calls."""
        if self._state is BreakerState.CLOSED and not any(failed):
            if len(failed):
                self._consecutive_failures = 0
            return
        for failure in failed:
            if failure:
                self.record_failure()
            else:
                self.record_success()

    # ------------------------------------------------------------------
    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_streak = 0
        self.trips += 1

    def _close(self) -> None:
        self._transition(BreakerState.CLOSED)
        self._consecutive_failures = 0
        self._probe_streak = 0

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state.value!r}, trips={self.trips})"
