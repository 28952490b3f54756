"""Retry, backoff, and backend failover.

:class:`ResilientBackend` wraps a primary
:class:`~repro.plan.backends.ExecutionBackend` and makes its failure
modes invisible to the engine: transient errors are retried with
exponential backoff, and when the primary keeps failing the wrapper
fails over to a fallback backend (the ladder the CLI uses is
``sqlite → memory``: the in-memory interpreter evaluates the same
logical plans over the same warehouse, so failover loses no fidelity).

Every retry and failover is counted in :class:`ResilienceStats`, which
``explore --stats`` and the chaos-mode smoke benchmark surface, so the
resilience machinery is observable rather than silently papering over a
misbehaving backend.
"""

from __future__ import annotations

import logging
import sqlite3
import time
from dataclasses import dataclass, field

from ..obs.metrics import current_registry
from ..obs.tracer import current_tracer
from ..relational.errors import (
    BackendUnavailableError,
    TransientBackendError,
)
from .budget import current_budget

logger = logging.getLogger(__name__)

#: Error types retried by default: explicitly transient engine errors
#: plus sqlite-level operational failures (locked database, I/O).
DEFAULT_TRANSIENT = (TransientBackendError, sqlite3.OperationalError)


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry one backend."""

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    transient: tuple[type[BaseException], ...] = DEFAULT_TRANSIENT

    def delays(self):
        """Backoff delay before each retry (``max_attempts - 1`` values)."""
        delay = self.base_delay_s
        for _ in range(max(self.max_attempts - 1, 0)):
            yield delay
            delay *= self.multiplier


@dataclass
class ResilienceStats:
    """Counters describing how hard the wrapper had to work."""

    retries: int = 0
    failovers: int = 0
    transient_errors: int = 0
    last_error: str = ""
    errors_by_type: dict[str, int] = field(default_factory=dict)

    def note_error(self, exc: BaseException) -> None:
        self.transient_errors += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        name = type(exc).__name__
        self.errors_by_type[name] = self.errors_by_type.get(name, 0) + 1
        current_registry().counter(
            "kdap.resilience.transient_errors").inc()

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot (chaos-mode CI artifact)."""
        return {
            "retries": self.retries,
            "failovers": self.failovers,
            "transient_errors": self.transient_errors,
            "last_error": self.last_error,
            "errors_by_type": dict(sorted(self.errors_by_type.items())),
        }


class ResilientBackend:
    """An :class:`ExecutionBackend` that retries and fails over.

    Parameters
    ----------
    primary:
        The preferred backend.
    fallback:
        A backend instance *or* zero-argument factory built lazily on
        first failover; None disables failover.
    policy:
        Retry/backoff configuration.
    sleep:
        Injectable sleep (tests and the chaos harness pass a no-op).

    Once a failover happens the wrapper stays on the fallback for the
    rest of its life — flapping back to a backend that just failed
    repeatedly would trade a known-good answer for more retries.
    """

    def __init__(self, primary, fallback=None,
                 policy: RetryPolicy | None = None, sleep=time.sleep):
        self.primary = primary
        self._fallback_source = fallback
        self.policy = policy or RetryPolicy()
        self.resilience = ResilienceStats()
        self._sleep = sleep
        self.active = primary
        self._closed = False

    # -- ExecutionBackend protocol -------------------------------------
    @property
    def name(self) -> str:
        return f"resilient({self.active.name})"

    @property
    def counters(self):
        """The *active* backend's per-operator counters (post-failover
        these are the fallback's)."""
        return self.active.counters

    def materialize(self, plan):
        return self._call("materialize", plan)

    def execute(self, plan):
        return self._call("execute", plan)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.primary.close()
        if self.active is not self.primary:
            self.active.close()

    # -- retry / failover ladder ---------------------------------------
    def _call(self, op: str, plan):
        last_error = self._attempt_all(self.active, op, plan)
        if isinstance(last_error, Exception):
            fallback = self._promote_fallback()
            if fallback is not None:
                last_error = self._attempt_all(fallback, op, plan)
                if not isinstance(last_error, Exception):
                    return last_error[0]
            raise BackendUnavailableError(
                f"{op} failed after {self.policy.max_attempts} attempts "
                f"and {'failover' if fallback is not None else 'no fallback'}"
            ) from last_error
        return last_error[0]

    def _attempt_all(self, backend, op: str, plan):
        """Run ``op`` with retries; a 1-tuple result on success, the last
        transient error on failure (non-transient errors propagate).

        Every attempt — including the first — runs inside a
        ``retry.attempt`` span, so a traced query shows the whole retry
        ladder as child spans with error tags under the originating
        query span.
        """
        tracer = current_tracer()
        delays = list(self.policy.delays()) + [None]
        last: Exception | None = None
        for attempt, delay in enumerate(delays, 1):
            with tracer.span("retry.attempt", backend=backend.name,
                             op=op, attempt=attempt) as span:
                try:
                    return (getattr(backend, op)(plan),)
                except self.policy.transient as exc:
                    span.set_error(exc)
                    self.resilience.note_error(exc)
                    last = exc
            if delay is None:
                break
            if not self._deadline_allows(delay):
                break
            self.resilience.retries += 1
            current_registry().counter("kdap.resilience.retries").inc()
            logger.debug("retrying %s on %s after %s: %s",
                         op, backend.name, delay, last)
            self._sleep(delay)
        return last

    def _deadline_allows(self, delay_s: float) -> bool:
        """False when backing off would sleep past the ambient deadline —
        better to fail over (or give up) immediately than doze through
        the caller's deadline."""
        budget = current_budget()
        if budget is None:
            return True
        remaining = budget.remaining_ms()
        return remaining is None or remaining > delay_s * 1000.0

    def _promote_fallback(self):
        """Switch to the fallback backend (building it on first use)."""
        if self.active is not self.primary:
            return None  # already failed over; nowhere further to go
        source = self._fallback_source
        if source is None:
            return None
        with current_tracer().span("backend.failover",
                                   from_backend=self.primary.name) as span:
            fallback = source() if callable(source) else source
            span.set_tag("to_backend", fallback.name)
        self.resilience.failovers += 1
        current_registry().counter("kdap.resilience.failovers").inc()
        logger.warning("failing over from %s to %s",
                       self.primary.name, fallback.name)
        self.active = fallback
        return fallback


def create_resilient_backend(schema, backend: str = "sqlite",
                             policy: RetryPolicy | None = None,
                             sleep=time.sleep) -> ResilientBackend:
    """The standard failover ladder for a warehouse: ``backend`` as the
    primary with an in-memory fallback (none when the primary already is
    the in-memory interpreter)."""
    from ..plan.backends import InMemoryBackend, create_backend

    primary = create_backend(schema, backend)
    fallback = (None if primary.name == "memory"
                else (lambda: InMemoryBackend(schema)))
    return ResilientBackend(primary, fallback=fallback, policy=policy,
                            sleep=sleep)
