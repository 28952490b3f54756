"""Service configuration: sizing, ceilings, and degradation knobs.

One :class:`ServiceConfig` pins every robustness decision the server
makes — how many worker sessions execute queries, how deep the admission
queue may grow before load is shed, how long a request may wait queued,
the server-side :class:`~repro.resilience.budget.Budget` ceilings that
clamp client hints, and how patient a drain is.  Keeping them in one
frozen dataclass means tests and the chaos harness can spin up servers
with pathological settings (queue depth 1, millisecond deadlines)
without touching the serving code.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Sanity bounds for client budget hints.  Values outside these are not
#: clamped but rejected with a 400 — a hint of 10**18 rows is a client
#: bug, not an aggressive preference.
MAX_HINT_DEADLINE_MS = 3_600_000.0  # one hour
MAX_HINT_COUNT = 1_000_000_000  # rows / groups / interpretations


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.server.KdapService` needs.

    Parameters
    ----------
    workers:
        Long-lived query worker threads.  Each owns its *own*
        :class:`~repro.core.session.KdapSession` (private metrics
        registry, plan cache, and — on sqlite — mirror connections), so
        worker count bounds both concurrency and resource fan-out.
    queue_depth:
        Admission queue capacity.  A request arriving while
        ``queue_depth`` requests already wait is shed immediately with
        429 + ``Retry-After`` — the server prefers a fast honest "try
        later" over unbounded queueing.
    enqueue_deadline_ms:
        Longest a request may sit *queued* before execution starts;
        expired entries are shed with 429 when a worker reaches them.
        This bounds queue sojourn even when the queue never fills.
    max_deadline_ms:
        Server-side ceiling on a request's wall-clock deadline.  Client
        hints are clamped to it; requests without a hint get exactly
        this deadline, so every admitted request carries a finite
        deadline.
    max_rows / max_groups / max_interpretations:
        Optional ceilings for the corresponding budget hints (None =
        no server-side cap; the hint, if any, applies unclamped).
    drain_deadline_s:
        How long a drain (SIGTERM / :meth:`KdapService.drain`) waits
        for queued + in-flight work before aborting the remainder
        with 503.
    backend:
        Execution backend name per worker session (``"memory"`` or
        ``"sqlite"``).
    resilient:
        Wrap each worker's backend in retry + failover
        (:func:`~repro.resilience.create_resilient_backend`).
    chaos_error_rate / chaos_latency_s / chaos_seed:
        When ``chaos_error_rate > 0`` or ``chaos_latency_s > 0``, each
        worker's primary backend is wrapped in a seeded
        :class:`~repro.resilience.faults.FaultInjectingBackend` *behind*
        the resilient wrapper — the benchmark's chaos mode, proving
        retries/failover and shedding compose under injected faults.
        Workers get distinct derived seeds so their fault schedules
        differ deterministically.
    materialize:
        Share one
        :class:`~repro.warehouse.materialize.MaterializationTier`
        across every worker session (default True): a full-space view
        admitted or rolled up by one worker answers all of them, and the
        pooled ``kdap.materialize.*`` counters surface in ``/v1/statz``.
        False runs workers without the tier.
    trace_dir:
        When set, each request runs under its own tracer; whether the
        Chrome trace reaches ``<trace_dir>/trace-<request_id>.json`` is
        the tail sampler's call (see ``trace_slow_ms``/``trace_head_n``;
        with telemetry off every trace is written unconditionally).
    telemetry:
        Master switch for the always-on pipeline: the structured event
        log, tail-based trace sampling, and SLO burn tracking.  False
        reverts to the bare service (no events, unconditional trace
        writes).
    event_capacity / event_path:
        Ring size of the in-memory event log and an optional JSONL file
        sink mirroring every event for external collectors.
    trace_slow_ms / trace_head_n:
        Tail-sampling policy: always persist traces slower than
        ``trace_slow_ms``; keep 1-in-``trace_head_n`` of healthy fast
        ones (0 disables head sampling).  Errored and budget-truncated
        requests are always persisted regardless.  ``trace_slow_ms`` is
        also what "slow" means for ``/v1/slowlogz``: the outcome events
        over it that the ``event_capacity`` ring still holds.
    slo_target_p95_ms / slo_error_budget / slo_burn_alert:
        The service objective: a request is *bad* when it errors or
        exceeds ``slo_target_p95_ms``; burn rate is the bad-fraction
        over a window divided by ``slo_error_budget``, alerting when
        it exceeds ``slo_burn_alert`` in both the 60 s and the 600 s
        window (:class:`~repro.obs.slo.SloPolicy`'s defaults).
    """

    workers: int = 4
    queue_depth: int = 32
    enqueue_deadline_ms: float = 2_000.0
    max_deadline_ms: float = 30_000.0
    max_rows: int | None = None
    max_groups: int | None = None
    max_interpretations: int | None = None
    drain_deadline_s: float = 10.0
    backend: str = "memory"
    resilient: bool = False
    chaos_error_rate: float = 0.0
    chaos_latency_s: float = 0.0
    chaos_seed: int = 0
    materialize: bool = True
    trace_dir: str | None = None
    telemetry: bool = True
    event_capacity: int = 512
    event_path: str | None = None
    trace_slow_ms: float = 1_000.0
    trace_head_n: int = 10
    slo_target_p95_ms: float = 1_000.0
    slo_error_budget: float = 0.01
    slo_burn_alert: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.enqueue_deadline_ms <= 0:
            raise ValueError("enqueue_deadline_ms must be positive")
        if self.max_deadline_ms <= 0:
            raise ValueError("max_deadline_ms must be positive")
        if not 0.0 <= self.chaos_error_rate <= 1.0:
            raise ValueError("chaos_error_rate must be within [0, 1]")
        if self.event_capacity < 1:
            raise ValueError("event_capacity must be at least 1")
        if self.trace_head_n < 0:
            raise ValueError("trace_head_n must be non-negative")

    @property
    def chaotic(self) -> bool:
        """True when fault injection is wired into worker backends."""
        return self.chaos_error_rate > 0.0 or self.chaos_latency_s > 0.0
