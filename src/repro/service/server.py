"""The concurrent KDAP HTTP service (stdlib-only).

:class:`KdapService` turns one immutable warehouse into a multi-client
JSON service::

    POST /v1/explore        {"query": "...", "pick": 1, "budget": {...}}
    POST /v1/differentiate  {"query": "...", "limit": 10, ...}
    POST /v1/explain        {"query": "...", "pick": 1, ...}
    GET  /v1/healthz        liveness + overload state
    GET  /v1/statz          admission counters, latency, SLO, per-worker
    GET  /v1/metricz        Prometheus text exposition (fleet rollup)
    GET  /v1/eventz?n=K     newest K structured lifecycle events
    GET  /v1/slowlogz       newest outcome events over trace_slow_ms

The request path is admission → clamp → execute → envelope:

1. the HTTP handler thread parses strictly (:func:`~repro.service.
   protocol.parse_request`; any client defect → 400) and submits to the
   bounded admission queue — full queue → 429 + ``Retry-After``,
   draining → 503;
2. a worker takes the job FIFO (shedding entries whose enqueue deadline
   lapsed), builds the per-request budget by clamping client hints
   against server ceilings, and executes on its *own* long-lived
   :class:`~repro.core.session.KdapSession`;
3. engine errors become envelope statuses via the CLI taxonomy
   (deadline→504, backend→502, budget-partial→**200** with
   ``"partial": true`` + diagnostics) — a client bug or an overloaded
   server never produces a traceback or a hung connection.

One session per worker gives each worker a private metrics registry and
plan cache (no cross-request smearing; the text index *is* shared — it
is immutable) and respects the sqlite mirror's connection lifetime.
``/v1/statz`` rolls the per-worker registries up next to the server's
own admission/latency instruments.

Shutdown is a drain, not a drop: :meth:`KdapService.shutdown` stops
admitting (503 + ``Retry-After``), lets queued and in-flight work finish
within ``drain_deadline_s``, aborts the remainder with 503, then closes
sessions and the listener.  Trace files are written atomically (tmp +
``os.replace``) so a drain-deadline exit never leaves truncated JSON
under ``--trace-dir``.

With ``telemetry`` on (the default) the service also runs the always-on
pipeline: every lifecycle transition lands in a bounded
:class:`~repro.obs.events.EventLog`, full traces are kept only when the
:class:`~repro.obs.sampling.TailSampler` says they matter, and a
:class:`~repro.obs.slo.SloTracker` watches the latency/error objective
and emits burn events.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core import BELLWETHER, SURPRISE, KdapSession, RankingMethod
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.promexport import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    rollup_registries,
)
from ..obs.sampling import SamplingPolicy, TailSampler
from ..obs.slo import SloPolicy, SloTracker
from ..obs.tracer import Tracer, current_tracer, request_scope, \
    tracing_scope
from ..plan.backends import InMemoryBackend, create_backend
from ..plan.cache import cache_stats
from ..relational.errors import (
    BackendError,
    BudgetExceeded,
    DeadlineExceeded,
    RelationalError,
)
from ..resilience import (
    FaultInjectingBackend,
    ResilientBackend,
    create_resilient_backend,
    resilience_stats,
)
from ..resilience.diagnostics import Diagnostics
from ..textindex.index import AttributeTextIndex
from .admission import AdmissionQueue, Draining, Job, QueueFull, WorkerPool
from .config import ServiceConfig
from .protocol import (
    HTTP_DRAINING,
    HTTP_SHED,
    RETRY_AFTER_S,
    RequestError,
    differentiate_payload,
    error_payload,
    explore_payload,
    make_budget,
    parse_request,
)

logger = logging.getLogger(__name__)

ROUTES = {
    "/v1/explore": "explore",
    "/v1/differentiate": "differentiate",
    "/v1/explain": "explain",
}

MAX_BODY_BYTES = 1_000_000

#: Bucket edges for count-valued histograms (plan calls per request).
COUNT_BOUNDARIES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                    500.0, 1000.0, 5000.0, 20000.0)


class KdapService:
    """One warehouse, one admission queue, N worker sessions."""

    def __init__(self, schema, config: ServiceConfig | None = None,
                 index: AttributeTextIndex | None = None):
        self.schema = schema
        self.config = config or ServiceConfig()
        if index is None:
            index = AttributeTextIndex()
            index.index_database(schema.database, schema.searchable)
        self.index = index
        self.registry = MetricsRegistry()
        # one materialization tier shared by every worker session: a
        # view admitted (or lattice-derived) under one worker answers
        # all of them, and admission history pools across the fleet
        if self.config.materialize:
            from ..warehouse.materialize import MaterializationTier

            self.tier = MaterializationTier(schema)
        else:
            self.tier = None
        # the always-on telemetry pipeline (config.telemetry=False
        # reverts to the bare service: no events, no sampling, no SLO —
        # and unconditional trace writes)
        if self.config.telemetry:
            self.events: EventLog | None = EventLog(
                capacity=self.config.event_capacity,
                sink_path=self.config.event_path)
            self.sampler: TailSampler | None = (
                TailSampler(SamplingPolicy(
                    slow_ms=self.config.trace_slow_ms,
                    head_n=self.config.trace_head_n),
                    registry=self.registry)
                if self.config.trace_dir is not None else None)
            self.slo: SloTracker | None = SloTracker(
                SloPolicy(
                    target_p95_ms=self.config.slo_target_p95_ms,
                    error_budget=self.config.slo_error_budget,
                    burn_alert=self.config.slo_burn_alert),
                event_log=self.events)
        else:
            self.events = None
            self.sampler = None
            self.slo = None
        self.queue = AdmissionQueue(self.config.queue_depth, self.registry)
        self.pool = WorkerPool(self.queue, self.config.workers,
                               self._build_session, self._execute,
                               self.registry,
                               on_shed=self._on_queue_timeout)
        self.state = "created"
        self._started_at = time.monotonic()
        self._request_seq = itertools.count(1)
        self._httpd: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        if self.config.trace_dir is not None:
            os.makedirs(self.config.trace_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0
              ) -> tuple[str, int]:
        """Bind, start workers and the accept loop; returns (host, port).

        ``port=0`` binds an ephemeral port (tests run many servers).
        """
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="kdap-http", daemon=True)
        self._serve_thread.start()
        self.state = "serving"
        self._started_at = time.monotonic()
        bound = self._httpd.server_address
        logger.info("kdap service on %s:%d (%d workers, queue depth %d)",
                    bound[0], bound[1], self.config.workers,
                    self.config.queue_depth)
        return bound[0], bound[1]

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("service is not started")
        return self._httpd.server_address[1]

    def __enter__(self) -> "KdapService":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def drain(self) -> int:
        """Stop admitting; wait for queued + in-flight work, then abort
        the leftovers with 503.  Returns the number aborted."""
        self.state = "draining"
        self.queue.drain()
        deadline = time.monotonic() + self.config.drain_deadline_s
        while time.monotonic() < deadline:
            if not len(self.queue) and self.pool.in_flight == 0:
                break
            time.sleep(0.02)
        aborted = self.queue.abort_pending(self._abort_job)
        if aborted:
            logger.warning("drain deadline hit: aborted %d queued "
                           "request(s) with 503", aborted)
        return aborted

    def _abort_job(self, job: Job) -> None:
        job.finish(HTTP_DRAINING, error_payload(
            "draining", "server shut down before this request ran"))
        if self.events is not None:
            self.events.emit("aborted", request_id=job.request_id,
                             op=job.spec.kind, reason="drain_deadline")

    def _on_queue_timeout(self, job: Job) -> None:
        if self.events is not None:
            self.events.emit("shed", request_id=job.request_id,
                             op=job.spec.kind, reason="queue_timeout")

    def shutdown(self) -> None:
        """Graceful stop: drain, then stop workers and the listener."""
        with self._shutdown_lock:
            if self.state == "stopped":
                return
            if self.state != "created":
                self.drain()
            self.pool.stop()
            if self._httpd is not None:
                self._httpd.shutdown()
                self._httpd.server_close()
            if self.events is not None:
                self.events.close()  # flush the JSONL sink; ring stays
            self.state = "stopped"

    # ------------------------------------------------------------------
    # per-worker sessions
    # ------------------------------------------------------------------
    def _build_session(self, worker_index: int) -> KdapSession:
        """The session a worker owns for its whole life.

        Chaos mode wraps the primary in a per-worker-seeded
        :class:`FaultInjectingBackend` *behind* the resilient wrapper,
        with a clean in-memory fallback — so injected faults exercise
        the retry/failover ladder instead of surfacing to clients.
        """
        config = self.config
        if config.chaotic:
            primary = FaultInjectingBackend(
                create_backend(self.schema, config.backend),
                error_rate=config.chaos_error_rate,
                latency_s=config.chaos_latency_s,
                seed=config.chaos_seed + worker_index)
            backend = ResilientBackend(
                primary, fallback=lambda: InMemoryBackend(self.schema))
        elif config.resilient:
            backend = create_resilient_backend(self.schema, config.backend)
        else:
            backend = config.backend
        return KdapSession(self.schema, index=self.index, backend=backend,
                           materialize=(self.tier if self.tier is not None
                                        else False))

    # ------------------------------------------------------------------
    # the request path (handler thread side)
    # ------------------------------------------------------------------
    def submit(self, kind: str, body: bytes
               ) -> tuple[int, dict, dict]:
        """Parse → admit → wait; returns (status, payload, headers)."""
        request_id = f"r{next(self._request_seq):06d}"
        headers = {"X-Request-Id": request_id}
        try:
            spec = parse_request(kind, body)
        except RequestError as exc:
            return 400, self._finalize(request_id, exc.payload()), headers
        now = time.monotonic()
        job = Job(spec, request_id, now,
                  now + self.config.enqueue_deadline_ms / 1000.0)
        retry_after = str(RETRY_AFTER_S)
        try:
            self.queue.submit(job)
        except Draining:
            headers["Retry-After"] = retry_after
            if self.events is not None:
                self.events.emit("rejected", request_id=request_id,
                                 op=kind, reason="draining")
            return HTTP_DRAINING, self._finalize(request_id, error_payload(
                "draining", "server is draining; retry elsewhere"
            )), headers
        except QueueFull as exc:
            headers["Retry-After"] = retry_after
            if self.events is not None:
                self.events.emit("shed", request_id=request_id,
                                 op=kind, reason="queue_full")
            return HTTP_SHED, self._finalize(request_id, error_payload(
                "overloaded", str(exc))), headers
        if self.events is not None:
            self.events.emit("admitted", request_id=request_id,
                             op=kind, query=spec.query)
        if not job.wait(self._wait_timeout_s(spec)):
            # belt and braces: the per-request deadline should always fire
            # first, but a handler must never hang on a lost job
            job.finish(504, error_payload(
                "timeout", "request did not complete in time"))
        return job.status, self._finalize(request_id, job.body), headers

    @staticmethod
    def _finalize(request_id: str, body: dict) -> dict:
        return {"request_id": request_id, **(body or {})}

    def _wait_timeout_s(self, spec) -> float:
        """Upper bound on a handler's wait: queue sojourn + the clamped
        execution deadline + slack for envelope building."""
        hint = spec.budget_hints.get("deadline_ms")
        deadline_ms = (self.config.max_deadline_ms if hint is None
                       else min(hint, self.config.max_deadline_ms))
        return (self.config.enqueue_deadline_ms + deadline_ms) / 1000.0 \
            + 30.0

    # ------------------------------------------------------------------
    # the request path (worker side)
    # ------------------------------------------------------------------
    def _execute(self, session: KdapSession, job: Job) -> None:
        spec = job.spec
        queue_wait_s = time.monotonic() - job.enqueued_at
        budget = make_budget(spec, self.config)
        tracer = (Tracer() if self.config.trace_dir is not None else None)
        calls_before = session.engine.counters.total_calls
        worker = threading.current_thread().name
        if self.events is not None:
            self.events.emit("started", request_id=job.request_id,
                             op=spec.kind, worker=worker,
                             queue_wait_ms=round(queue_wait_s * 1000.0, 3))
        started = time.perf_counter()
        try:
            with request_scope(job.request_id), tracing_scope(tracer):
                with current_tracer().span(
                        "request", id=job.request_id, kind=spec.kind,
                        query=spec.query) as span:
                    status, body = self._dispatch(session, spec, budget)
                    span.set_tag("status", status)
        except DeadlineExceeded as exc:
            status, body = 504, error_payload(
                "deadline", str(exc),
                diagnostics=Diagnostics.from_budget(budget).as_dict())
        except BudgetExceeded as exc:
            # normally the session degrades in place; an escaped budget
            # error still honours the taxonomy: 200 + partial flag,
            # with the diagnostics standing in for the missing result
            status, body = 200, {
                "partial": True,
                "diagnostics": Diagnostics.from_budget(budget).as_dict(),
                "error": {"type": "budget", "message": str(exc)},
            }
        except BackendError as exc:
            status, body = 502, error_payload("backend", str(exc))
        except RelationalError as exc:
            status, body = 500, error_payload("engine", str(exc))
        except Exception as exc:  # noqa: BLE001 - worker must survive
            logger.exception("request %s crashed", job.request_id)
            status, body = 500, error_payload(
                "internal", f"unexpected {type(exc).__name__}")
        elapsed_s = time.perf_counter() - started
        elapsed_ms = elapsed_s * 1000.0
        self._observe(spec.kind, status, elapsed_s, queue_wait_s,
                      session.engine.counters.total_calls - calls_before)
        if self.slo is not None:
            self.slo.observe(elapsed_ms=elapsed_ms, error=status >= 500)
        trace_reason = None
        if tracer is not None:
            if self.sampler is not None:
                decision = self.sampler.decide(
                    status=status, elapsed_ms=elapsed_ms,
                    truncated=budget.truncated)
                trace_reason = decision.reason
                if decision.persist:
                    self._write_trace(tracer, job.request_id)
            else:
                self._write_trace(tracer, job.request_id)
        if self.events is not None:
            self._emit_outcome(job, spec, status, body, elapsed_ms,
                               queue_wait_s, worker, budget, trace_reason)
        job.finish(status, body)

    def _emit_outcome(self, job: Job, spec, status: int, body,
                      elapsed_ms: float, queue_wait_s: float,
                      worker: str, budget, trace_reason: str | None
                      ) -> None:
        """One ``finished``/``errored`` event carrying the attribution
        package: query text, fingerprint, budget outcome, truncation
        reasons, matcher notes, and the trace-persist decision (the
        request id in every event doubles as the trace id).  An outcome
        over ``trace_slow_ms`` also counts as slow for ``/v1/slowlogz``."""
        fields = {
            "request_id": job.request_id,
            "op": spec.kind,
            "query": spec.query,
            "status": status,
            "elapsed_ms": round(elapsed_ms, 3),
            "queue_wait_ms": round(queue_wait_s * 1000.0, 3),
            "worker": worker,
        }
        if isinstance(body, dict):
            if body.get("partial"):
                fields["partial"] = True
            fingerprint = self._fingerprint(body)
            if fingerprint is not None:
                fields["interpretation_fp"] = fingerprint
            error = body.get("error")
            if isinstance(error, dict) and error.get("notes"):
                fields["notes"] = list(error["notes"])[:5]
        if budget.truncated:
            fields["truncation"] = sorted(
                {event.reason for event in budget.events})
        if budget.notes and "notes" not in fields:
            fields["notes"] = list(budget.notes)[:5]
        if trace_reason is not None:
            fields["trace"] = trace_reason
        if fields["elapsed_ms"] > self.config.trace_slow_ms:
            self.registry.counter("kdap.service.slow").inc()
        self.events.emit("errored" if status >= 500 else "finished",
                         **fields)

    @staticmethod
    def _fingerprint(body: dict) -> str | None:
        """A short stable digest of the chosen interpretation(s), so an
        operator can group events by what the keywords resolved to
        without shipping the whole interpretation over the event log."""
        subject = body.get("interpretation") or body.get("interpretations")
        if subject is None and isinstance(body.get("explain"), dict):
            subject = body["explain"].get("interpretation")
        if subject is None:
            return None
        blob = json.dumps(subject, sort_keys=True, default=str)
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:10]

    def _dispatch(self, session: KdapSession, spec, budget
                  ) -> tuple[int, dict]:
        measure = SURPRISE if spec.measure == "surprise" else BELLWETHER
        if spec.kind == "differentiate":
            ranked = session.differentiate(
                spec.query, method=RankingMethod(spec.method),
                limit=spec.limit, preview_sizes=spec.preview_sizes,
                budget=budget, matchers=spec.matchers)
            if not ranked:
                return 404, self._no_result(
                    session, "no interpretation found")
            return 200, differentiate_payload(ranked, budget)
        if spec.kind == "explore":
            ranked = session.differentiate(
                spec.query, limit=max(spec.pick, 5), budget=budget,
                matchers=spec.matchers)
            if len(ranked) < spec.pick:
                return 404, self._no_result(
                    session,
                    f"only {len(ranked)} interpretation(s) found")
            result = session.explore(ranked[spec.pick - 1],
                                     interestingness=measure,
                                     budget=budget)
            return 200, explore_payload(result)
        # explain: reuses the ambient per-request tracer when one is
        # installed, so the explained spans land in the request trace
        result = session.explain(spec.query, pick=spec.pick,
                                 interestingness=measure, budget=budget,
                                 matchers=spec.matchers)
        if result is None:
            return 404, self._no_result(
                session,
                f"fewer than {spec.pick} interpretations found")
        return 200, {"explain": result.as_dict(),
                     "partial": budget.truncated}

    @staticmethod
    def _no_result(session: KdapSession, message: str) -> dict:
        """A 404 body that explains *why* keywords produced nothing:
        per-keyword matcher notes ride along when the chain dropped any."""
        report = session.last_match_report
        notes = list(report.notes()) if report is not None else []
        return error_payload("no_result", message, notes=notes)

    def _observe(self, kind: str, status: int, elapsed_s: float,
                 queue_wait_s: float, plan_calls: int) -> None:
        self.registry.histogram(f"kdap.service.seconds.{kind}").observe(
            elapsed_s)
        self.registry.histogram("kdap.service.queue_wait_s").observe(
            queue_wait_s)
        self.registry.histogram(
            "kdap.service.plan_calls",
            boundaries=COUNT_BOUNDARIES).observe(plan_calls)
        self.registry.counter(f"kdap.service.status.{status}").inc()

    def _write_trace(self, tracer: Tracer, request_id: str) -> None:
        """Atomically persist one request's Chrome trace.

        Write-to-tmp + ``os.replace`` so the final path either holds
        complete JSON or does not exist — a drain-deadline abort (or
        any exit) mid-write can no longer leave a truncated trace file
        that chokes ``chrome://tracing`` and the CI artifact checks.
        """
        path = os.path.join(self.config.trace_dir,
                            f"trace-{request_id}.json")
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(tracer.to_chrome_trace(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:  # tracing must never fail a request
            logger.warning("could not write %s: %s", path, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # introspection endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> tuple[int, dict]:
        healthy = self.state == "serving"
        return (200 if healthy else HTTP_DRAINING), {
            "status": "ok" if healthy else self.state,
            "state": self.state,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.workers,
            "queued": len(self.queue),
            "in_flight": self.pool.in_flight,
        }

    def statz(self) -> dict:
        """Server admission/latency instruments plus per-worker session
        stats, a cross-session rollup, and the telemetry sections (SLO
        state, event-log accounting, trace-sampling accounting, slow-log
        counts) when telemetry is on."""
        sessions = list(self.pool.sessions)
        workers = []
        for position, session in enumerate(sessions):
            snapshot = session.metrics.snapshot()
            counters = snapshot["counters"]
            cache = cache_stats(counters)
            entry = {
                "worker": position,
                "backend": session.engine.backend_name,
                "plan_cache": {key: cache[key]
                               for key in ("hits", "misses", "evictions")},
                "metrics": snapshot,
            }
            last_error = getattr(session.engine.backend, "last_error", None)
            if last_error is not None:
                entry["resilience"] = resilience_stats(counters, last_error)
            workers.append(entry)
        # the worker registries rolled up: counters sum, and histogram
        # buckets sum elementwise, so the rollup's count/sum/extremes are
        # fleet-true, not per-worker (quantile summaries for the merged
        # view ride /v1/metricz)
        merged = rollup_registries([session.metrics for session in sessions])
        rollup = merged["counters"]
        histogram_rollup = {
            name: {"count": state["count"],
                   "sum": round(state["sum"], 6),
                   "min": state["min"], "max": state["max"]}
            for name, state in sorted(merged["histograms"].items())}
        out = {
            "state": self.state,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "config": {
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "enqueue_deadline_ms": self.config.enqueue_deadline_ms,
                "max_deadline_ms": self.config.max_deadline_ms,
                "backend": self.config.backend,
                "chaotic": self.config.chaotic,
                "telemetry": self.config.telemetry,
            },
            "service": self.registry.snapshot(),
            "workers": workers,
            "rollup": {"counters": dict(sorted(rollup.items())),
                       "histograms": histogram_rollup,
                       "resilience": {
                           name: rollup.get(f"kdap.resilience.{name}", 0)
                           for name in ("retries", "failovers",
                                        "transient_errors")},
                       **({"materialize": self.tier.snapshot()}
                          if self.tier is not None else {})},
        }
        if self.slo is not None:
            out["slo"] = self.slo.status()
        if self.events is not None:
            out["events"] = self.events.snapshot()
            out["slowlog"] = self._slowlog(out["service"]["counters"],
                                           self._slow_events())
        if self.sampler is not None:
            out["sampling"] = self.sampler.snapshot()
        return out

    def _slow_events(self) -> list[dict]:
        """The ``finished``/``errored`` events still in the ring whose
        ``elapsed_ms`` exceeds ``trace_slow_ms``, oldest first.  The ring
        holds the last ``event_capacity`` events of every kind, so this
        window is what the slow list sees; the JSONL sink and trace files
        keep older slow requests."""
        threshold = self.config.trace_slow_ms
        return self.events.select(
            lambda event: event.kind in ("finished", "errored")
            and event.fields["elapsed_ms"] > threshold)

    def _slowlog(self, counters: dict, slow: list[dict]) -> dict:
        """Slow-list accounting: requests with an outcome, those over the
        threshold (a registry counter, so it outlives the ring), and
        those the ring still holds."""
        observed = sum(value for name, value in counters.items()
                       if name.startswith("kdap.service.status."))
        return {"threshold_ms": self.config.trace_slow_ms,
                "observed": observed,
                "recorded": counters.get("kdap.service.slow", 0),
                "retained": len(slow)}

    def metricz(self) -> str:
        """The Prometheus exposition: server registry + every worker
        registry rolled up into one fleet view."""
        registries = [self.registry] + [session.metrics for session
                                        in list(self.pool.sessions)]
        return render_prometheus(registries)

    def eventz(self, n: int = 50) -> tuple[int, dict]:
        """The newest ``n`` structured events plus log accounting."""
        if self.events is None:
            return 404, error_payload(
                "telemetry_disabled",
                "the event log is off (telemetry=False)")
        return 200, {"log": self.events.snapshot(),
                     "events": self.events.tail(n)}

    def slowlogz(self) -> tuple[int, dict]:
        """The slow outcome events still in the event ring (at most the
        newest 64) plus their accounting.

        A filter over the event log, not a store of its own: each record
        is a ``finished``/``errored`` event over ``trace_slow_ms`` — the
        threshold above which the tail sampler persists the trace, so a
        record's ``request_id`` names its ``trace-<id>.json`` whenever
        ``trace_dir`` is set.
        """
        if self.events is None:
            return 404, error_payload(
                "telemetry_disabled",
                "the event log is off (telemetry=False)")
        slow = self._slow_events()
        return 200, {**self._slowlog(self.registry.snapshot()["counters"],
                                     slow),
                     "records": slow[-64:]}


def _make_handler(service: KdapService):
    """A handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self) -> None:  # noqa: N802 - stdlib API
            kind = ROUTES.get(self.path)
            if kind is None:
                self._send(404, error_payload(
                    "not_found", f"no such endpoint: {self.path}"))
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._send(400, error_payload(
                    "bad_request", "invalid Content-Length"))
                return
            if length > MAX_BODY_BYTES:
                self._send(400, error_payload(
                    "bad_request",
                    f"body too large (> {MAX_BODY_BYTES} bytes)"))
                return
            body = self.rfile.read(length) if length else b""
            status, payload, headers = service.submit(kind, body)
            self._send(status, payload, headers)

        def do_GET(self) -> None:  # noqa: N802 - stdlib API
            parsed = urllib.parse.urlsplit(self.path)
            path = parsed.path
            if path == "/v1/healthz":
                status, payload = service.healthz()
                self._send(status, payload)
            elif path == "/v1/statz":
                self._send(200, service.statz())
            elif path == "/v1/metricz":
                self._send_text(200, service.metricz(),
                                PROMETHEUS_CONTENT_TYPE)
            elif path == "/v1/eventz":
                query = urllib.parse.parse_qs(parsed.query)
                try:
                    n = int(query.get("n", ["50"])[0])
                    if n < 0:
                        raise ValueError
                except ValueError:
                    self._send(400, error_payload(
                        "bad_request",
                        "n must be a non-negative integer"))
                    return
                status, payload = service.eventz(n)
                self._send(status, payload)
            elif path == "/v1/slowlogz":
                status, payload = service.slowlogz()
                self._send(status, payload)
            else:
                self._send(404, error_payload(
                    "not_found", f"no such endpoint: {self.path}"))

        def _send(self, status: int, payload: dict,
                  headers: dict | None = None) -> None:
            self._send_bytes(status, json.dumps(payload).encode("utf-8"),
                             "application/json", headers)

        def _send_text(self, status: int, text: str,
                       content_type: str) -> None:
            self._send_bytes(status, text.encode("utf-8"), content_type)

        def _send_bytes(self, status: int, data: bytes,
                        content_type: str,
                        headers: dict | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hung up; nothing to salvage

        def log_message(self, fmt: str, *args) -> None:
            logger.debug("%s " + fmt, self.address_string(), *args)

    return Handler


def serve_until_signalled(service: KdapService, host: str, port: int
                          ) -> int:
    """Run ``service`` until SIGTERM/SIGINT, then drain and stop.

    The signal handler only sets an event — the drain itself runs on the
    main thread, so in-flight requests finish (or are 503-aborted at the
    drain deadline) before the process exits.  Returns 0.
    """
    import signal

    stop = threading.Event()

    def _request_stop(signum, _frame):
        logger.info("signal %d: draining", signum)
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    try:
        bound_host, bound_port = service.start(host, port)
        print(f"kdap service listening on http://{bound_host}:{bound_port}"
              f" ({service.config.workers} workers, queue depth "
              f"{service.config.queue_depth})")
        stop.wait()
        service.shutdown()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
