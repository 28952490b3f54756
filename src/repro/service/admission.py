"""Admission control: a bounded FIFO queue feeding a fixed worker pool.

The overload story in one place.  Requests enter through
:meth:`AdmissionQueue.submit`, which *never blocks*: a request either
takes a queue slot immediately or is shed right there
(:class:`QueueFull` → HTTP 429 + ``Retry-After``).  Workers take jobs in
strict FIFO order; a job whose **enqueue deadline** expired while it
waited is shed at dequeue time (429 again — executing it would only
waste a worker on a client that has likely given up).  Draining flips
one switch: new submissions raise :class:`Draining` (→ 503) while
workers keep consuming what was already admitted.

Every transition is counted in the server's
:class:`~repro.obs.metrics.MetricsRegistry` (``kdap.service.*``), so
``/v1/statz`` reports queue depth, in-flight, and shed counts from the
same machinery the sessions use for latency histograms.

The :class:`WorkerPool` owns one long-lived
:class:`~repro.core.session.KdapSession` per worker thread — sessions
are single-caller objects and sqlite mirrors hand out per-thread
connections that live until session close, so a bounded pool of
long-lived workers is the only shape that neither races nor leaks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from ..obs.metrics import MetricsRegistry


class QueueFull(Exception):
    """The admission queue is at capacity; the request was shed."""


class Draining(Exception):
    """The server is draining; no new work is admitted."""


class Job:
    """One admitted request: a spec plus a completion latch.

    The handler thread blocks on :meth:`wait`; whichever side finishes
    first — the worker with a result, or the shedding/draining machinery
    with an error — wins, and the other side's :meth:`finish` becomes a
    no-op.  ``finish`` is therefore idempotent and thread-safe.
    """

    __slots__ = ("spec", "request_id", "enqueued_at", "deadline_at",
                 "status", "body", "_done", "_lock")

    def __init__(self, spec, request_id: str, enqueued_at: float,
                 deadline_at: float):
        self.spec = spec
        self.request_id = request_id
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        self.status: int | None = None
        self.body: dict | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()

    def finish(self, status: int, body: dict) -> bool:
        """Complete the job (first caller wins; returns False if late)."""
        with self._lock:
            if self._done.is_set():
                return False
            self.status = status
            self.body = body
            self._done.set()
            return True

    def wait(self, timeout: float) -> bool:
        """Block until the job completes (False on timeout)."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()


class AdmissionQueue:
    """Depth-bounded FIFO with per-job enqueue deadlines.

    ``submit`` is O(1) and non-blocking; ``take`` blocks a worker until
    a live job, a stop, or the poll timeout.  Expired jobs are shed
    inside ``take`` so the shedding decision and the dequeue order live
    on one lock.
    """

    def __init__(self, depth: int, registry: MetricsRegistry,
                 clock: Callable[[], float] = time.monotonic):
        self.depth = depth
        self.registry = registry
        self._clock = clock
        self._jobs: deque[Job] = deque()
        self._cond = threading.Condition()
        self._draining = False
        self._stopped = False

    def __len__(self) -> int:
        return len(self._jobs)

    @property
    def draining(self) -> bool:
        return self._draining

    def submit(self, job: Job) -> None:
        """Admit ``job`` or shed it immediately (never blocks)."""
        with self._cond:
            if self._draining or self._stopped:
                self.registry.counter(
                    "kdap.service.rejected.draining").inc()
                raise Draining("server is draining")
            if len(self._jobs) >= self.depth:
                self.registry.counter(
                    "kdap.service.shed.queue_full").inc()
                raise QueueFull(
                    f"admission queue is full ({self.depth} waiting)")
            self._jobs.append(job)
            self.registry.counter("kdap.service.admitted").inc()
            self.registry.gauge("kdap.service.queued").set(
                len(self._jobs))
            self._cond.notify()

    def take(self, timeout: float, on_shed: Callable[[Job], None]
             ) -> Job | None:
        """The next live job in FIFO order (None on timeout/stop).

        Jobs whose enqueue deadline passed while queued are handed to
        ``on_shed`` (which completes them with 429) and skipped — the
        worker keeps scanning until it finds work that is still wanted.
        """
        while True:
            with self._cond:
                while not self._jobs and not self._stopped:
                    if not self._cond.wait(timeout):
                        return None
                if not self._jobs:
                    return None
                job = self._jobs.popleft()
                self.registry.gauge("kdap.service.queued").set(
                    len(self._jobs))
            if self._clock() > job.deadline_at:
                self.registry.counter(
                    "kdap.service.shed.queue_timeout").inc()
                on_shed(job)
                continue
            return job

    def drain(self) -> None:
        """Stop admitting; already-queued jobs stay consumable."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def stop(self) -> None:
        """Wake every worker for shutdown (implies drain)."""
        with self._cond:
            self._draining = True
            self._stopped = True
            self._cond.notify_all()

    def abort_pending(self, complete: Callable[[Job], None]) -> int:
        """Empty the queue, completing each leftover via ``complete``."""
        with self._cond:
            leftovers = list(self._jobs)
            self._jobs.clear()
            self.registry.gauge("kdap.service.queued").set(0)
        for job in leftovers:
            self.registry.counter("kdap.service.aborted.drain").inc()
            complete(job)
        return len(leftovers)


class WorkerPool:
    """Fixed worker threads, each owning one session for its lifetime.

    ``session_factory(worker_index)`` builds the per-worker session
    (letting the server wire chaos/resilient backends per worker);
    ``execute(session, job)`` runs one job and must itself convert every
    engine error into an envelope — a worker thread never dies to an
    exception (a crashed worker would silently shrink capacity).
    """

    def __init__(self, queue: AdmissionQueue, workers: int,
                 session_factory, execute, registry: MetricsRegistry,
                 poll_s: float = 0.1,
                 on_shed: Callable[[Job], None] | None = None):
        self.queue = queue
        self.registry = registry
        self._execute = execute
        self._session_factory = session_factory
        self._poll_s = poll_s
        self._on_shed = on_shed
        self._stopping = False
        self.sessions: list = []
        self._threads: list[threading.Thread] = []
        self._sessions_lock = threading.Lock()
        for index in range(workers):
            thread = threading.Thread(target=self._run, args=(index,),
                                      name=f"kdap-worker-{index}",
                                      daemon=True)
            self._threads.append(thread)

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _run(self, index: int) -> None:
        session = self._session_factory(index)
        with self._sessions_lock:
            self.sessions.append(session)
        in_flight = self.registry.gauge("kdap.service.in_flight")
        try:
            while True:
                job = self.queue.take(self._poll_s, self._shed)
                if job is None:
                    if self._stopping:
                        break
                    continue
                if job.done:  # handler timed out / drain aborted it
                    continue
                in_flight.add(1)
                try:
                    self._execute(session, job)
                    self.registry.counter("kdap.service.completed").inc()
                finally:
                    in_flight.add(-1)
        finally:
            session.close()

    def _shed(self, job: Job) -> None:
        from .protocol import HTTP_SHED, error_payload

        job.finish(HTTP_SHED, error_payload(
            "shed", "request waited in the admission queue past its "
                    "enqueue deadline",
            request_id=job.request_id))
        if self._on_shed is not None:
            self._on_shed(job)  # telemetry hook (event emission)

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Stop consuming and join workers (sessions close on exit)."""
        self._stopping = True
        self.queue.stop()
        for thread in self._threads:
            if thread.is_alive():
                thread.join(join_timeout_s)

    @property
    def in_flight(self) -> float:
        """Requests executing now (reading creates no gauge)."""
        gauge = self.registry.instruments().get("kdap.service.in_flight")
        return gauge.value if gauge is not None else 0.0
