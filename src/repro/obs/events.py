"""Bounded structured event log for request-lifecycle telemetry.

A fleet operator cannot grep latency histograms: when a request was shed
or came back partial, the question is *what happened to that request* —
and the answer has to be machine-readable, bounded in memory, and cheap
enough to leave on in production.  :class:`EventLog` is a thread-safe
ring buffer of :class:`Event` records (newest win; the ring never grows
past its capacity) with an optional append-only JSONL file sink, so a
long-lived server keeps the recent tail queryable in memory while a
collector can follow the full stream on disk.

The service layer emits one event per lifecycle transition — ``admitted``
/ ``shed`` / ``rejected`` / ``started`` / ``finished`` / ``errored`` /
``aborted`` — each carrying the request id (which doubles as the trace
id: the tail sampler names persisted traces after it), the worker that
ran it, the interpretation fingerprint, the budget outcome with
truncation reasons, and any matcher notes.  The SLO tracker emits
``slo.burn`` / ``slo.recovered`` transitions into the same log, so one
``GET /v1/eventz?n=K`` (or ``repro events tail``) interleaves load
shedding, degraded answers, and objective burns on a single timeline.

Events are dicts on the wire, not a schema class per kind: kinds evolve
faster than envelopes, and the consumers (the ``/v1/eventz`` endpoint,
``repro top``'s event pane, CI artifacts) only ever treat fields as
opaque JSON.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque

logger = logging.getLogger(__name__)


class Event:
    """One structured telemetry event (immutable after ``emit``)."""

    __slots__ = ("seq", "wall_time", "kind", "fields")

    def __init__(self, seq: int, wall_time: float, kind: str,
                 fields: dict):
        self.seq = seq
        self.wall_time = wall_time
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        return {"seq": self.seq, "ts": round(self.wall_time, 6),
                "kind": self.kind, **self.fields}

    def describe(self) -> str:
        """One log-style line (``repro events tail`` default rendering)."""
        detail = " ".join(f"{key}={value}" for key, value
                          in sorted(self.fields.items())
                          if value not in (None, "", [], {}))
        return f"#{self.seq} {self.kind} {detail}".rstrip()

    def __repr__(self) -> str:
        return f"Event({self.seq}, {self.kind!r})"


class EventLog:
    """Bounded ring of :class:`Event` records with an optional JSONL sink.

    ``emit`` is O(1) under one lock: sequence assignment, ring append
    (the deque drops the oldest entry itself), and — when a sink path was
    given — one line-buffered JSONL write.  Sink failures are logged
    once and disable the sink rather than failing the request path:
    telemetry must never take down serving.

    ``clock`` is injectable so tests pin wall time.
    """

    def __init__(self, capacity: int = 512, sink_path: str | None = None,
                 clock=time.time):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.sink_path = sink_path
        self._clock = clock
        self._events: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.emitted = 0  # also the last event's sequence number
        self._sink = None
        if sink_path is not None:
            # line-buffered: every event reaches the file as it is
            # emitted, so a collector following it sees each line live
            self._sink = open(sink_path, "a", buffering=1,
                              encoding="utf-8")

    def emit(self, kind: str, /, **fields) -> Event:
        """Append one event (and mirror it to the sink, if any).

        ``kind`` is positional-only so field names can never collide
        with it; the envelope keys ``seq``/``ts``/``kind`` are reserved
        (a field by those names would be shadowed in ``as_dict``) — the
        service uses ``op`` for the request kind.
        """
        with self._lock:
            self.emitted += 1
            event = Event(self.emitted, self._clock(), kind, fields)
            self._events.append(event)
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(event.as_dict(), sort_keys=True,
                                   default=str) + "\n")
                except (OSError, ValueError) as exc:
                    logger.warning("event sink %s failed (%s); sink "
                                   "disabled", self.sink_path, exc)
                    self._close_sink()
        return event

    def tail(self, n: int = 50) -> list[dict]:
        """The newest ``n`` events, oldest first (JSON-serialisable)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        with self._lock:
            events = list(self._events)
        return [event.as_dict() for event in events[-n:]] if n else []

    def select(self, keep) -> list[dict]:
        """The retained events ``keep(event)`` accepts, oldest first —
        only those are copied out."""
        with self._lock:
            events = list(self._events)
        return [event.as_dict() for event in events if keep(event)]

    @property
    def dropped(self) -> int:
        """Events the ring has overwritten (emitted minus retained)."""
        with self._lock:
            return self.emitted - len(self._events)

    def snapshot(self) -> dict:
        """Log-level accounting (the events themselves ride ``tail``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._events),
                "emitted": self.emitted,
                "dropped": self.emitted - len(self._events),
                "sink": self.sink_path,
            }

    def _close_sink(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
            self._sink = None

    def close(self) -> None:
        """Flush and close the sink (the in-memory ring stays readable)."""
        with self._lock:
            self._close_sink()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
