"""Threshold-triggered slow-query log.

Interactive OLAP lives or dies on tail latency; a flat p95 number says a
query was slow but not *why*.  :class:`SlowQueryLog` keeps, for every
query whose explore phase overruns a configurable threshold, the whole
attribution package: the keyword query, the chosen interpretation, the
materialisation plan's fingerprint digest, and the query's span tree.

The log is a bounded ring (oldest entries drop first) so a long-lived
session cannot grow it without bound, and is thread-safe because the
service reads a worker session's log (``/v1/slowlogz``, ``/v1/statz``)
while that worker keeps recording into it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SlowQueryRecord:
    """One over-threshold query, with everything needed to explain it."""

    query: str
    interpretation: str
    plan_fp: str
    elapsed_ms: float
    threshold_ms: float
    span_tree: dict | None = None
    """The query's span tree (None when tracing was disabled)."""
    request_id: str | None = None
    """The serving request id — also the trace id a persisted trace file
    is named after, so ``/v1/slowlogz`` entries join against
    ``/v1/eventz`` and ``--trace-dir`` (None outside the service)."""
    wall_time: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "interpretation": self.interpretation,
            "plan_fp": self.plan_fp,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "threshold_ms": self.threshold_ms,
            "span_tree": self.span_tree,
            "request_id": self.request_id,
            "wall_time": round(self.wall_time, 3),
        }

    def describe(self) -> str:
        return (f"{self.elapsed_ms:.0f} ms (threshold "
                f"{self.threshold_ms:g} ms): {self.query!r} -> "
                f"{self.interpretation} [plan {self.plan_fp}]")


class SlowQueryLog:
    """Bounded record of queries slower than ``threshold_ms``."""

    def __init__(self, threshold_ms: float, capacity: int = 64):
        if threshold_ms < 0:
            raise ValueError("threshold_ms must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self._records: deque[SlowQueryRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.observed = 0
        self.recorded = 0

    def observe(self, query: str, interpretation: str, plan_fp: str,
                elapsed_ms: float, span_tree: dict | None = None,
                request_id: str | None = None) -> bool:
        """Record the query if it overran the threshold; True when kept."""
        with self._lock:
            self.observed += 1
            if elapsed_ms <= self.threshold_ms:
                return False
            self.recorded += 1
            self._records.append(SlowQueryRecord(
                query=query, interpretation=interpretation,
                plan_fp=plan_fp, elapsed_ms=elapsed_ms,
                threshold_ms=self.threshold_ms, span_tree=span_tree,
                request_id=request_id))
            return True

    @property
    def records(self) -> tuple[SlowQueryRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot (``--stats-json`` includes it)."""
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "observed": self.observed,
                "recorded": self.recorded,
                "records": [record.as_dict()
                            for record in self._records],
            }

    def __len__(self) -> int:
        return len(self._records)
