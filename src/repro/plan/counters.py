"""Per-operator execution counters.

Every backend records, for each plan operator it executes, how often it
ran, how many rows it produced, and how much wall time it consumed — so
benchmarks can attribute cost to plan nodes rather than to whole queries.

The chunked read path adds two storage-level counters: how many
encoded column chunks an operator actually read (``chunks_scanned``) and
how many its zone maps let it discard without reading
(``chunks_skipped``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpStats:
    """Accumulated statistics for one plan operator."""

    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    batches: int = 0
    chunks_scanned: int = 0
    chunks_skipped: int = 0

    def record(self, rows: int, seconds: float, batches: int = 0,
               chunks_scanned: int = 0, chunks_skipped: int = 0) -> None:
        self.calls += 1
        self.rows += rows
        self.seconds += seconds
        self.batches += batches
        self.chunks_scanned += chunks_scanned
        self.chunks_skipped += chunks_skipped

    @property
    def rows_per_batch(self) -> float:
        """Mean rows produced per executed batch (0 when unbatched)."""
        if not self.batches:
            return 0.0
        return self.rows / self.batches


@dataclass
class PlanCounters:
    """Per-operator counters of one backend."""

    ops: dict[str, OpStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, op: str, rows: int = 0, seconds: float = 0.0,
               batches: int = 0, chunks_scanned: int = 0,
               chunks_skipped: int = 0) -> None:
        """Add one execution of ``op`` (safe from concurrent callers)."""
        with self._lock:
            stats = self.ops.get(op)
            if stats is None:
                stats = self.ops[op] = OpStats()
            stats.record(rows, seconds, batches, chunks_scanned,
                         chunks_skipped)

    @contextmanager
    def timed(self, op: str):
        """Context manager recording one timed execution of ``op``.

        The yielded slot list receives ``[rows, batches, chunks_scanned,
        chunks_skipped]`` (all default to 0 when the caller leaves them
        untouched).
        """
        out = [0, 0, 0, 0]
        start = time.perf_counter()
        try:
            yield out
        finally:
            self.record(op, out[0], time.perf_counter() - start, out[1],
                        out[2], out[3])

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot, sorted by operator name.

        Taken under the same lock :meth:`record` uses: another thread
        may be mid-record while a stats consumer snapshots, and
        an unlocked read could see one operator's ``calls`` bumped but
        not yet its ``rows`` (or a dict mutated mid-iteration).
        """
        with self._lock:
            return {
                op: {"calls": s.calls, "rows": s.rows,
                     "seconds": round(s.seconds, 6),
                     "batches": s.batches,
                     "rows_per_batch": round(s.rows_per_batch, 1),
                     "chunks_scanned": s.chunks_scanned,
                     "chunks_skipped": s.chunks_skipped}
                for op, s in sorted(self.ops.items())
            }

    def reset(self) -> None:
        """Drop all accumulated statistics (atomic against recorders)."""
        with self._lock:
            self.ops.clear()

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(s.calls for s in self.ops.values())
