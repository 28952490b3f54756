"""Fingerprint-keyed plan-result caching with LRU eviction.

The cache is deliberately backend-agnostic: keys are plan fingerprints
(:meth:`repro.plan.nodes.PlanNode.fingerprint`), values are whatever the
backend produced (row tuples, group dicts, scalars).  Any backend plugged
into the engine therefore benefits from the same memoisation, and two
consumers that build semantically identical plans share one entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.total if self.total else 0.0


_MISSING = object()


class PlanCache:
    """An LRU mapping from plan fingerprints to execution results.

    ``max_entries`` is enforced strictly: inserting into a full cache
    evicts the least-recently-used entry (and counts it in
    :attr:`CacheStats.evictions`).  :meth:`get` counts nothing: the
    engine counts each lookup through :meth:`record`, in the same place
    it updates the metrics registry.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        # LRU reordering mutates the OrderedDict on *reads*, so lookups
        # from concurrent callers must not interleave with each other or
        # with inserts
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, fingerprint, default=None):
        """The cached result, or ``default``; refreshes LRU order.  Pass a
        private sentinel as ``default`` when None is a legitimate cached
        value."""
        with self._lock:
            value = self._entries.get(fingerprint, _MISSING)
            if value is _MISSING:
                return default
            self._entries.move_to_end(fingerprint)
            return value

    def record(self, hit: bool) -> None:
        """Count one lookup as a hit or a miss."""
        with self._lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1

    def put(self, fingerprint, value) -> None:
        """Store a result, evicting the LRU entry when full."""
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                self._entries[fingerprint] = value
                return
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[fingerprint] = value

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint) -> bool:
        return fingerprint in self._entries
