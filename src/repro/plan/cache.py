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


HITS = "kdap.plan.cache.hits"
MISSES = "kdap.plan.cache.misses"
EVICTIONS = "kdap.plan.cache.evictions"
"""The registry counters the engine keeps for its plan cache."""


def cache_stats(counters) -> dict:
    """Plan-cache hits, misses, evictions and hit rate (0.0 when
    unused) from a registry snapshot's ``counters``."""
    hits, misses = counters.get(HITS, 0), counters.get(MISSES, 0)
    return {"hits": hits, "misses": misses,
            "evictions": counters.get(EVICTIONS, 0),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0}


_MISSING = object()


class PlanCache:
    """An LRU mapping from plan fingerprints to execution results.

    ``max_entries`` is enforced strictly: inserting into a full cache
    evicts the least-recently-used entry.  The cache counts nothing: the
    engine counts lookups and evictions in the metrics registry.
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

    def put(self, fingerprint, value) -> int:
        """Store a result, evicting LRU entries when full; returns how
        many were evicted."""
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                self._entries[fingerprint] = value
                return 0
            evicted = 0
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._entries[fingerprint] = value
            return evicted

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint) -> bool:
        return fingerprint in self._entries
