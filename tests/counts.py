"""The counts a test's metrics registry holds, read the way the stats
surfaces read them: from a snapshot, so reading creates no counter."""

from __future__ import annotations

from repro.plan import cache_stats
from repro.resilience import resilience_stats


def cache_counts(registry) -> dict:
    """Plan-cache hits, misses, evictions and hit rate."""
    return cache_stats(registry.snapshot()["counters"])


def resilience_counts(registry) -> dict:
    """Retries, failovers and transient errors (also by type)."""
    return resilience_stats(registry.snapshot()["counters"])
