"""Resilient query execution: budgets, deadlines, retry/failover, chaos.

KDAP is interactive — every keyword query must return *something* within
interactive latency, even when an interpretation explodes combinatorially
or a backend misbehaves.  This package provides the machinery:

* :class:`Budget` / :func:`budget_scope` — an ambient per-query contract
  (wall-clock deadline, max rows scanned, max groups, max
  interpretations) checked cooperatively by the plan layer, both
  execution backends, star-net enumeration, and facet building;
* :class:`Diagnostics` / :class:`TruncationEvent` — the record a partial
  result carries explaining what was truncated and why;
* :class:`ResilientBackend` — retry with exponential backoff plus
  automatic failover (sqlite → memory), with observable counters;
* :class:`FaultInjectingBackend` — seeded, deterministic fault injection
  for the chaos test suite and smoke benchmark.

Public surface::

    from repro.resilience import (
        Budget, budget_scope, current_budget,
        Diagnostics, TruncationEvent,
        ResilientBackend, RetryPolicy, resilience_stats,
        create_resilient_backend,
        FaultInjectingBackend,
    )
"""

from .budget import (
    Budget,
    budget_scope,
    charge_groups,
    charge_rows,
    check_deadline,
    current_budget,
)
from .diagnostics import Diagnostics, TruncationEvent
from .faults import FaultInjectingBackend
from .resilient import (
    DEFAULT_TRANSIENT,
    ResilientBackend,
    RetryPolicy,
    create_resilient_backend,
    resilience_stats,
)

__all__ = [
    "Budget",
    "DEFAULT_TRANSIENT",
    "Diagnostics",
    "FaultInjectingBackend",
    "ResilientBackend",
    "RetryPolicy",
    "TruncationEvent",
    "budget_scope",
    "charge_groups",
    "charge_rows",
    "check_deadline",
    "create_resilient_backend",
    "current_budget",
    "resilience_stats",
]
