"""Logical query plans with pluggable execution backends.

This package is the evaluation seam of the engine.  KDAP consumers (star
nets, subspaces, OLAP operators, facet building) describe their work as
logical plans — small frozen trees of :class:`Scan` / :class:`RowSet` /
:class:`Filter` / :class:`MultiGroupAggregate` nodes (with
:class:`GroupAggregate` for scalar totals and, over a two-key
:class:`Partition`, pivots) — and hand them to a :class:`QueryEngine`,
which memoises results by canonical plan fingerprint and executes misses
on a pluggable :class:`ExecutionBackend`:

* ``memory`` — :class:`InMemoryBackend`, selection vectors narrowed over
  the schema's encoded fact-aligned chunks (the engine's native path);
* ``sqlite`` — :class:`SqliteBackend`, compiling plans to SQL and running
  them on a sqlite3 mirror of the warehouse (the paper's §7 direction of
  delegating KDAP aggregation to an existing engine).

Public surface::

    from repro.plan import (
        QueryEngine, ExecutionBackend, InMemoryBackend, SqliteBackend,
        BACKENDS, create_backend,
        PlanNode, Scan, RowSet, Filter, Partition,
        GroupAggregate, MultiGroupAggregate, AttrKey,
        PlanCache, cache_stats, PlanCounters, OpStats,
        compile_plan, compile_multi_plan,
    )
"""

from .backends import (
    BACKENDS,
    ExecutionBackend,
    InMemoryBackend,
    SqliteBackend,
    create_backend,
)
from .builders import (
    attr_key,
    multi_partition_plan,
    pivot_plan,
    rowset,
    subspace_aggregate_plan,
)
from .cache import PlanCache, cache_stats
from .compile import compile_multi_plan, compile_plan
from .counters import OpStats, PlanCounters
from .engine import QueryEngine
from .nodes import (
    AttrKey,
    Filter,
    GroupAggregate,
    MultiGroupAggregate,
    Partition,
    PlanNode,
    RowSet,
    Scan,
    row_source,
)

__all__ = [
    "AttrKey",
    "BACKENDS",
    "ExecutionBackend",
    "Filter",
    "GroupAggregate",
    "InMemoryBackend",
    "MultiGroupAggregate",
    "OpStats",
    "Partition",
    "PlanCache",
    "PlanCounters",
    "PlanNode",
    "QueryEngine",
    "RowSet",
    "Scan",
    "SqliteBackend",
    "attr_key",
    "cache_stats",
    "compile_multi_plan",
    "compile_plan",
    "create_backend",
    "multi_partition_plan",
    "pivot_plan",
    "row_source",
    "rowset",
    "subspace_aggregate_plan",
]
