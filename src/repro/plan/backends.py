"""Pluggable execution backends for logical plans.

An :class:`ExecutionBackend` turns logical plans into results:

* :meth:`~ExecutionBackend.materialize` runs a row-producing plan and
  returns the sorted fact-row ids it selects;
* :meth:`~ExecutionBackend.execute` runs the one aggregate node, a
  :class:`MultiGroupAggregate`, and returns one ``group → aggregate``
  dict per grouping: the 0-key total's one group ``()``, a partition's
  values, or a pivot's value pairs.

Two engines conform:

* :class:`InMemoryBackend` — selection vectors narrowed chunk by
  chunk over the schema's encoded fact-aligned columns, every grouping
  (0, 1 or 2 keys) folded through the one fold rule of
  :data:`~repro.relational.operators.AGGREGATE_STATES`;
* :class:`SqliteBackend` — compiles plans to SQL via
  :mod:`repro.plan.compile` and runs them on a sqlite3 mirror of the
  warehouse, demonstrating the paper's §7 direction of delegating KDAP
  aggregation to an existing OLAP-capable engine.

Both keep per-operator timing/row-count counters
(:class:`~repro.plan.counters.PlanCounters`) so benchmarks can attribute
cost to plan nodes.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Protocol, runtime_checkable

import threading

from ..obs.tracer import current_tracer, op_span
from ..relational import vector
from ..relational.chunks import CHUNK_SIZE
from ..relational.errors import BackendError, SchemaError
from ..relational.expressions import And, Between, Col, In, Predicate
from ..relational.operators import (
    AGGREGATE_STATES,
    chunked_group_states,
    finalize_group_states,
    fold_rows,
)
from ..relational.sqlite_backend import SqliteBackend as SqliteMirror
from ..relational.sqlite_backend import from_sqlite
from ..relational.types import ColumnType
from ..resilience.budget import charge_groups, charge_rows, check_deadline
from ..warehouse.schema import StarSchema
from .compile import compile_multi_plan, compile_plan
from .counters import PlanCounters
from .nodes import (
    Filter,
    MultiGroupAggregate,
    PlanNode,
    RowSet,
    Scan,
    grouping_fingerprint,
    row_source,
)


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine requires of an execution backend."""

    name: str
    counters: PlanCounters

    def materialize(self, plan: PlanNode) -> tuple[int, ...]:
        """Sorted row ids selected by a row-producing plan."""

    def execute(self, plan: MultiGroupAggregate) -> dict:
        """One ``group → aggregate`` dict per grouping."""

    def close(self) -> None:
        """Release any resources (idempotent)."""


def _leaf(plan: PlanNode) -> PlanNode:
    """The Scan/RowSet leaf anchoring a plan."""
    node = row_source(plan)
    while isinstance(node, Filter):
        node = node.child
    if not isinstance(node, (Scan, RowSet)):
        raise SchemaError(f"plan has no scan leaf: {node!r}")
    return node


def _empty_groups(plan: MultiGroupAggregate) -> dict:
    """An aggregate over zero rows (shared by both backends): a 0-key
    grouping still has its one group, holding the empty-input value;
    every keyed grouping is empty."""
    return {
        grouping_fingerprint(grouping):
            {} if grouping else {(): fold_rows(plan.aggregate, (), ())}
        for grouping in plan.branches()
    }


def _fact_measure(schema: StarSchema, plan) -> list:
    """Per-fact-row measure values of an aggregate plan: the schema's
    shared vector for ``plan.measure_sql``, or constant 1 for count plans
    that carry no measure expression."""
    if plan.measure_expr is None:
        return [1] * schema.num_fact_rows
    return schema.expression_vector(plan.measure_sql, plan.measure_expr)


# ----------------------------------------------------------------------
# in-memory backend
# ----------------------------------------------------------------------
class InMemoryBackend:
    """Columnar execution over the schema's encoded column chunks.

    Row-producing plans flow as *selection vectors* split at uniform
    chunk boundaries: each operator narrows its child's selection with
    one encoding-aware kernel per chunk (dictionary ``IN`` probes, RLE
    run slicing, predicate ``select_batch``), and a chunk whose zone
    map proves no row can match is skipped without reading it.  Budgets
    are charged per chunk, so a row/deadline limit interrupts a scan at
    chunk — not whole-operator — granularity, and
    :class:`~repro.plan.counters.PlanCounters` records how many chunks
    each operator scanned vs skipped.

    Every aggregate folds into the mergeable states of
    :data:`~repro.relational.operators.AGGREGATE_STATES` (the same
    states the materialization tier stores, so a scan and an exact tier
    view agree bit for bit).  :meth:`execute` picks a kernel per
    grouping arity: all 1-key branches share one
    :func:`~repro.relational.operators.chunked_group_states` walk over
    their keys' encoded fact chunks, a 0-key branch (G(DS′)) folds the
    rows as one group (:func:`~repro.relational.operators.fold_rows`),
    and a 2-key branch (a pivot) folds its key tuples batch by batch.
    """

    name = "memory"

    def __init__(self, schema: StarSchema):
        self.schema = schema
        self.counters = PlanCounters()
        self._scan_rows: dict[str, tuple[int, list[int]]] = {}

    # -- rows ----------------------------------------------------------
    def materialize(self, plan: PlanNode) -> tuple[int, ...]:
        return tuple(sorted(self._rows(plan)))

    def _rows(self, node: PlanNode) -> list[int]:
        # operator spans are *inclusive* (a node's span covers its
        # child's, EXPLAIN ANALYZE style); counters stay exclusive
        if isinstance(node, Scan):
            with op_span(node) as osp:
                table = self.schema.database.table(node.table)
                with self.counters.timed("Scan") as out:
                    n = len(table)
                    for start in range(0, n, CHUNK_SIZE):
                        charge_rows(min(CHUNK_SIZE, n - start), "Scan")
                        out[1] += 1
                    out[0] = n
                    # the full-row selection vector is immutable
                    # downstream (filters build fresh lists of its ints),
                    # so repeat scans of an unchanged table reuse one
                    # list and every cached selection shares its ints
                    cached = self._scan_rows.get(node.table)
                    if cached is not None and cached[0] == table._version:
                        rows = cached[1]
                    else:
                        rows = list(range(n))
                        self._scan_rows[node.table] = (table._version,
                                                       rows)
                osp.set_tag("rows", out[0])
                osp.set_tag("batches", out[1])
            return rows
        if isinstance(node, RowSet):
            with op_span(node) as osp:
                self.counters.record("RowSet", len(node.rows), batches=1)
                charge_rows(len(node.rows), "RowSet")
                osp.set_tag("rows", len(node.rows))
                osp.set_tag("batches", 1)
            return list(node.rows)
        if isinstance(node, Filter):
            with op_span(node) as osp:
                child_rows = self._rows(node.child)
                if not child_rows:
                    osp.set_tag("rows", 0)
                    return child_rows
                check_deadline("Filter")
                with self.counters.timed("Filter") as out:
                    if node.predicate is not None:
                        table = self.schema.database.table(
                            _leaf(node).table)
                        node.predicate.validate(table)
                        rows = self._select_predicate(
                            table, node.predicate, child_rows, out)
                    else:
                        # None in the value set selects NULL-attribute
                        # rows
                        chunks = self.schema.fact_chunks(node.attr.path,
                                                         node.attr.column)
                        wanted = set(node.values)
                        rows = self._filter_chunks(
                            chunks, child_rows, out,
                            lambda c: c.may_match_in(wanted, True),
                            lambda c, sub: c.select_in(wanted, True, sub))
                    out[0] = len(rows)
                osp.set_tag("rows", out[0])
                osp.set_tag("batches", out[1])
                osp.set_tag("chunks_scanned", out[2])
                osp.set_tag("chunks_skipped", out[3])
            return rows
        raise SchemaError(f"not a row-producing plan node: {node!r}")

    # -- chunked filtering ---------------------------------------------
    def _filter_chunks(self, chunks, child_rows: list[int], out,
                       may_match, select, charge: bool = True) -> list[int]:
        """Narrow a selection chunk-at-a-time, skipping whole chunks the
        zone-map test ``may_match`` rules out.  ``out`` is the counter
        slot list (batches / chunks_scanned / chunks_skipped)."""
        rows: list[int] = []
        size = chunks[0].stop if chunks else CHUNK_SIZE
        for index, sub in vector.split_selection(child_rows, size):
            chunk = chunks[index]
            if not may_match(chunk):
                out[3] += 1
                continue
            kept = select(chunk, sub)
            if charge:
                charge_rows(len(kept), "Filter")
            rows.extend(kept)
            out[1] += 1
            out[2] += 1
        return rows

    def _select_predicate(self, table, predicate: Predicate,
                          child_rows: list[int], out,
                          charge: bool = True) -> list[int]:
        """Chunk-aware predicate evaluation: ``IN`` / ``BETWEEN`` over a
        bare column run on the table's encoded chunks with zone-map
        skipping (an ``AND`` delegates its first conjunct, then refines
        the survivors); anything else falls back to per-batch
        ``select_batch`` (every batch counts as a scanned chunk)."""
        if isinstance(predicate, In) and isinstance(predicate.expr, Col):
            chunks = table.column_chunks(predicate.expr.name)
            wanted = predicate.values
            return self._filter_chunks(
                chunks, child_rows, out,
                lambda c: c.may_match_in(wanted, False),
                lambda c, sub: c.select_in(wanted, False, sub),
                charge=charge)
        if isinstance(predicate, Between) and \
                isinstance(predicate.expr, Col):
            chunks = table.column_chunks(predicate.expr.name)
            low, high = predicate.low, predicate.high
            inclusive = predicate.inclusive_high
            return self._filter_chunks(
                chunks, child_rows, out,
                lambda c: c.may_match_range(low, high, inclusive),
                lambda c, sub: c.select_range(low, high, inclusive, sub),
                charge=charge)
        if isinstance(predicate, And) and predicate.parts:
            first = predicate.parts[0]
            rest = predicate.parts[1:]
            if isinstance(first, (In, Between)) and \
                    isinstance(first.expr, Col):
                # rows cut by the first conjunct are not charged: the
                # budget sees only the rows that survive the whole filter,
                # exactly like the single-kernel path
                selection = self._select_predicate(table, first,
                                                   child_rows, out,
                                                   charge=False)
                if not rest or not selection:
                    if charge:
                        charge_rows(len(selection), "Filter")
                    return selection
                return self._refine_batches(table, And(tuple(rest)),
                                            selection, out, charge)
        return self._refine_batches(table, predicate, child_rows, out,
                                    charge)

    def _refine_batches(self, table, predicate: Predicate,
                        child_rows: list[int], out,
                        charge: bool = True) -> list[int]:
        rows: list[int] = []
        for batch in vector.batches(child_rows, CHUNK_SIZE):
            kept = predicate.select_batch(table, batch)
            if charge:
                charge_rows(len(kept), "Filter")
            rows.extend(kept)
            out[1] += 1
            out[2] += 1
        return rows

    # -- aggregates ----------------------------------------------------
    def execute(self, plan: MultiGroupAggregate) -> dict:
        """The one aggregate kernel: every grouping over one selection of
        the child's rows, each arity on its own fold."""
        with op_span(plan) as osp:
            rows = self._rows(plan.child)
            if not rows:
                osp.set_tag("rows", 0)
                return _empty_groups(plan)
            check_deadline("MultiGroupAggregate")
            measure = _fact_measure(self.schema, plan)
            aggregate = plan.aggregate
            branches = plan.branches()
            singles = [grouping for grouping in branches
                       if len(grouping) == 1]
            results: dict = {}
            with self.counters.timed("MultiGroupAggregate") as out:
                if singles:
                    states = self._group_states(
                        [key for (key,) in singles], rows, measure,
                        aggregate, out)
                    for grouping, groups in zip(singles, states):
                        results[grouping_fingerprint(grouping)] = \
                            finalize_group_states(aggregate, groups)
                for grouping in branches:
                    if not grouping:
                        results[()] = {(): fold_rows(aggregate, measure,
                                                     rows)}
                        out[1] += 1
                    elif len(grouping) > 1:
                        results[grouping_fingerprint(grouping)] = \
                            self._tuple_groups(grouping, rows, measure,
                                               aggregate, out)
                out[0] = sum(len(groups) for groups in results.values())
            osp.set_tag("rows", out[0])
            osp.set_tag("batches", out[1])
            # the 0-key total's one group is not charged: the budget
            # counts the groups partitions and pivots create
            charge_groups(sum(len(groups) for fp, groups in results.items()
                              if fp), "MultiGroupAggregate")
            return results

    def _tuple_groups(self, keys, rows: list[int], measure,
                      aggregate: str, out) -> dict:
        """Key tuple → aggregate for a grouping of two or more keys,
        folded batch by batch: a tuple with a NULL component is passed
        as None, which drops the row.  The deadline is checked per
        batch."""
        acc = AGGREGATE_STATES[aggregate]
        vectors = [self.schema.fact_vector(k.path, k.column) for k in keys]
        states: dict = {}
        for batch in vector.batches(rows, CHUNK_SIZE):
            check_deadline("MultiGroupAggregate")
            tuples = zip(*([v[r] for r in batch] for v in vectors))
            acc.add_pairs(states,
                          [None if None in t else t for t in tuples],
                          batch, measure)
            out[1] += 1
        return finalize_group_states(aggregate, states)

    def _group_states(self, keys, rows: list[int], measure, aggregate: str,
                      out) -> list[dict]:
        """Per-key ``value → state`` dicts over ``rows``: the one grouped
        kernel, walking the keys' encoded fact chunks serially.

        The deadline is checked per chunk and every chunk counts as one
        batch in ``out`` (the counter slot list).  No rows are charged
        here: the row-producing child already charged them.
        """
        def on_chunk(_rows: int) -> None:
            check_deadline("MultiGroupAggregate")
            out[1] += 1

        return chunked_group_states(
            [self.schema.fact_chunks(k.path, k.column) for k in keys],
            measure, aggregate, row_ids=rows, on_chunk=on_chunk)

    def close(self) -> None:
        """Nothing to release."""


# ----------------------------------------------------------------------
# sqlite backend
# ----------------------------------------------------------------------
class SqliteBackend:
    """Plan execution by SQL compilation against a sqlite3 mirror.

    The mirror is loaded lazily on first use (loading a 60k-row warehouse
    into sqlite costs noticeable startup time that differentiate-only
    sessions should not pay), stamped with the version of every table,
    and loaded again once any of them moves — an append is then visible
    to the next query, as on the memory backend.

    **Thread affinity**: the mirror hands each thread its own sqlite3
    connection, so a live backend may be queried from any thread (a
    service worker thread other than the one that built it, say).  But
    connections are only
    released at :meth:`close`, so short-lived threads leak one
    connection each — long-running servers must pin one session (and
    thus one backend) per *long-lived* worker thread.  Using a closed
    backend — from any thread — raises a typed
    :class:`~repro.relational.errors.BackendError` instead of silently
    reloading the mirror or letting ``sqlite3.ProgrammingError`` escape.
    """

    name = "sqlite"

    def __init__(self, schema: StarSchema):
        self.schema = schema
        self.counters = PlanCounters()
        self._mirror: tuple[tuple, SqliteMirror] | None = None
        self._mirror_lock = threading.Lock()
        self._closed = False

    @property
    def mirror(self) -> SqliteMirror:
        """The sqlite3 mirror of the current table versions, (re)loading
        it when they moved (lock-guarded: worker threads may race to the
        first query).  A reload closes the replaced mirror, so a query
        another thread is still running on it fails with
        :class:`BackendError`."""
        if self._closed:
            raise BackendError(
                "sqlite backend is closed; it does not reopen — build a "
                "new session (the service layer keeps one per worker "
                "thread)")
        database = self.schema.database
        stamp = tuple(table.version for table in database.tables())
        current = self._mirror
        if current is None or current[0] != stamp:
            with self._mirror_lock:
                current = self._mirror
                if current is None or current[0] != stamp:
                    stale = current
                    with self.counters.timed("MirrorLoad"):
                        current = (stamp, SqliteMirror(database))
                    self._mirror = current
                    if stale is not None:
                        stale[1].close()
        return current[1]

    # -- rows ----------------------------------------------------------
    def materialize(self, plan: PlanNode) -> tuple[int, ...]:
        leaf = _leaf(plan)
        if isinstance(leaf, RowSet) and not leaf.rows:
            return ()
        with op_span(plan) as osp:
            self._mark_sql_nodes(plan)
            table = self.schema.database.table(leaf.table)
            query = self._compile(plan, compile_plan)
            pk = table.primary_key
            if (pk is not None
                    and table.column(pk).type is ColumnType.INTEGER):
                sql = query.render_sql([f"DISTINCT f.{pk}"])
                rows = self._run(sql)
                rids = [table.lookup_pk(value) for (value,) in rows]
            else:
                sql = query.render_sql(["DISTINCT f.rowid"])
                rows = self._run(sql)
                rids = [value - 1 for (value,) in rows]
            osp.set_tag("rows", len(rids))
            osp.set_tag("batches", 1)
        return tuple(sorted(rids))

    def _mark_sql_nodes(self, plan: PlanNode) -> None:
        """Zero-duration marker spans for the *inner* nodes of a plan the
        compiler folds into one SQL statement — EXPLAIN can then show
        that those operators ran (once, inside SQL) even though no
        per-operator timing exists for them.  Each marker nests inside
        its parent's, as the memory backend's operator spans do."""
        if not current_tracer().enabled:
            return
        with ExitStack() as stack:
            node = getattr(plan, "child", None)
            while node is not None:
                stack.enter_context(op_span(node)).set_tag(
                    "pushed_to_sql", True)
                node = getattr(node, "child", None)

    # -- aggregates ----------------------------------------------------
    def execute(self, plan: MultiGroupAggregate) -> dict:
        """One batched round-trip: a shared filtered CTE feeding one
        grouped select per grouping (instead of one full query per
        grouping, each re-evaluating the row-set filter)."""
        leaf = _leaf(plan)
        if isinstance(leaf, RowSet) and not leaf.rows:
            return _empty_groups(plan)
        with op_span(plan) as osp:
            self._mark_sql_nodes(plan)
            sql = self._compile(plan, compile_multi_plan)
            result_rows = self._run(sql)
            osp.set_tag("rows", len(result_rows))
            osp.set_tag("batches", 1)
        branches = plan.branches()
        # the 0-key total's one row is not charged (as in memory)
        charge_groups(sum(1 for row in result_rows if branches[row[0]]),
                      "MultiGroupAggregate")
        # UNION ALL loses declared column types, so converters never fire
        # — restore engine values (booleans, dates) per key position
        database = self.schema.database
        key_types = [
            [database.table(key.table).column(key.column).type
             for key in grouping]
            for grouping in branches
        ]
        results = [{} for _ in branches]
        for index, *keys, agg in result_rows:
            values = tuple(from_sqlite(value, column_type) for value,
                           column_type in zip(keys, key_types[index]))
            group = values[0] if len(values) == 1 else values
            results[index][group] = self._restore_aggregate(plan.aggregate,
                                                            agg)
        return {grouping_fingerprint(grouping): groups
                for grouping, groups in zip(branches, results)}

    # -- helpers -------------------------------------------------------
    def _compile(self, plan: PlanNode, compiler):
        """``compiler(plan, database)``, timed as ``SqlCompile``; every
        node of the plan counts one call (they all run inside SQL)."""
        with self.counters.timed("SqlCompile"):
            query = compiler(plan, self.schema.database)
        for node_kind in _walk_kinds(plan):
            self.counters.record(node_kind)
        return query

    def _run(self, sql: str) -> list[tuple]:
        check_deadline("SqlExecute")
        with current_tracer().span("sqlite.execute") as span, \
                self.counters.timed("SqlExecute") as out:
            rows = self.mirror.execute(sql)
            out[0] = len(rows)
            span.set_tag("rows", len(rows))
        charge_rows(len(rows), "SqlExecute")
        return rows

    @staticmethod
    def _restore_aggregate(aggregate: str, value):
        """Align sqlite aggregate results with the in-memory fold: SUM of
        no (or all-NULL) inputs is 0 in memory, NULL in SQL."""
        if value is None and aggregate in ("sum", "count"):
            return fold_rows(aggregate, (), ())
        return value

    def close(self) -> None:
        """Release the mirror; idempotent, and terminal — a closed
        backend refuses further queries with :class:`BackendError`."""
        self._closed = True
        if self._mirror is not None:
            self._mirror[1].close()
            self._mirror = None

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _walk_kinds(plan: PlanNode):
    """Node kinds of a plan tree, leaf-first (for counter attribution)."""
    node = plan
    kinds: list[str] = []
    while node is not None:
        kinds.append(node.kind)
        node = getattr(node, "child", None)
    return reversed(kinds)


BACKENDS = {
    "memory": InMemoryBackend,
    "sqlite": SqliteBackend,
}
"""Backend registry addressable by name (the CLI's ``--backend`` flag)."""


def create_backend(schema: StarSchema,
                   backend: str | ExecutionBackend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            factory = BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; "
                f"choose from {sorted(BACKENDS)}") from None
        return factory(schema)
    return backend
