"""Pinned join oracle: in-memory execution of a
:class:`~repro.relational.sql.JoinQuery`.

The engine evaluates star nets as semi-join chains over fact-row sets;
this oracle takes the *general* route instead: it runs the same
fact-rooted join tree that :meth:`JoinQuery.to_sql` renders, entirely in
memory, producing exactly the rows sqlite would.  The three-way agreement
tests (subspace evaluation == oracle == sqlite) use it as the engine's
correctness anchor.  It is deliberately naive and lives with the tests,
not in the product.

Execution strategy: start from the fact table's row ids, apply each
:class:`JoinEdge` as a hash join extending an *alias environment* (a
tuple of row ids, one slot per alias), apply the alias filters, then fold
the group-by/aggregate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.relational.catalog import Database
from repro.relational.errors import SchemaError
from repro.relational.sql import JoinQuery

from ..warehouse.subspace_oracle import fold
from .row_oracle import evaluate_row


def execute_join_query(database: Database,
                       query: JoinQuery) -> list[tuple]:
    """Run a join query; returns rows shaped like sqlite's result set:
    one tuple per group (group keys..., aggregate), or a single
    ``(aggregate,)`` row when there is no GROUP BY."""
    # ------------------------------------------------------------------
    # resolve aliases
    # ------------------------------------------------------------------
    alias_tables: dict[str, str] = {query.fact_alias: query.fact_table}
    for edge in query.edges:
        if edge.right_alias in alias_tables:
            raise SchemaError(
                f"alias {edge.right_alias!r} introduced twice")
        alias_tables[edge.right_alias] = edge.right_table
    for edge in query.edges:
        if edge.left_alias not in alias_tables:
            raise SchemaError(
                f"edge joins from unknown alias {edge.left_alias!r}")

    alias_order = list(alias_tables)
    slot_of = {alias: i for i, alias in enumerate(alias_order)}
    tables = {alias: database.table(name)
              for alias, name in alias_tables.items()}

    # ------------------------------------------------------------------
    # joins: grow alias environments left to right
    # ------------------------------------------------------------------
    fact = tables[query.fact_alias]
    rows: list[tuple] = [
        (rid,) + (None,) * (len(alias_order) - 1)
        for rid in range(len(fact))
    ]
    for edge in query.edges:
        right_table = tables[edge.right_alias]
        index: dict[Hashable, list[int]] = defaultdict(list)
        for rid, value in enumerate(
                right_table.column_values(edge.right_column)):
            if value is not None:
                index[value].append(rid)
        left_slot = slot_of[edge.left_alias]
        right_slot = slot_of[edge.right_alias]
        left_values = tables[edge.left_alias].column_values(
            edge.left_column)
        extended: list[tuple] = []
        for env in rows:
            left_rid = env[left_slot]
            if left_rid is None:
                continue
            key = left_values[left_rid]
            if key is None:
                continue
            for right_rid in index.get(key, ()):
                new_env = list(env)
                new_env[right_slot] = right_rid
                extended.append(tuple(new_env))
        rows = extended
        if not rows:
            break

    # ------------------------------------------------------------------
    # filters
    # ------------------------------------------------------------------
    for alias_filter in query.filters:
        slot = slot_of.get(alias_filter.alias)
        if slot is None:
            raise SchemaError(
                f"filter references unknown alias {alias_filter.alias!r}")
        table = tables[alias_filter.alias]
        alias_filter.predicate.validate(table)
        rows = [
            env for env in rows
            if env[slot] is not None
            and evaluate_row(alias_filter.predicate, table, env[slot])
        ]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def measure_of(env: tuple):
        if query.measure_expr is None:
            return 1
        return evaluate_row(query.measure_expr, fact, env[0])

    if not query.group_by:
        return [(fold(query.aggregate, (measure_of(env) for env in rows)),)]

    key_columns = []
    for alias, column in query.group_by:
        slot = slot_of.get(alias)
        if slot is None:
            raise SchemaError(
                f"group-by references unknown alias {alias!r}")
        key_columns.append((slot, tables[alias].column_values(column)))

    groups: dict[tuple, list] = defaultdict(list)
    for env in rows:
        key = tuple(values[env[slot]] if env[slot] is not None else None
                    for slot, values in key_columns)
        groups[key].append(measure_of(env))
    return [
        (*key, fold(query.aggregate, measures))
        for key, measures in sorted(groups.items(),
                                    key=lambda kv: tuple(map(str, kv[0])))
    ]
