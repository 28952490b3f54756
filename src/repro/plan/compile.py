"""Compile logical plans to SQL.

This is the SQL half of the plan seam: the same logical tree the
in-memory backend interprets as row-id operator chains is rendered here.
A row-producing plan becomes a fact-rooted
:class:`~repro.relational.sql.JoinQuery` (:func:`compile_plan`), which
:mod:`repro.relational.sql` turns into SQL text for any SQL engine (the
bundled sqlite backend, or external tooling).  An aggregate plan — the
one :class:`~repro.plan.nodes.MultiGroupAggregate` node, whatever its
groupings' arities — becomes one batched statement
(:func:`compile_multi_plan`).

Alias assignment implements the paper's merge semantics: walking an
attribute's path fact → table, a step reuses an existing alias when an
earlier attribute already took the identical FK step from the same
alias; otherwise it mints a fresh alias.  Every dimension enters the
fact table through its own FK, so two rays of one dimension share their
common path prefix (intersection semantics) while the same physical
table reached through two dimensions gets two aliases.  Edges are LEFT
JOINs, so rows with dangling foreign keys surface as NULL keys instead
of disappearing (a ray's ``IN`` filter then drops them, as the star
join would).
"""

from __future__ import annotations

from ..relational.catalog import Database
from ..relational.errors import SchemaError
from ..relational.expressions import Col, In, IsNull, Not, Or, Predicate, isin
from ..relational.sql import (
    AliasFilter,
    JoinEdge,
    JoinQuery,
    qualify_measure,
    render_batched_sql,
)
from ..relational.table import Table
from ..relational.types import ColumnType
from .nodes import (
    AttrKey,
    Filter,
    MultiGroupAggregate,
    PlanNode,
    RowSet,
    Scan,
)


def adapt_value(value, column_type: ColumnType):
    """Adapt one engine value for SQL rendering (bools become 0/1 so the
    comparison does not depend on the engine's TRUE/FALSE spelling)."""
    if column_type is ColumnType.BOOLEAN and isinstance(value, bool):
        return int(value)
    return value


class _Compiler:
    """One compilation pass over a plan tree."""

    def __init__(self, database: Database):
        self.database = database
        self.query: JoinQuery | None = None
        # (alias_of_source, fk_name, towards_parent) -> alias
        self._step_alias: dict[tuple, str] = {}
        self._alias_count = 0

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------
    def compile(self, plan: PlanNode) -> JoinQuery:
        self._rows(plan)
        return self.query

    def _key_column(self, key: AttrKey) -> str:
        """Join in the table holding ``key``, dropping rows where it is
        NULL; returns the qualified key column to group by."""
        alias = self._attr_alias(key)
        self.query.filters.append(
            AliasFilter(alias, Not(IsNull(Col(key.column)))))
        return f"{alias}.{key.column}"

    # ------------------------------------------------------------------
    # row-producing nodes
    # ------------------------------------------------------------------
    def _rows(self, node: PlanNode) -> None:
        if isinstance(node, Scan):
            self.query = JoinQuery(fact_table=node.table, fact_alias="f")
            return
        if isinstance(node, RowSet):
            self.query = JoinQuery(fact_table=node.table, fact_alias="f")
            predicate = rowset_predicate(
                self.database.table(node.table), node.rows)
            if predicate is not None:
                self.query.filters.append(AliasFilter("f", predicate))
            return
        if isinstance(node, Filter):
            self._rows(node.child)
            if node.predicate is not None:
                self.query.filters.append(AliasFilter("f", node.predicate))
                return
            attr = node.attr
            alias = self._attr_alias(attr)
            values = [v for v in node.values if v is not None]
            parts: list[Predicate] = []
            if values:
                parts.append(
                    self._adapted_isin(attr.table, attr.column, values))
            if len(values) != len(node.values):  # None was requested
                parts.append(IsNull(Col(attr.column)))
            if not parts:
                raise SchemaError("attribute filter needs at least one value")
            self.query.filters.append(
                AliasFilter(alias, Or.of(*parts)))
            return
        raise SchemaError(f"not a row-producing plan node: {node!r}")

    # ------------------------------------------------------------------
    # aliases and edges
    # ------------------------------------------------------------------
    def _edge_alias(self, alias: str, step) -> str:
        key = (alias, step.fk.name, step.towards_parent)
        existing = self._step_alias.get(key)
        if existing is not None:
            return existing
        self._alias_count += 1
        new_alias = f"t{self._alias_count}"
        self.query.edges.append(JoinEdge(
            left_alias=alias,
            left_column=step.source_column,
            right_table=step.target,
            right_alias=new_alias,
            right_column=step.target_column,
            left=True,
        ))
        self._step_alias[key] = new_alias
        return new_alias

    def _attr_alias(self, attr: AttrKey) -> str:
        """Alias of the table holding a fact-aligned attribute, joining
        along its path (fact-table attributes stay on alias ``f``)."""
        alias = "f"
        for step in attr.path.steps:
            alias = self._edge_alias(alias, step)
        return alias

    def _adapted_isin(self, table: str, column: str, values) -> In:
        """An IN predicate with engine values adapted for SQL rendering."""
        column_type = self.database.table(table).column(column).type
        return isin(column, [adapt_value(v, column_type) for v in values])


def rowset_predicate(table: Table, rows: tuple[int, ...]) -> Predicate | None:
    """A fact-alias predicate selecting exactly ``rows`` of ``table``.

    Returns None when the row set covers the whole table (no filter
    needed).  Uses the integer primary key when one exists; otherwise
    falls back to sqlite's implicit ``rowid`` (1-based insertion order),
    which is stable because tables are loaded in row-id order.
    """
    if len(rows) == len(table):
        return None
    pk = table.primary_key
    if pk is not None and table.column(pk).type is ColumnType.INTEGER:
        values = table.column_values(pk)
        return isin(pk, tuple(values[r] for r in rows))
    return isin("rowid", tuple(r + 1 for r in rows))


def compile_plan(plan: PlanNode, database: Database) -> JoinQuery:
    """Render a row-producing plan as a fact-rooted join query (an
    aggregate plan compiles with :func:`compile_multi_plan`)."""
    return _Compiler(database).compile(plan)


_BASE_CTE = "kdap_base"
"""Name of the shared filtered CTE in batched multi-aggregate SQL."""


def compile_multi_plan(plan: MultiGroupAggregate,
                       database: Database) -> str:
    """Render an aggregate plan as **one** batched statement.

    The child's row selection compiles once into a CTE (``SELECT f.*``
    with the child's joins/filters — the expensive part, e.g. a large
    row-id IN list, is evaluated a single time); each grouping then
    becomes one grouped select over the CTE, UNION-ALL'ed with a leading
    branch index so the caller can route result rows back to their
    groupings.  Key columns are padded with NULL up to the widest
    grouping, so every select has the same shape: ``branch, key0, ...,
    agg``.  A 0-key grouping has no GROUP BY and so returns its one row
    even over zero rows.  Branch order is the plan's canonical
    (fingerprint-sorted) order.
    """
    base = _Compiler(database).compile(plan.child)
    select_rows = f"{base.fact_alias}.*"
    if base.edges:
        # attribute edges are many-to-one fact → dimension, but DISTINCT
        # keeps the CTE a row *set* even for unexpected join shapes
        select_rows = "DISTINCT " + select_rows
    cte_sql = base.render_sql([select_rows])
    measure_sql = qualify_measure(plan.measure_sql, "f")
    aggregate = f"{plan.aggregate.upper()}({measure_sql}) AS agg"
    branches = plan.branches()
    width = max(len(grouping) for grouping in branches)
    selects: list[str] = []
    for index, grouping in enumerate(branches):
        compiler = _Compiler(database)
        compiler._rows(Scan(_BASE_CTE))
        columns = [compiler._key_column(key) for key in grouping]
        padded = columns + ["NULL"] * (width - len(columns))
        selects.append(compiler.query.render_sql(
            [f"{index} AS branch",
             *(f"{column} AS key{position}"
               for position, column in enumerate(padded)),
             aggregate],
            columns,
        ))
    return render_batched_sql(_BASE_CTE, cte_sql, selects)
