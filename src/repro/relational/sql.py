"""SQL text generation.

Higher layers (star nets, facet queries) compile down to a :class:`JoinQuery`
— a fact-rooted join tree with per-alias filters, optional group-by, and an
aggregate over a measure expression.  This module renders that structure as
standard SQL so that (a) users can inspect the exact query a star net means,
and (b) the sqlite backend can execute it to cross-check the in-memory
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .expressions import Expression, Predicate


@dataclass(frozen=True)
class JoinEdge:
    """One join step: ``left_alias.left_column = right_alias.right_column``.

    ``right_table`` is the base-table name behind ``right_alias``; the fact
    table anchors the FROM clause, and each edge adds one JOIN.  ``left``
    renders a LEFT JOIN — used for group-by attribute paths, where rows
    with dangling foreign keys must survive as NULL-keyed rows instead of
    being dropped.
    """

    left_alias: str
    left_column: str
    right_table: str
    right_alias: str
    right_column: str
    left: bool = False


@dataclass(frozen=True)
class AliasFilter:
    """A predicate applied to one aliased table."""

    alias: str
    predicate: Predicate


@dataclass
class JoinQuery:
    """A fact-rooted join query.

    Attributes
    ----------
    fact_table / fact_alias:
        The anchor of the FROM clause.
    edges:
        Join steps, in an order where every edge's ``left_alias`` has already
        been introduced (the fact alias is introduced first).
    filters:
        Per-alias predicates ANDed into the WHERE clause.
    group_by:
        Optional ``(alias, column)`` pairs.
    aggregate:
        Aggregate function name (``sum``/``count``/...), applied to
        ``measure_sql`` (a rendered scalar expression over fact columns).
    """

    fact_table: str
    fact_alias: str
    edges: list[JoinEdge] = field(default_factory=list)
    filters: list[AliasFilter] = field(default_factory=list)
    group_by: list[tuple[str, str]] = field(default_factory=list)
    aggregate: str = "sum"
    measure_sql: str = "1"
    measure_expr: Expression | None = None
    """The measure as an evaluable expression over fact columns — used by
    the in-memory executor; ``measure_sql`` is its rendered form for SQL."""

    def to_sql(self) -> str:
        """Render this query as SQL text."""
        select_parts: list[str] = []
        for alias, column in self.group_by:
            select_parts.append(f"{alias}.{column}")
        select_parts.append(f"{self.aggregate.upper()}({self.measure_sql}) AS agg")
        group_keys = [f"{alias}.{column}" for alias, column in self.group_by]
        return self.render_sql(select_parts, group_keys)

    def render_sql(self, select_parts: Sequence[str],
                   group_keys: Sequence[str] = ()) -> str:
        """Render this query's join tree and filters with a caller-chosen
        SELECT list (used by backends to select row ids, distinct values,
        or custom aggregates over the same plan)."""
        lines = [
            "SELECT " + ", ".join(select_parts),
            f"FROM {self.fact_table} AS {self.fact_alias}",
        ]
        for edge in self.edges:
            keyword = "LEFT JOIN" if edge.left else "JOIN"
            lines.append(
                f"{keyword} {edge.right_table} AS {edge.right_alias} "
                f"ON {edge.left_alias}.{edge.left_column} = "
                f"{edge.right_alias}.{edge.right_column}"
            )
        if self.filters:
            rendered = [
                "(" + _qualify(str(f.predicate), f.alias) + ")"
                for f in self.filters
            ]
            lines.append("WHERE " + " AND ".join(rendered))
        if group_keys:
            lines.append("GROUP BY " + ", ".join(group_keys))
        return "\n".join(lines)


def render_batched_sql(cte_name: str, cte_sql: str,
                       branch_sqls: Sequence[str]) -> str:
    """Assemble one batched statement from a shared CTE and N grouped
    selects over it.

    The fused-aggregation shape: the (potentially expensive) row
    selection is evaluated once into ``cte_name``, and every branch —
    one grouped aggregate per group-by attribute — reads from it,
    UNION-ALL'ed into a single result set tagged by branch index.
    """
    if not branch_sqls:
        raise ValueError("batched SQL needs at least one branch")
    body = "\nUNION ALL\n".join(branch_sqls)
    return f"WITH {cte_name} AS (\n{cte_sql}\n)\n{body}"


def _qualify(predicate_sql: str, alias: str) -> str:
    """Qualify bare column names in a rendered predicate with ``alias``.

    Predicates render column references as bare identifiers; inside a join
    query every identifier must be alias-qualified.  We do a conservative
    token rewrite: identifiers that are not SQL keywords, not quoted strings,
    and not numbers get the alias prefix.
    """
    keywords = {"AND", "OR", "NOT", "IN", "IS", "NULL", "BETWEEN", "LIKE"}
    out: list[str] = []
    i = 0
    n = len(predicate_sql)
    while i < n:
        ch = predicate_sql[i]
        if ch == "'":
            # copy the quoted string verbatim (handles '' escapes)
            j = i + 1
            while j < n:
                if predicate_sql[j] == "'":
                    if j + 1 < n and predicate_sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            out.append(predicate_sql[i : j + 1])
            i = j + 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (predicate_sql[j].isalnum() or predicate_sql[j] == "_"):
                j += 1
            token = predicate_sql[i:j]
            if token.upper() in keywords:
                out.append(token)
            else:
                out.append(f"{alias}.{token}")
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def qualify_measure(measure_sql: str, fact_alias: str) -> str:
    """Qualify bare identifiers in a rendered measure with the fact alias.

    Measures only read fact columns, so every identifier gets the prefix
    (there are no keywords or quoted strings in measure expressions).
    """
    out: list[str] = []
    i = 0
    n = len(measure_sql)
    while i < n:
        ch = measure_sql[i]
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (measure_sql[j].isalnum() or measure_sql[j] == "_"):
                j += 1
            out.append(f"{fact_alias}.{measure_sql[i:j]}")
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)
