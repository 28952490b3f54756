"""Helpers building the plans the KDAP layers need.

Every consumer of the plan layer (sessions, subspaces, OLAP operators,
the aggregate cache) builds its plans through these functions, so that
semantically identical requests produce byte-identical fingerprints and
share cache entries.

The ``schema`` / ``gb`` / ``measure`` parameters are duck-typed against
:mod:`repro.warehouse.schema` (``StarSchema`` / ``GroupByAttribute`` /
``Measure``); this module deliberately avoids importing the warehouse
package to keep the plan layer below it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .nodes import AttrKey, Filter, MultiGroupAggregate, PlanNode, RowSet


def attr_key(gb) -> AttrKey:
    """The plan-layer key of a group-by attribute."""
    return AttrKey(gb.ref.table, gb.ref.column, gb.path_from_fact)


def ray_filter(child: PlanNode, table: str, column: str, values: Iterable,
               path_to_fact) -> Filter:
    """One star-net ray as an attribute filter on ``child``: keep the facts
    whose ``table.column``, reached along ``path_to_fact`` reversed, is in
    ``values`` (every ray path is many-to-one from the fact side).

    ``None`` is refused: an attribute filter keeps facts whose attribute
    resolves to NULL, dangling foreign keys included, and the star join a
    ray stands for reaches none of them.
    """
    values = tuple(values)
    if None in values:
        raise ValueError(f"a ray cannot select NULL ({table}.{column})")
    return Filter(child, attr=AttrKey(table, column, path_to_fact.reversed()),
                  values=values)


def rowset(schema, rows: Iterable[int]) -> RowSet:
    """A fact-table row set (e.g. a subspace's rows)."""
    return RowSet(schema.fact_table, tuple(rows))


def keyed_aggregate(source: PlanNode, groupings: Sequence[Sequence],
                    measure) -> MultiGroupAggregate:
    """``group → aggregate`` for every grouping (a sequence of 0, 1 or 2
    group-by attributes) over the rows of ``source``, in one plan (one
    scan, one SQL statement)."""
    return MultiGroupAggregate(
        child=source,
        groupings=tuple(tuple(attr_key(gb) for gb in grouping)
                        for grouping in groupings),
        aggregate=measure.aggregate,
        measure_sql=str(measure.expression),
        measure_expr=measure.expression,
    )


def subspace_aggregate_plan(schema, rows: Iterable[int],
                            measure) -> MultiGroupAggregate:
    """G(DS'): the measure over a subspace's rows, as the one group of a
    0-key grouping."""
    return keyed_aggregate(rowset(schema, rows), [()], measure)


def multi_partition_plan(schema, rows: Iterable[int], gbs: Sequence,
                         measure) -> MultiGroupAggregate:
    """``value → aggregate`` for every given group-by attribute over a
    subspace's rows: one 1-key grouping per attribute."""
    return keyed_aggregate(rowset(schema, rows), [(gb,) for gb in gbs],
                           measure)


def pivot_plan(schema, rows: Iterable[int], rows_gb, cols_gb,
               measure) -> MultiGroupAggregate:
    """(row value, column value) → aggregate over a subspace: one 2-key
    grouping."""
    return keyed_aggregate(rowset(schema, rows), [(rows_gb, cols_gb)],
                           measure)
