"""Pinned oracle: subspace evaluation without the plan layer.

Before every :class:`~repro.warehouse.subspace.Subspace` was engine-bound,
a subspace without an engine evaluated itself locally, and
``StarNet.evaluate(schema)`` evaluated a star net beside
``QueryEngine.evaluate``.  This module keeps that route as the reference
the engine is compared against.  It never touches a plan, the plan cache,
the materialization tier or a backend:

* a star net's rows are the intersection of its rays' fact rows, each ray
  selected by value on its own table and pushed down its join path as a
  chain of semi-joins (:func:`select_rows_by_values` + :func:`slice_facts`
  + :func:`semi_join`, the route ``src/`` ran before rays became attribute
  filters over the fact chunks), narrowed by any measure predicates;
* G(DS') folds the schema's cached measure vector with :func:`fold`, a
  plain left-to-right loop independent of ``src/``'s aggregate states;
* partition aggregates run the grouped kernel
  (:func:`~repro.relational.operators.chunked_group_states`) over the
  schema's encoded fact chunks, so they add the same floats in the same
  order as the memory backend; unlike the engine, they can be restricted
  to a domain (the paper's restricted PAR(RUP(DS'), attr));
* DOM(DS', attr) and PAR(DS', attr) are read row by row off the
  schema's fact-aligned vectors (:func:`domain`, :func:`partition`,
  :func:`groupby_values`).

:class:`LocalKernel` duck-types the engine methods a ``Subspace`` and the
OLAP operators call, so ``Subspace(schema, rows,
engine=LocalKernel(schema))`` evaluates the way an unbound subspace used
to — except that its pivot folds the measure's own aggregate, where the
old local pivot always summed.
"""

from __future__ import annotations

from functools import reduce

from repro.relational import vector
from repro.relational.operators import (
    chunked_group_states,
    finalize_group_states,
)
from repro.warehouse.schema import AttributeRef
from repro.warehouse.subspace import Subspace


def semi_join(child, child_key: str, parent_row_ids, parent,
              parent_key: str) -> list[int]:
    """Rows of table ``child`` whose ``child_key`` matches ``parent_key``
    of any row in ``parent_row_ids`` (``child SEMIJOIN parent``)."""
    parent_values = parent.column_values(parent_key)
    keys = {parent_values[rid] for rid in parent_row_ids}
    keys.discard(None)
    if not keys:
        return []
    return vector.select_in(child.column_values(child_key), keys)


def slice_facts(schema, source_table: str, source_rows,
                path_to_fact) -> set[int]:
    """Fact rows reachable from ``source_rows`` of ``source_table`` along
    ``path_to_fact`` (source → fact), one semi-join per step."""
    if path_to_fact.steps:
        if path_to_fact.source != source_table:
            raise ValueError(
                f"path starts at {path_to_fact.source!r}, "
                f"expected {source_table!r}")
        if path_to_fact.target != schema.fact_table:
            raise ValueError(
                f"path ends at {path_to_fact.target!r}, "
                f"expected fact table {schema.fact_table!r}")
    elif source_table != schema.fact_table:
        raise ValueError("empty path is only valid from the fact table")
    current_rows = list(source_rows)
    current_table = schema.database.table(source_table)
    for step in path_to_fact.steps:
        next_table = schema.database.table(step.target)
        current_rows = semi_join(next_table, step.target_column,
                                 current_rows, current_table,
                                 step.source_column)
        current_table = next_table
        if not current_rows:
            break
    return set(current_rows)


def select_rows_by_values(schema, ref: AttributeRef, values) -> list[int]:
    """Row ids of ``ref.table`` whose ``ref.column`` is in ``values``."""
    table = schema.database.table(ref.table)
    return vector.select_in(table.column_values(ref.column), values,
                            keep_null=True)


def ray_rows(schema, ray) -> set[int]:
    """Fact rows selected by one ray (OR across the hit group's values)."""
    ref = AttributeRef(ray.hit_group.table, ray.hit_group.attribute)
    rows = select_rows_by_values(schema, ref, ray.hit_group.values)
    return slice_facts(schema, ray.hit_group.table, rows, ray.path_to_fact)


COMPARISONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


def predicate_rows(schema, predicate) -> set[int]:
    """Fact rows satisfying one measure predicate, row by row (a NULL
    satisfies nothing)."""
    if predicate.is_measure:
        values = schema.measure_vector(predicate.target)
    else:
        values = schema.database.table(schema.fact_table).column_values(
            predicate.target)
    compare = COMPARISONS[predicate.op]
    return {r for r, v in enumerate(values)
            if v is not None and compare(v, predicate.value)}


def star_net_rows(schema, net) -> tuple[int, ...]:
    """DS': the intersection of all rays' fact rows, further constrained
    by the net's measure predicates (sorted row ids)."""
    if net.rays:
        rows = reduce(set.intersection,
                      [ray_rows(schema, ray) for ray in net.rays])
    else:
        rows = set(range(schema.num_fact_rows))
    for predicate in net.measure_predicates:
        rows &= predicate_rows(schema, predicate)
    return tuple(sorted(rows))


def fold(aggregate_name: str, values):
    """One aggregate over ``values`` as a plain loop, NULLs ignored:
    sums add left to right (avg from 0.0), min/max keep the first
    extreme, and empty (or all-NULL) input gives 0 for sum/count and
    None for avg/min/max."""
    present = [v for v in values if v is not None]
    if aggregate_name == "count":
        return len(present)
    if aggregate_name in ("min", "max"):
        best = None
        for v in present:
            if best is None or (v < best if aggregate_name == "min"
                                else v > best):
                best = v
        return best
    total = 0.0 if aggregate_name == "avg" else 0
    for v in present:
        total += v
    if aggregate_name == "sum":
        return total
    return total / len(present) if present else None


def aggregate(schema, rows, measure_name: str):
    """G(DS') over ``rows``."""
    return fold(schema.measures[measure_name].aggregate,
                vector.take(schema.measure_vector(measure_name), rows))


def groupby_values(subspace, gb) -> list:
    """The group-by attribute's value for each row of the subspace,
    aligned with ``fact_rows``."""
    return vector.take(subspace.schema.groupby_vector(gb),
                       subspace.fact_rows)


def domain(subspace, gb) -> list:
    """DOM(DS', attr) row by row: the distinct non-NULL values present,
    sorted in ``repro.core``'s (type name, value) order."""
    return sorted({v for v in groupby_values(subspace, gb) if v is not None},
                  key=lambda v: (str(type(v)), v))


def group_rows(values, row_ids=None) -> dict:
    """Partition a selection by one column, row by row: value → row ids
    (NULL dropped)."""
    groups: dict = {}
    if row_ids is None:
        row_ids = range(len(values))
    for r in row_ids:
        if values[r] is not None:
            groups.setdefault(values[r], []).append(r)
    return groups


def partition(subspace, gb) -> dict:
    """PAR(DS', attr): value → list of subspace rows (NULLs dropped)."""
    return group_rows(subspace.schema.groupby_vector(gb),
                      subspace.fact_rows)


def restrict(groups: dict, values, aggregate: str) -> dict:
    """A partition aggregate projected onto ``values``: a value that
    selects no rows aggregates over the empty set (0 for sum/count, None
    for avg/min/max)."""
    fill = fold(aggregate, ())
    return {value: groups.get(value, fill) for value in values}


def multi_partition_aggregates(schema, rows, gbs, measure_name: str,
                               domains=None) -> list[dict]:
    """One ``value → aggregate`` dict per group-by over ``rows`` (NULL
    keys dropped).  A domain restricts its dict to exactly those values,
    one selecting no rows aggregating over the empty set (0 for
    sum/count, None for avg/min/max): the paper's PAR(RUP(DS'), attr)
    restricted to the segments of PAR(DS', attr)."""
    gbs = list(gbs)
    domain_keys = ([None] * len(gbs) if domains is None
                   else [None if d is None else tuple(d) for d in domains])
    if len(domain_keys) != len(gbs):
        raise ValueError("domains must align one-to-one with gbs")
    name = schema.measures[measure_name].aggregate
    if rows and gbs:
        states = chunked_group_states(
            [schema.fact_chunks(gb.path_from_fact, gb.ref.column)
             for gb in gbs],
            schema.measure_vector(measure_name), name, row_ids=rows)
        finals = [finalize_group_states(name, groups) for groups in states]
    else:
        finals = [{} for _ in gbs]
    return [groups if dk is None else restrict(groups, dk, name)
            for groups, dk in zip(finals, domain_keys)]


def filter_rows(schema, rows, selections) -> list[int]:
    """Rows whose attribute value lies in each ``(gb, values)``
    selection's value set (ANDed across selections)."""
    rows = list(rows)
    for gb, values in selections:
        rows = vector.select_in(schema.groupby_vector(gb), tuple(values),
                                rows, keep_null=True)
    return rows


def pivot_cells(schema, rows, rows_gb, cols_gb, measure_name: str) -> dict:
    """(row value, column value) → the measure's aggregate over that
    cell's rows (a NULL on either axis drops the row)."""
    name = schema.measures[measure_name].aggregate
    values = schema.measure_vector(measure_name)
    row_keys = schema.groupby_vector(rows_gb)
    col_keys = schema.groupby_vector(cols_gb)
    cells: dict = {}
    for r in rows:
        key = (row_keys[r], col_keys[r])
        if None not in key:
            cells.setdefault(key, []).append(values[r])
    return {key: fold(name, cell) for key, cell in cells.items()}


class LocalKernel:
    """The local route behind the engine interface a ``Subspace`` uses."""

    def __init__(self, schema):
        self.schema = schema

    def evaluate(self, net) -> Subspace:
        return Subspace(self.schema, star_net_rows(self.schema, net),
                        label=str(net), engine=self)

    def subspace_aggregate(self, subspace, measure_name):
        return aggregate(self.schema, subspace.fact_rows, measure_name)

    def subspace_partition_aggregates(self, subspace, gb, measure_name,
                                      domain=None) -> dict:
        return self.multi_partition_aggregates(
            subspace, [gb], measure_name, domains=[domain])[0]

    def multi_partition_aggregates(self, subspace, gbs, measure_name,
                                   domains=None) -> list[dict]:
        return multi_partition_aggregates(
            self.schema, subspace.fact_rows, gbs, measure_name, domains)

    def filter_rows(self, subspace, selections) -> list[int]:
        return filter_rows(self.schema, subspace.fact_rows, selections)

    def pivot_aggregates(self, subspace, rows_gb, cols_gb,
                         measure_name) -> dict:
        return pivot_cells(self.schema, subspace.fact_rows, rows_gb,
                           cols_gb, measure_name)
