"""Classic OLAP navigation operations over subspaces.

The paper (§3) notes that each attribute instance in a dynamic facet "may
serve as an entry point for drill-down operations to more detailed
subspaces", and the explore phase is meant to compose with the usual
slice-dice / drill-down / roll-up / pivot repertoire.  These operators
implement that repertoire directly on :class:`Subspace`:

* :func:`slice_` — fix one attribute to one value (the facet click);
* :func:`dice`   — restrict several attributes to value sets at once;
* :func:`drill_down` — slice plus descend one hierarchy level: the result
  is partitioned by the next-finer attribute;
* :func:`roll_up` — re-partition one level coarser;
* :func:`pivot`  — a two-attribute cross-tabulation of the measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..relational.errors import SchemaError
from ..relational.operators import fold_rows
from .schema import AttributeRef, GroupByAttribute, StarSchema
from .subspace import Subspace


def slice_(subspace: Subspace, gb: GroupByAttribute, value) -> Subspace:
    """Fact rows of ``subspace`` whose ``gb`` attribute equals ``value``,
    filtered through the subspace's engine (the result stays bound)."""
    rows = subspace.engine.filter_rows(subspace, [(gb, (value,))])
    return Subspace.of(subspace.schema, rows,
                       label=f"{subspace.label} / {gb.ref}={value!r}",
                       engine=subspace.engine)


def dice(subspace: Subspace,
         selections: Mapping[GroupByAttribute, Iterable]) -> Subspace:
    """Restrict several attributes simultaneously (value sets are ORed
    within an attribute, ANDed across attributes)."""
    label = subspace.label
    normalized = [(gb, tuple(values)) for gb, values in selections.items()]
    for gb, values in normalized:
        label += f" / {gb.ref} IN {sorted(map(str, set(values)))}"
    rows = subspace.engine.filter_rows(subspace, normalized)
    return Subspace.of(subspace.schema, rows, label=label,
                       engine=subspace.engine)


def _level_groupby(schema: StarSchema, gb: GroupByAttribute,
                   ref: AttributeRef) -> GroupByAttribute:
    """The declared group-by candidate for a hierarchy level, required so
    the fact-aligned resolution path is canonical."""
    try:
        return schema.groupby_attribute(ref.table, ref.column)
    except SchemaError:
        raise SchemaError(
            f"hierarchy level {ref} is not a declared group-by candidate; "
            "declare it to navigate through it"
        ) from None


def drill_down(subspace: Subspace, gb: GroupByAttribute,
               value) -> tuple[Subspace, GroupByAttribute | None]:
    """Slice on ``gb = value`` and descend one hierarchy level.

    Returns the finer subspace plus the next-finer group-by attribute to
    partition it with (None when ``gb`` is already the finest level or not
    part of a hierarchy).
    """
    schema = subspace.schema
    sliced = slice_(subspace, gb, value)
    position = schema.hierarchy_position(gb.ref)
    if position is None:
        return sliced, None
    _dim, hierarchy, idx = position
    if idx == 0:
        return sliced, None
    finer_ref = hierarchy.levels[idx - 1]
    return sliced, _level_groupby(schema, gb, finer_ref)


def roll_up(subspace: Subspace,
            gb: GroupByAttribute) -> GroupByAttribute | None:
    """The next-coarser group-by attribute for re-partitioning
    ``subspace`` (None at the top of the hierarchy)."""
    schema = subspace.schema
    position = schema.hierarchy_position(gb.ref)
    if position is None:
        return None
    _dim, hierarchy, idx = position
    if idx + 1 >= len(hierarchy.levels):
        return None
    coarser_ref = hierarchy.levels[idx + 1]
    return _level_groupby(schema, gb, coarser_ref)


@dataclass(frozen=True)
class PivotTable:
    """A two-attribute cross-tab of an aggregated measure."""

    row_values: tuple
    column_values: tuple
    cells: dict  # (row value, column value) -> aggregate
    aggregate: str  # the measure's aggregate function

    def cell(self, row, column):
        """One aggregate; a combination with no facts reads the
        aggregate's empty-input value (0 for sum/count, None for
        avg/min/max)."""
        return self.cells.get((row, column),
                              fold_rows(self.aggregate, (), ()))


def pivot(subspace: Subspace, rows_gb: GroupByAttribute,
          cols_gb: GroupByAttribute, measure_name: str) -> PivotTable:
    """Cross-tabulate the measure over two attributes.

    The cells are the one 2-key grouping of a
    :class:`~repro.plan.nodes.MultiGroupAggregate` on the subspace's
    engine (cached, backend-agnostic), folded with the measure's own
    aggregate.  Rows with a NULL on either axis are dropped.
    """
    cells = subspace.engine.pivot_aggregates(
        subspace, rows_gb, cols_gb, measure_name)
    row_values = tuple(sorted({r for r, _c in cells}, key=str))
    col_values = tuple(sorted({c for _r, c in cells}, key=str))
    return PivotTable(row_values, col_values, cells,
                      subspace.schema.measures[measure_name].aggregate)
