"""Schema quality checks.

``validate_schema`` inspects a :class:`StarSchema` for the data-quality
problems that silently corrupt KDAP results, returning human-readable
warning strings (empty list = clean):

* non-functional hierarchy levels — a child value mapping to several
  parent values makes roll-up partitioning ambiguous;
* searchable columns that are missing or not TEXT;
* group-by paths that do not start at the fact table, do not end at the
  attribute's table, or traverse a one-to-many step (which would break
  fact-aligned resolution);
* referential-integrity violations (delegated to the catalog);
* dimensions with no group-by candidates (they can never build a facet).
"""

from __future__ import annotations

from ..relational.types import ColumnType
from .schema import StarSchema


def validate_schema(schema: StarSchema, check_integrity: bool = True,
                    max_examples: int = 3) -> list[str]:
    """Run every check; returns a list of warning messages."""
    warnings: list[str] = []
    warnings.extend(_check_hierarchies(schema, max_examples))
    warnings.extend(_check_searchable(schema))
    warnings.extend(_check_groupby_paths(schema))
    warnings.extend(_check_dimensions(schema))
    if check_integrity:
        violations = schema.database.check_referential_integrity()
        if violations:
            warnings.append(
                f"referential integrity: {len(violations)} dangling "
                f"foreign keys (first: {violations[0]})"
            )
    return warnings


def _check_hierarchies(schema: StarSchema,
                       max_examples: int) -> list[str]:
    warnings: list[str] = []
    for dim in schema.dimensions:
        for hierarchy in dim.hierarchies:
            for level in range(len(hierarchy.levels) - 1):
                _, functional, relation = schema._parent_entry(hierarchy,
                                                               level)
                if functional:
                    continue
                conflicts = [
                    f"{child!r} -> "
                    + " and ".join(repr(parent) for parent in parents)
                    for child, parents in relation.items()
                    if len(parents) > 1
                ][:max_examples]
                warnings.append(
                    f"hierarchy {hierarchy.name!r} level "
                    f"{hierarchy.levels[level]} is not functional: "
                    + "; ".join(conflicts)
                )
    return warnings


def _check_searchable(schema: StarSchema) -> list[str]:
    warnings: list[str] = []
    for table_name, columns in schema.searchable.items():
        if not schema.database.has_table(table_name):
            warnings.append(f"searchable table {table_name!r} missing")
            continue
        table = schema.database.table(table_name)
        for column in columns:
            if not table.has_column(column):
                warnings.append(
                    f"searchable column {table_name}.{column} missing")
            elif table.column(column).type is not ColumnType.TEXT:
                warnings.append(
                    f"searchable column {table_name}.{column} is "
                    f"{table.column(column).type.value}, not text")
    return warnings


def _check_groupby_paths(schema: StarSchema) -> list[str]:
    warnings: list[str] = []
    for dim in schema.dimensions:
        for gb in dim.groupbys:
            path = gb.path_from_fact
            if path.steps:
                if path.source != schema.fact_table:
                    warnings.append(
                        f"group-by {gb.ref}: path starts at "
                        f"{path.source!r}, not the fact table")
                if path.target != gb.ref.table:
                    warnings.append(
                        f"group-by {gb.ref}: path ends at "
                        f"{path.target!r}, not {gb.ref.table!r}")
                if not all(step.towards_parent for step in path.steps):
                    warnings.append(
                        f"group-by {gb.ref}: path contains a one-to-many "
                        "step; fact-aligned resolution is undefined")
            elif gb.ref.table != schema.fact_table:
                warnings.append(
                    f"group-by {gb.ref}: empty path but the attribute is "
                    "not on the fact table")
    return warnings


def _check_dimensions(schema: StarSchema) -> list[str]:
    return [
        f"dimension {dim.name!r} has no group-by candidates"
        for dim in schema.dimensions
        if not dim.groupbys
    ]
