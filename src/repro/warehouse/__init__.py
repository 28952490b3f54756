"""OLAP warehouse layer: star schemas, join paths, subspaces, roll-ups.

Public surface::

    from repro.warehouse import (
        AttributeKind, AttributeRef, Dimension, GroupByAttribute,
        Hierarchy, Measure, StarSchema,
        SchemaGraph, JoinPath, PathStep, EMPTY_PATH,
        Subspace, slice_facts, select_rows_by_values, generalize_values,
    )
"""

from .graph import (
    EMPTY_PATH,
    JoinPath,
    PathStep,
    SchemaGraph,
    path_from_fk_names,
)
from .describe import describe_schema, schema_statistics
from .materialize import (
    MaterializationTier,
    MaterializedView,
    MaterializeStats,
)
from .validate import validate_schema
from .operations import PivotTable, dice, drill_down, pivot, roll_up, slice_
from .rollup import generalize_values, select_rows_by_values, slice_facts
from .schema import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    Hierarchy,
    Measure,
    StarSchema,
)
from .subspace import Subspace

__all__ = [
    "AttributeKind",
    "AttributeRef",
    "Dimension",
    "EMPTY_PATH",
    "GroupByAttribute",
    "Hierarchy",
    "JoinPath",
    "MaterializationTier",
    "MaterializeStats",
    "MaterializedView",
    "Measure",
    "PathStep",
    "PivotTable",
    "SchemaGraph",
    "StarSchema",
    "Subspace",
    "describe_schema",
    "dice",
    "drill_down",
    "generalize_values",
    "path_from_fk_names",
    "pivot",
    "roll_up",
    "schema_statistics",
    "select_rows_by_values",
    "slice_",
    "slice_facts",
    "validate_schema",
]
