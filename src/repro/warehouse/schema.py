"""Star/snowflake schema metadata: dimensions, hierarchies, measures.

A :class:`StarSchema` wraps a :class:`~repro.relational.catalog.Database`
with the OLAP knowledge KDAP needs:

* which table is the fact table and what the measures are;
* how tables group into *dimensions* (a dimension may span several tables,
  and one table — e.g. a shared ``Location`` — may belong to several
  dimensions);
* the *aggregation hierarchies* inside each dimension (used by roll-up
  partitioning, §5.2.1 of the paper);
* the manually declared candidate group-by attributes (§5.2.1: "In our
  current implementation, we manually specify the candidate group-by
  attributes within each dimension");
* which text attributes are full-text searchable.

The schema also owns the data derived from its tables: resolving a
dimension attribute down to one value per fact row is the hot operation
behind every partitioning, so resolved vectors, their encoded chunks,
measure vectors and hierarchy parent maps are memoised in one store whose
entries are rebuilt whenever a table they read changes.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..relational.catalog import Database
from ..relational.chunks import ColumnChunk, PlainChunk, encode_column
from ..relational.errors import SchemaError, UnknownColumnError
from ..relational.expressions import Expression
from .graph import JoinPath, SchemaGraph


@dataclass(frozen=True)
class AttributeRef:
    """A (table, column) pair naming one attribute domain."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


class AttributeKind(enum.Enum):
    """Whether an attribute partitions categorically or numerically."""

    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class GroupByAttribute:
    """A candidate group-by attribute of a dimension.

    ``path_from_fact`` is the canonical join path from the fact table to the
    attribute's table; it pins down *which role* of a shared table is meant
    (Customer-geography vs Store-geography).
    """

    ref: AttributeRef
    kind: AttributeKind
    path_from_fact: JoinPath

    @property
    def is_numerical(self) -> bool:
        """True for numerical attributes (bucketized before partitioning)."""
        return self.kind is AttributeKind.NUMERICAL

    def __str__(self) -> str:
        return f"{self.ref} ({self.kind.value})"


@dataclass(frozen=True)
class Hierarchy:
    """An aggregation hierarchy: attribute levels from finest to coarsest.

    e.g. ``EnglishProductName → SubcategoryName → CategoryName``.
    """

    name: str
    levels: tuple[AttributeRef, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise SchemaError(f"hierarchy {self.name!r} needs at least one level")

    def level_index(self, ref: AttributeRef) -> int | None:
        """Position of ``ref`` in this hierarchy, or None."""
        for i, level in enumerate(self.levels):
            if level == ref:
                return i
        return None


@dataclass(frozen=True)
class Dimension:
    """A named group of tables, hierarchies, and group-by candidates."""

    name: str
    tables: tuple[str, ...]
    hierarchies: tuple[Hierarchy, ...] = ()
    groupbys: tuple[GroupByAttribute, ...] = ()

    @property
    def is_hierarchical(self) -> bool:
        """True when the dimension declares at least one multi-level hierarchy."""
        return any(len(h.levels) > 1 for h in self.hierarchies)


@dataclass(frozen=True)
class Measure:
    """A named aggregate over fact columns.

    ``expression`` is evaluated per fact row (e.g. UnitPrice * Quantity);
    ``aggregate`` names the fold applied over a group (sum/count/avg/...).
    """

    name: str
    expression: Expression
    aggregate: str = "sum"


class StarSchema:
    """A database plus its OLAP interpretation."""

    def __init__(
        self,
        database: Database,
        fact_table: str,
        dimensions: Sequence[Dimension],
        measures: Sequence[Measure],
        searchable: Mapping[str, Sequence[str]],
        fact_complex: Sequence[str] = (),
        synonyms: Mapping[str, Sequence[str]] | None = None,
    ):
        """``fact_complex`` names additional header tables that belong to
        the fact side of the schema (e.g. the EBiz ``TRANS`` header above
        the ``TRANSITEM`` fact): join paths may traverse them without
        assigning them to any dimension.

        ``synonyms`` seeds the schema's business-term registry (term →
        ``"Table.Column"`` / ``"measure:name"`` targets) used by the
        metadata keyword matcher; see
        :class:`repro.core.synonyms.SynonymRegistry`."""
        if not database.has_table(fact_table):
            raise SchemaError(f"fact table {fact_table!r} not in database")
        self.database = database
        self.fact_table = fact_table
        self.synonyms: dict[str, tuple[str, ...]] = {
            term: tuple(targets)
            for term, targets in (synonyms or {}).items()
        }
        self.fact_complex: frozenset[str] = frozenset(fact_complex) | {
            fact_table
        }
        self.dimensions: tuple[Dimension, ...] = tuple(dimensions)
        self.measures: dict[str, Measure] = {m.name: m for m in measures}
        self.searchable: dict[str, tuple[str, ...]] = {
            t: tuple(cols) for t, cols in searchable.items()
        }
        self.graph = SchemaGraph(database)
        self._validate()
        # derived data (see _derive): lock-guarded, because the
        # service's worker sessions share one schema and fill it
        # concurrently
        self._cache_lock = threading.Lock()
        self._derived: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for table, cols in self.searchable.items():
            t = self.database.table(table)
            for col in cols:
                if not t.has_column(col):
                    raise UnknownColumnError(table, col)
        for dim in self.dimensions:
            for name in dim.tables:
                self.database.table(name)  # raises if missing
            for hierarchy in dim.hierarchies:
                for ref in hierarchy.levels:
                    t = self.database.table(ref.table)
                    if not t.has_column(ref.column):
                        raise UnknownColumnError(ref.table, ref.column)
            for gb in dim.groupbys:
                t = self.database.table(gb.ref.table)
                if not t.has_column(gb.ref.column):
                    raise UnknownColumnError(gb.ref.table, gb.ref.column)
                if gb.path_from_fact.steps:
                    if gb.path_from_fact.source != self.fact_table:
                        raise SchemaError(
                            f"group-by path for {gb.ref} must start at the "
                            f"fact table, got {gb.path_from_fact.source!r}"
                        )
                    if gb.path_from_fact.target != gb.ref.table:
                        raise SchemaError(
                            f"group-by path for {gb.ref} must end at "
                            f"{gb.ref.table!r}, got "
                            f"{gb.path_from_fact.target!r}"
                        )

    # ------------------------------------------------------------------
    # dimension / hierarchy lookups
    # ------------------------------------------------------------------
    def dimension(self, name: str) -> Dimension:
        """Look up a dimension by name."""
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise SchemaError(f"unknown dimension {name!r}")

    def dimensions_of_table(self, table: str) -> list[Dimension]:
        """Every dimension containing ``table`` (shared tables → several)."""
        return [d for d in self.dimensions if table in d.tables]

    def hierarchy_position(
        self, ref: AttributeRef
    ) -> tuple[Dimension, Hierarchy, int] | None:
        """Locate ``ref`` inside some dimension hierarchy.

        Returns (dimension, hierarchy, level index), or None when the
        attribute is not a hierarchy level.
        """
        for dim in self.dimensions:
            for hierarchy in dim.hierarchies:
                idx = hierarchy.level_index(ref)
                if idx is not None:
                    return (dim, hierarchy, idx)
        return None

    # ------------------------------------------------------------------
    # derived data: one version-stamped store
    # ------------------------------------------------------------------
    def _derive(self, key: tuple, stamp: tuple, build=None):
        """The one memo rule for data derived from the warehouse: an
        entry is stamped with the versions of the tables its ``build``
        reads, taken before building, and rebuilt in full once the
        ``stamp`` a caller passes differs.  With no ``build`` this only
        looks (None for a missing or stale entry).  Concurrent first
        builds may race; the last one keeps the slot and every caller
        gets an equal value."""
        with self._cache_lock:
            entry = self._derived.get(key)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        if build is None:
            return None
        value = build()
        with self._cache_lock:
            self._derived[key] = (stamp, value)
        return value

    def _fact_stamp(self, path: JoinPath) -> tuple[int, ...]:
        """Versions of the tables a fact-aligned ``path`` reads."""
        tables = path.tables if path.steps else (self.fact_table,)
        return tuple(self.database.table(t).version for t in tables)

    # ------------------------------------------------------------------
    # row-level resolution (fact-aligned vectors)
    # ------------------------------------------------------------------
    def resolve_column(self, base_table: str, path: JoinPath,
                       column: str) -> list:
        """One value of ``column`` per row of ``base_table``, resolved by
        walking ``path`` (every step must move towards an FK parent, i.e.
        many-to-one, so each base row maps to at most one value).

        Rows whose FK chain dangles resolve to None.
        """
        table = self.database.table(base_table)
        current: list = list(range(len(table)))
        current_table = table
        for step in path.steps:
            if not step.towards_parent:
                raise SchemaError(
                    f"cannot resolve row-level values across a one-to-many "
                    f"step: {step}"
                )
            parent = self.database.table(step.target)
            parent_index: dict[object, int] = {}
            for rid, value in enumerate(parent.column_values(step.target_column)):
                if value is not None and value not in parent_index:
                    parent_index[value] = rid
            child_values = current_table.column_values(step.source_column)
            current = [
                parent_index.get(child_values[rid]) if rid is not None else None
                for rid in current
            ]
            current_table = parent
        values = current_table.column_values(column)
        return [values[rid] if rid is not None else None for rid in current]

    def fact_vector(self, path: JoinPath, column: str) -> list:
        """Cached fact-aligned vector of ``column`` reached via ``path``."""
        return self._derive(
            ("vector", path.fk_names, column), self._fact_stamp(path),
            lambda: self.resolve_column(self.fact_table, path, column))

    def fact_chunks(self, path: JoinPath, column: str) -> list[ColumnChunk]:
        """Encoded column chunks of one fact-aligned vector (cached).

        Dimension attributes resolved to the fact grain repeat few
        distinct values, so these almost always dictionary- or
        run-length-encode; the chunk list is index-aligned with every
        other fact-grain chunk list, letting multi-key operators walk
        them in lockstep and skip chunks via zone maps.

        The encoding reuses a fresh :meth:`fact_vector` entry when one
        exists, and otherwise keeps the vector it resolved only when a
        plain chunk views it (it is kept alive then anyway): an
        attribute that only filters and groups touch, such as a
        star-net ray's, keeps just its encoded chunks.
        """
        stamp = self._fact_stamp(path)
        vector_key = ("vector", path.fk_names, column)

        def build() -> list[ColumnChunk]:
            vector = self._derive(vector_key, stamp)
            if vector is not None:
                return encode_column(vector)
            vector = self.resolve_column(self.fact_table, path, column)
            chunks = encode_column(vector)
            if any(isinstance(chunk, PlainChunk) for chunk in chunks):
                self._derive(vector_key, stamp, lambda: vector)
            return chunks

        return self._derive(("chunks", path.fk_names, column), stamp,
                            build)

    def groupby_vector(self, gb: GroupByAttribute) -> list:
        """Fact-aligned values of a group-by attribute."""
        return self.fact_vector(gb.path_from_fact, gb.ref.column)

    def measure_vector(self, measure_name: str) -> list:
        """Cached per-fact-row values of a named measure."""
        expression = self.measures[measure_name].expression
        return self.expression_vector(str(expression), expression)

    def expression_vector(self, sql: str, expression: Expression) -> list:
        """Cached per-fact-row values of a measure expression (computed
        through the expression batch seam, one kernel pass over the fact
        table).  Keyed by the canonical SQL ``sql`` — the ``measure_sql``
        plans carry — so name-based and plan-based callers share one
        entry."""
        fact = self.database.table(self.fact_table)

        def build() -> list:
            expression.validate(fact)
            return expression.evaluate_batch(fact)

        return self._derive(("expression", sql), (fact.version,), build)

    # ------------------------------------------------------------------
    # hierarchy value mappings (for roll-up)
    # ------------------------------------------------------------------
    def parent_map(self, hierarchy: Hierarchy, level_index: int) -> dict:
        """child value → parent value map between adjacent hierarchy levels.

        Derived from the data: project (child, parent) pairs, joining across
        tables when the levels live in different tables.  A child with
        several parents maps to the first non-NULL one seen.
        """
        return self._parent_entry(hierarchy, level_index)[0]

    def functional_parent_map(self, hierarchy: Hierarchy,
                              level_index: int) -> dict | None:
        """:meth:`parent_map`, but only when the step is *functional*.

        Returns None when any child value maps to more than one parent —
        including a mix of NULL and non-NULL parents (e.g. scale's
        MonthName, where "January" belongs to several calendar years).
        Lattice roll-up may only re-aggregate a finer materialized view
        across functional steps; otherwise per-row re-partitioning and
        per-value mapping would disagree.
        """
        mapping, functional, _ = self._parent_entry(hierarchy, level_index)
        return mapping if functional else None

    def _parent_entry(self, hierarchy: Hierarchy,
                      level_index: int) -> tuple[dict, bool, dict]:
        """``(parent_map, functional, relation)`` of one hierarchy step:
        ``relation`` maps each child value to an ordered dict whose keys
        are every parent it appears with (NULL included), and the step
        is functional when each child has exactly one."""
        if level_index + 1 >= len(hierarchy.levels):
            raise SchemaError(
                f"level {level_index} of hierarchy {hierarchy.name!r} "
                "has no parent level"
            )
        child_ref = hierarchy.levels[level_index]
        parent_ref = hierarchy.levels[level_index + 1]
        path = None
        tables = {child_ref.table, parent_ref.table}
        if child_ref.table != parent_ref.table:
            path = self._hierarchy_link_path(child_ref.table,
                                             parent_ref.table)
            tables.update(path.tables)
        stamp = tuple(self.database.table(t).version for t in sorted(tables))

        def build() -> tuple[dict, bool, dict]:
            child_table = self.database.table(child_ref.table)
            if path is None:
                parent_values = child_table.column_values(parent_ref.column)
            else:
                parent_values = self.resolve_column(
                    child_ref.table, path, parent_ref.column)
            mapping: dict = {}
            relation: dict = {}
            for child, parent in zip(
                    child_table.column_values(child_ref.column),
                    parent_values):
                if child is None:
                    continue
                relation.setdefault(child, {})[parent] = None
                if parent is not None:
                    mapping.setdefault(child, parent)
            functional = all(len(parents) == 1
                             for parents in relation.values())
            return mapping, functional, relation

        return self._derive(("parents", hierarchy.name, level_index), stamp,
                            build)

    def _hierarchy_link_path(self, child_table: str,
                             parent_table: str) -> JoinPath:
        """Shortest child → parent path that avoids the fact table."""
        candidates = [
            p for p in self.graph.join_paths(child_table, parent_table)
            if not (set(p.tables) & self.fact_complex)
            and all(s.towards_parent for s in p.steps)
        ]
        if not candidates:
            raise SchemaError(
                f"no FK chain from {child_table!r} up to {parent_table!r}"
            )
        return candidates[0]

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def num_fact_rows(self) -> int:
        """Number of rows in the fact table."""
        return len(self.database.table(self.fact_table))

    def groupby_attribute(self, table: str, column: str) -> GroupByAttribute:
        """Find a declared group-by candidate by its attribute ref."""
        for dim in self.dimensions:
            for gb in dim.groupbys:
                if gb.ref.table == table and gb.ref.column == column:
                    return gb
        raise SchemaError(f"no group-by candidate {table}.{column}")
