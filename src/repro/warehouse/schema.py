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

The schema also owns the *fact-aligned column cache*: resolving a dimension
attribute down to one value per fact row is the hot operation behind every
partitioning, so resolved vectors are memoised per (join path, column).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..relational.catalog import Database
from ..relational.chunks import (
    CHUNK_SIZE,
    ColumnChunk,
    PlainChunk,
    encode_chunk,
    encode_column,
)
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
        # caches -------------------------------------------------------
        # lock-guarded: the service's worker sessions share one schema
        # and resolve vectors and chunks concurrently, and an unguarded
        # dict fill would let two threads race to (re)compute the same
        # entry.
        # Every entry is version-stamped: fact-aligned entries carry the
        # versions of the non-fact tables behind them plus the fact row
        # count at fill time (append-only tables ⇒ an unchanged prefix),
        # so dimension mutations invalidate and fact appends extend the
        # cached payload incrementally instead of invalidating it.
        self._cache_lock = threading.Lock()
        self._fact_vectors: dict[tuple, tuple] = {}
        self._fact_chunks: dict[tuple, tuple] = {}
        self._measure_vectors: dict[str, tuple] = {}
        self._parent_maps: dict[tuple, tuple] = {}

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
    # row-level resolution (fact-aligned vectors)
    # ------------------------------------------------------------------
    def resolve_column(self, base_table: str, path: JoinPath,
                       column: str,
                       row_ids: Sequence[int] | None = None) -> list:
        """One value of ``column`` per row of ``base_table``, resolved by
        walking ``path`` (every step must move towards an FK parent, i.e.
        many-to-one, so each base row maps to at most one value).

        Rows whose FK chain dangles resolve to None.  ``row_ids``
        restricts resolution to a selection of base rows (the delta path
        of incremental cache maintenance); the result aligns with it.
        """
        table = self.database.table(base_table)
        current: list = (list(range(len(table))) if row_ids is None
                         else list(row_ids))
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

    def _path_versions(self, path: JoinPath) -> tuple[int, ...]:
        """Versions of every non-fact table a resolution path reads (none
        for the empty path of a fact-table column)."""
        if not path.steps:
            return ()
        return tuple(self.database.table(t).version for t in path.tables
                     if t != self.fact_table)

    def fact_vector(self, path: JoinPath, column: str) -> list:
        """Cached fact-aligned vector of ``column`` reached via ``path``.

        Thread-safe: concurrent workers may race to the first resolve;
        whichever finishes first wins the cache slot and every caller
        sees one consistent vector.  Fact appends extend the cached
        vector by resolving only the delta rows; dimension mutations
        (which can re-target existing fact rows) recompute it.
        """
        key = (path.fk_names, column)
        n = self.num_fact_rows
        dims = self._path_versions(path)
        with self._cache_lock:
            entry = self._fact_vectors.get(key)
        if entry is not None and entry[0] == dims:
            if entry[1] == n:
                return entry[2]
            if entry[1] < n:
                # append-only growth: resolve just the delta and publish
                # a fresh extended list (holders of the old snapshot keep
                # a consistent shorter vector)
                delta = self.resolve_column(self.fact_table, path, column,
                                            row_ids=range(entry[1], n))
                values = entry[2] + delta
                with self._cache_lock:
                    self._fact_vectors[key] = (dims, n, values)
                return values
        values = self.resolve_column(self.fact_table, path, column)
        with self._cache_lock:
            self._fact_vectors[key] = (dims, n, values)
        return values

    def fact_chunks(self, path: JoinPath, column: str) -> list[ColumnChunk]:
        """Encoded column chunks of one fact-aligned vector (cached).

        Dimension attributes resolved to the fact grain repeat few
        distinct values, so these almost always dictionary- or
        run-length-encode; the chunk list is index-aligned with every
        other fact-grain chunk list, letting multi-key operators walk
        them in lockstep and skip chunks via zone maps.  On fact appends
        only the tail is re-encoded: full chunks are immutable, so the
        old list is reused up to the last chunk boundary.

        A first encoding keeps the fact-aligned vector it encodes from in
        the :meth:`fact_vector` cache only when a plain chunk views it
        (it is kept alive then anyway): an attribute that only filters
        and groups touch, such as a star-net ray's, keeps just its
        encoded chunks.  An append goes through :meth:`fact_vector`,
        which resolves only the new rows from then on.
        """
        key = (path.fk_names, column)
        n = self.num_fact_rows
        dims = self._path_versions(path)
        with self._cache_lock:
            entry = self._fact_chunks.get(key)
            vector = self._fact_vectors.get(key)
        if entry is not None and entry[0] == dims and entry[1] == n:
            return entry[2]
        if (entry is not None and entry[0] == dims and entry[1] < n
                and entry[2]):
            base = self.fact_vector(path, column)
            chunks = list(entry[2])
            if chunks[-1].stop - chunks[-1].start < CHUNK_SIZE:
                chunks.pop()    # partial tail chunk: re-encode it
            start = chunks[-1].stop if chunks else 0
            while start < n:
                stop = min(start + CHUNK_SIZE, n)
                chunks.append(encode_chunk(base, start, stop))
                start = stop
        elif vector is not None and vector[0] == dims and vector[1] == n:
            chunks = encode_column(vector[2])
        else:
            base = self.resolve_column(self.fact_table, path, column)
            chunks = encode_column(base)
            if any(isinstance(chunk, PlainChunk) for chunk in chunks):
                with self._cache_lock:
                    self._fact_vectors[key] = (dims, n, base)
        with self._cache_lock:
            self._fact_chunks[key] = (dims, n, chunks)
        return chunks

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
        entry.  Fact appends evaluate only the delta rows."""
        n = self.num_fact_rows
        with self._cache_lock:
            entry = self._measure_vectors.get(sql)
        if entry is not None and entry[0] == n:
            return entry[1]
        fact = self.database.table(self.fact_table)
        if entry is not None and entry[0] < n:
            delta = expression.evaluate_batch(fact, range(entry[0], n))
            values = entry[1] + delta
        else:
            expression.validate(fact)
            values = expression.evaluate_batch(fact)
        with self._cache_lock:
            self._measure_vectors[sql] = (n, values)
        return values

    # ------------------------------------------------------------------
    # hierarchy value mappings (for roll-up)
    # ------------------------------------------------------------------
    def parent_map(self, hierarchy: Hierarchy, level_index: int) -> dict:
        """child value → parent value map between adjacent hierarchy levels.

        Derived from the data: project (child, parent) pairs, joining across
        tables when the levels live in different tables.
        """
        return self._parent_entry(hierarchy, level_index)[1]

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
        versions, mapping, functional = self._parent_entry(hierarchy,
                                                           level_index)
        del versions
        return mapping if functional else None

    def _parent_entry(self, hierarchy: Hierarchy,
                      level_index: int) -> tuple:
        if level_index + 1 >= len(hierarchy.levels):
            raise SchemaError(
                f"level {level_index} of hierarchy {hierarchy.name!r} "
                "has no parent level"
            )
        key = (hierarchy.name, level_index)
        child_ref = hierarchy.levels[level_index]
        parent_ref = hierarchy.levels[level_index + 1]
        tables = {child_ref.table, parent_ref.table}
        if child_ref.table != parent_ref.table:
            path = self._hierarchy_link_path(child_ref.table,
                                             parent_ref.table)
            tables.update(path.tables)
        versions = tuple(self.database.table(t).version
                         for t in sorted(tables))
        with self._cache_lock:
            entry = self._parent_maps.get(key)
        if entry is not None and entry[0] == versions:
            return entry
        child_table = self.database.table(child_ref.table)
        if child_ref.table == parent_ref.table:
            parent_values = child_table.column_values(parent_ref.column)
        else:
            path = self._hierarchy_link_path(child_ref.table,
                                             parent_ref.table)
            parent_values = self.resolve_column(
                child_ref.table, path, parent_ref.column
            )
        child_values = child_table.column_values(child_ref.column)
        mapping: dict = {}
        conflicted = False
        null_parents: set = set()
        for child, parent in zip(child_values, parent_values):
            if child is None:
                continue
            if parent is None:
                null_parents.add(child)
                continue
            if mapping.setdefault(child, parent) != parent:
                conflicted = True
        functional = not conflicted and not (null_parents & mapping.keys())
        entry = (versions, mapping, functional)
        with self._cache_lock:
            self._parent_maps[key] = entry
        return entry

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
