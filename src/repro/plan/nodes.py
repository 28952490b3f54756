"""Logical plan nodes for KDAP query evaluation.

Every evaluation the engine performs — materialising a star net's
sub-dataspace, slicing it along a facet click, aggregating a measure over
a partition — is expressed as a small tree of logical nodes:

* :class:`Scan` — every row of a base table (normally the fact table);
* :class:`RowSet` — a literal, already-materialised set of fact rows
  (a bound subspace re-entering the plan layer);
* :class:`Filter` — restrict by a fact-level predicate or by a
  fact-aligned attribute value set (a star-net ray, slice / dice);
* :class:`MultiGroupAggregate` — the one aggregate node: fold a measure
  per group for one or more groupings of 0, 1 or 2 attributes over one
  shared child in a single scan — G(DS′) is a 0-key grouping, a
  partition a 1-key one and a pivot's cells a 2-key one.

Plans are *logical*: they name tables, join paths, and predicates, but
prescribe no execution strategy.  Backends (:mod:`repro.plan.backends`)
interpret them either as in-memory row-id operator chains or as SQL.

Every node has a canonical, hashable **fingerprint** — the identity used
by the plan cache, so semantically identical requests share one cache
entry regardless of which consumer (facets, OLAP operators, the session)
built the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational.expressions import Expression, Predicate
from ..warehouse.graph import JoinPath

Fingerprint = tuple
"""Canonical nested-tuple identity of a plan (hashable, order-stable)."""


class PlanNode:
    """Base class for all logical plan nodes."""

    def fingerprint(self) -> Fingerprint:
        """Canonical hashable identity of this subtree."""
        raise NotImplementedError

    @property
    def kind(self) -> str:
        """Operator name used by per-operator counters."""
        return type(self).__name__


@dataclass(frozen=True)
class AttrKey:
    """A fact-aligned attribute: ``table.column`` reached from the fact
    table along ``path`` (oriented fact → table, every step many-to-one)."""

    table: str
    column: str
    path: JoinPath

    def fingerprint(self) -> Fingerprint:
        return (self.table, self.column, self.path.fk_names)

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


# ----------------------------------------------------------------------
# row-producing nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scan(PlanNode):
    """All rows of ``table`` (the whole dataspace when it is the fact
    table)."""

    table: str

    def fingerprint(self) -> Fingerprint:
        return ("scan", self.table)


@dataclass(frozen=True)
class RowSet(PlanNode):
    """A literal set of ``table`` row ids — a materialised subspace used
    as a plan leaf.

    The fingerprint uses (length, structural hash) rather than the full
    row tuple so cache keys stay small; this matches the content-key
    convention the aggregate cache has always used.  The hash is taken
    once, here: a tuple does not cache its own, and one subspace's node
    is fingerprinted once per aggregate branch over it.
    """

    table: str
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rows_hash", hash(self.rows))

    def fingerprint(self) -> Fingerprint:
        return ("rowset", self.table, len(self.rows), self._rows_hash)


@dataclass(frozen=True)
class Filter(PlanNode):
    """Row restriction.

    Two flavours, mutually exclusive:

    * ``predicate`` set — a row-level predicate over the base table's own
      columns (measure filters like ``revenue > 5000``);
    * ``attr`` + ``values`` set — keep rows whose fact-aligned ``attr``
      value is in ``values`` (a star-net ray, the slice / dice
      operators).  ``None`` in ``values`` keeps rows whose attribute
      resolves to NULL, dangling foreign keys included.
    """

    child: PlanNode
    predicate: Predicate | None = None
    attr: AttrKey | None = None
    values: tuple = ()

    def __post_init__(self) -> None:
        if (self.predicate is None) == (self.attr is None):
            raise ValueError(
                "Filter needs exactly one of predicate= or attr=")

    def fingerprint(self) -> Fingerprint:
        if self.predicate is not None:
            return ("filter", self.child.fingerprint(),
                    str(self.predicate))
        return (
            "filter", self.child.fingerprint(), self.attr.fingerprint(),
            tuple(sorted(self.values, key=repr)),
        )


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def grouping_fingerprint(grouping: tuple[AttrKey, ...]) -> Fingerprint:
    """Canonical identity of one grouping (key order kept: a pivot's
    rows and columns are not interchangeable)."""
    return tuple(key.fingerprint() for key in grouping)


@dataclass(frozen=True)
class MultiGroupAggregate(PlanNode):
    """Fold one measure per group for each of one or more *groupings*
    (branches) over the same child rows — the one aggregate node.

    A grouping is a tuple of distinct :class:`AttrKey` objects:

    * ``()`` has exactly one group, ``()``, even over zero rows (SQL
      ``GROUP BY ()``) — the scalar G(DS′);
    * one key groups by that attribute's value — ``PAR(DS', attr)``;
    * two keys group by the value pair — a pivot's cells.

    Rows where any key of a grouping resolves to NULL are dropped from
    that grouping.  A one-key grouping's groups are keyed by the bare
    value, every other grouping's by the value tuple.  The result maps
    each grouping's :func:`grouping_fingerprint` to its
    ``group → aggregate`` dict.

    Backends evaluate the child **once**: the in-memory kernel walks the
    rows for all one-key branches in a single pass; the SQL compiler
    emits one batched query (a shared filtered CTE feeding a UNION ALL
    of grouped selects).

    Every branch is unrestricted: a key's dict holds every non-NULL value
    present in the child rows.  Restricting a partition to another
    space's domain is a projection its consumer makes
    (:mod:`repro.core.attribute_ranking`).

    The fingerprint is **order-insensitive** in the grouping set — two
    consumers asking for the same attributes in different orders share
    one cache entry.
    """

    child: PlanNode
    groupings: tuple[tuple[AttrKey, ...], ...]
    aggregate: str
    measure_sql: str
    measure_expr: Expression | None = None

    def __post_init__(self) -> None:
        if not self.groupings:
            raise ValueError("MultiGroupAggregate needs at least one "
                             "grouping")
        fingerprints = {grouping_fingerprint(g) for g in self.groupings}
        if len(fingerprints) != len(self.groupings):
            raise ValueError("MultiGroupAggregate groupings must be "
                             "distinct")
        if any(len(set(fp)) != len(fp) for fp in fingerprints):
            raise ValueError("the keys of a grouping must be distinct")

    def branches(self) -> tuple[tuple[AttrKey, ...], ...]:
        """The groupings in canonical (fingerprint-sorted) order."""
        return tuple(sorted(self.groupings, key=grouping_fingerprint))

    def fingerprint(self) -> Fingerprint:
        return (
            "multigroupagg", self.child.fingerprint(), self.aggregate,
            self.measure_sql,
            tuple(grouping_fingerprint(g) for g in self.branches()),
        )


def row_source(plan: PlanNode) -> PlanNode:
    """The row-producing subtree of a plan (an aggregate's child)."""
    if isinstance(plan, MultiGroupAggregate):
        return plan.child
    return plan
