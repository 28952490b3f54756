"""Logical plan nodes for KDAP query evaluation.

Every evaluation the engine performs — materialising a star net's
sub-dataspace, slicing it along a facet click, aggregating a measure over
a partition — is expressed as a small tree of logical nodes:

* :class:`Scan` — every row of a base table (normally the fact table);
* :class:`RowSet` — a literal, already-materialised set of fact rows
  (a bound subspace re-entering the plan layer);
* :class:`Filter` — restrict by a fact-level predicate or by a
  fact-aligned attribute value set (a star-net ray, slice / dice);
* :class:`Partition` — group the child's rows by one or more fact-aligned
  attributes (NULL keys dropped);
* :class:`GroupAggregate` — fold a measure over the child (scalar when the
  child produces rows, a per-group mapping when it is a partition);
* :class:`MultiGroupAggregate` — fold a measure per group for several
  group-by attributes over one shared child in a single scan (the fused
  form of N single-key aggregations).

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
    convention the aggregate cache has always used.
    """

    table: str
    rows: tuple[int, ...]

    def fingerprint(self) -> Fingerprint:
        return ("rowset", self.table, len(self.rows), hash(self.rows))


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
# grouping and aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Partition(PlanNode):
    """Group the child's rows by one or more fact-aligned attributes.

    Rows whose key resolves to NULL (any key, for multi-key partitions)
    are dropped, matching ``PAR(DS', attr)`` semantics.
    """

    child: PlanNode
    keys: tuple[AttrKey, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("Partition needs at least one key")

    def fingerprint(self) -> Fingerprint:
        return (
            "partition", self.child.fingerprint(),
            tuple(k.fingerprint() for k in self.keys),
        )


@dataclass(frozen=True)
class GroupAggregate(PlanNode):
    """Fold an aggregate of a measure expression over the child.

    * child produces rows → scalar result;
    * child is a :class:`Partition` → mapping ``key value → aggregate``
      (tuple-keyed for multi-key partitions).

    ``domain`` (single-key partitions only) restricts the computed groups
    to the given values; missing values aggregate over the empty set
    (0 for sum/count, None for avg/min/max).

    ``measure_sql`` is the canonical rendering used by the fingerprint;
    ``measure_expr`` is the evaluable form used by in-memory execution
    (``None`` means COUNT(*)-style constant 1).
    """

    child: PlanNode
    aggregate: str
    measure_sql: str
    measure_expr: Expression | None = None
    domain: tuple | None = None

    @property
    def grouped(self) -> bool:
        """True when the result is a per-group mapping."""
        return isinstance(self.child, Partition)

    def fingerprint(self) -> Fingerprint:
        return (
            "groupagg", self.child.fingerprint(), self.aggregate,
            self.measure_sql, self.domain,
        )


@dataclass(frozen=True)
class MultiGroupAggregate(PlanNode):
    """Fold one measure per group for *several* group-by attributes over
    the same child rows — the fused form of N single-key
    :class:`GroupAggregate` plans sharing one row source.

    Backends evaluate the child **once**: the in-memory kernel walks the
    rows a single time while updating one accumulator dict per key; the
    SQL compiler emits one batched query (a shared filtered CTE feeding a
    UNION ALL of grouped selects).  The result maps each key's
    fingerprint to that key's ``value → aggregate`` dict.

    ``domains`` (optional, aligned with ``keys``) restricts each key's
    computed groups exactly like :class:`GroupAggregate.domain`: listed
    values that select no rows aggregate over the empty set (0 for
    sum/count, None for avg/min/max).

    The fingerprint is **order-insensitive** in the key set — two
    consumers asking for the same attributes in different orders share
    one cache entry — and tagged distinctly from ``GroupAggregate`` so a
    fused result can never be served for a single-key plan (or vice
    versa).
    """

    child: PlanNode
    keys: tuple[AttrKey, ...]
    aggregate: str
    measure_sql: str
    measure_expr: Expression | None = None
    domains: tuple[tuple | None, ...] | None = None

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("MultiGroupAggregate needs at least one key")
        if len({k.fingerprint() for k in self.keys}) != len(self.keys):
            raise ValueError("MultiGroupAggregate keys must be distinct")
        if self.domains is not None and len(self.domains) != len(self.keys):
            raise ValueError("domains must align with keys")

    def branches(self) -> tuple[tuple[AttrKey, tuple | None], ...]:
        """(key, domain) pairs in canonical (fingerprint-sorted) order."""
        domains = self.domains or (None,) * len(self.keys)
        return tuple(sorted(zip(self.keys, domains),
                            key=lambda kd: kd[0].fingerprint()))

    def fingerprint(self) -> Fingerprint:
        return (
            "multigroupagg", self.child.fingerprint(), self.aggregate,
            self.measure_sql,
            tuple((key.fingerprint(), domain)
                  for key, domain in self.branches()),
        )


def row_source(plan: PlanNode) -> PlanNode:
    """The row-producing subtree of a plan (skips a Partition wrapper)."""
    if isinstance(plan, (GroupAggregate, MultiGroupAggregate)):
        plan = plan.child
    if isinstance(plan, Partition):
        plan = plan.child
    return plan
