"""Rays and star nets (paper §4.2).

A *star net* picks one hit group per keyword and fixes a join path from
every hit group's table to the fact table.  The star net is the unit the
user disambiguates among — it fully determines a sub-dataspace.

The OLAP-specific join semantics of §4.2 are implemented here:

* every star net contains the fact table and all rays join *through* it
  (no DISCOVER-style dimension-to-dimension joins);
* rays whose paths lie in the same dimension share table aliases when the
  path prefixes agree (intersection semantics, e.g. two hierarchies of the
  Product dimension both meeting at the Product table);
* the same physical table reached through different dimensions gets
  distinct aliases (Location as customer-city vs store-city).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..plan.compile import compile_plan
from ..plan.builders import ray_filter
from ..plan.nodes import Filter, PlanNode, Scan
from ..relational.sql import JoinQuery, qualify_measure
from ..warehouse.graph import JoinPath
from ..warehouse.schema import StarSchema
from .hits import HitGroup


@dataclass(frozen=True)
class Ray:
    """One hit group plus its join path to the fact table.

    ``path_to_fact`` is oriented hit-table → fact; an empty path means the
    hit group matched a fact-table attribute (selecting fact points
    directly, per the paper's "hit groups from the fact table further
    select a subset of data points").

    ``dimension`` is the dimension the path runs through (None for
    fact-table hits); it drives alias merging.
    """

    hit_group: HitGroup
    path_to_fact: JoinPath
    dimension: str | None

    def __str__(self) -> str:
        if not self.path_to_fact.steps:
            return f"{self.hit_group} (fact attribute)"
        return f"{self.hit_group} via {self.path_to_fact}"


@dataclass(frozen=True)
class StarNet:
    """A candidate interpretation: rays joined through the fact table.

    ``measure_predicates`` (the §7 extension) are deterministic fact-level
    filters parsed from keywords like ``revenue>5000``; they constrain the
    subspace but carry no textual ambiguity and do not affect ranking.
    """

    fact_table: str
    rays: tuple[Ray, ...]
    measure_predicates: tuple = ()
    label: str = field(init=False, repr=False, compare=False)
    """The star net as one line: its hit groups' labels, then its
    measure predicates.  Built with the net, since ranking reads it for
    every candidate as the tie-break; not part of equality or hashing."""

    def __post_init__(self) -> None:
        parts = [r.hit_group.label for r in self.rays]
        parts.extend(f"[{p}]" for p in self.measure_predicates)
        object.__setattr__(self, "label", " & ".join(parts))

    @property
    def size(self) -> int:
        """|SN|: the number of hit groups in the star net."""
        return len(self.rays)

    @property
    def hit_groups(self) -> tuple[HitGroup, ...]:
        """The hit groups, in ray order."""
        return tuple(r.hit_group for r in self.rays)

    @property
    def hitted_dimensions(self) -> tuple[str, ...]:
        """Names of dimensions touched by some ray (deduplicated, ordered)."""
        seen: list[str] = []
        for ray in self.rays:
            if ray.dimension is not None and ray.dimension not in seen:
                seen.append(ray.dimension)
        return tuple(seen)

    def describe(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"StarNet through {self.fact_table}:"]
        for ray in self.rays:
            lines.append(f"  - {ray}")
        for predicate in self.measure_predicates:
            lines.append(f"  - measure filter: {predicate}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.label

    # ------------------------------------------------------------------
    # logical plan / SQL rendering
    # ------------------------------------------------------------------
    def to_plan(self, schema: StarSchema) -> PlanNode:
        """The row-producing logical plan this star net denotes: a scan of
        the fact table narrowed by one attribute filter per ray (the hit
        attribute reached from the fact table, §4.2's star join) and one
        predicate filter per measure predicate.

        Raises ValueError for a ray whose values hold ``None`` (see
        :func:`~repro.plan.builders.ray_filter`).
        """
        node: PlanNode = Scan(self.fact_table)
        for ray in self.rays:
            hit = ray.hit_group
            node = ray_filter(node, hit.table, hit.attribute, hit.values,
                              ray.path_to_fact)
        if self.measure_predicates:
            from ..relational.expressions import Col, Compare, Const

            for mp in self.measure_predicates:
                if mp.is_measure:
                    expr = schema.measures[mp.target].expression
                else:
                    expr = Col(mp.target)
                node = Filter(node,
                              predicate=Compare(mp.op, expr, Const(mp.value)))
        return node

    def to_join_query(self, schema: StarSchema, measure_name: str,
                      group_by: list[tuple[str, str]] | None = None) -> JoinQuery:
        """Compile this star net into a fact-rooted :class:`JoinQuery`.

        Delegates to the plan compiler (:mod:`repro.plan.compile`), which
        implements the alias-merge semantics: walking each ray's path
        fact → hit table, a step reuses an existing alias when a ray of
        the *same dimension* already took the identical step from the same
        alias; otherwise it mints a fresh alias.
        """
        measure = schema.measures[measure_name]
        query = compile_plan(self.to_plan(schema), schema.database)
        query.aggregate = measure.aggregate
        query.measure_sql = qualify_measure(str(measure.expression), "f")
        query.measure_expr = measure.expression
        query.group_by = list(group_by or [])
        return query

    def to_sql(self, schema: StarSchema, measure_name: str) -> str:
        """The SQL text this star net denotes (aggregate over the subspace)."""
        return self.to_join_query(schema, measure_name).to_sql()
