"""Subspaces: sets of fact rows with aggregation and partitioning.

The paper's DS' ("sub-dataspace") is exactly a subset of the fact table.
A :class:`Subspace` is therefore a sorted tuple of fact row ids bound to a
:class:`~repro.warehouse.schema.StarSchema`.

Every subspace is *engine-bound*: ``engine`` is a required
:class:`~repro.plan.engine.QueryEngine`, and aggregation and partitioning
go through its logical-plan layer — plan-level caching and whichever
execution backend the engine runs.  There is no row-at-a-time route:
DOM(DS', attr) is the key set of DS''s own partition aggregate.  Code
that holds only a schema binds with ``QueryEngine(schema)``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import Iterable

from ..relational import vector as vec
from .schema import GroupByAttribute, StarSchema


@dataclass(frozen=True)
class Subspace:
    """A subset DS' of the fact table.

    ``label`` is a human-readable description (typically the star net that
    produced it).  ``engine`` (keyword-only, required) is excluded from
    equality/hashing: two subspaces with the same rows are the same DS'
    whichever engine evaluates them.
    """

    schema: StarSchema
    fact_rows: tuple[int, ...]
    label: str = ""
    _: KW_ONLY
    engine: object = field(compare=False, repr=False)

    @staticmethod
    def of(schema: StarSchema, rows: Iterable[int], label: str = "", *,
           engine) -> "Subspace":
        """Normalise any row collection into a subspace."""
        return Subspace(schema, tuple(sorted(set(rows))), label,
                        engine=engine)

    @staticmethod
    def full(schema: StarSchema, label: str = "ALL", *,
             engine) -> "Subspace":
        """The whole dataspace DS (every fact row)."""
        return Subspace(schema, tuple(range(schema.num_fact_rows)), label,
                        engine=engine)

    def __len__(self) -> int:
        return len(self.fact_rows)

    @property
    def is_empty(self) -> bool:
        """True when no fact row qualifies."""
        return not self.fact_rows

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Subspace") -> "Subspace":
        """Rows in both subspaces (merge scan over the sorted row ids)."""
        rows = vec.intersect_sorted(self.fact_rows, other.fact_rows)
        return Subspace(self.schema, tuple(rows),
                        label=f"({self.label}) AND ({other.label})",
                        engine=self.engine)

    def union(self, other: "Subspace") -> "Subspace":
        """Rows in either subspace (merge scan over the sorted row ids)."""
        rows = vec.union_sorted(self.fact_rows, other.fact_rows)
        return Subspace(self.schema, tuple(rows),
                        label=f"({self.label}) OR ({other.label})",
                        engine=self.engine)

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a subset of this subspace."""
        return vec.is_subset_sorted(other.fact_rows, self.fact_rows)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(self, measure_name: str) -> float:
        """G(DS'): the measure aggregated over the whole subspace."""
        return self.engine.subspace_aggregate(self, measure_name)

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition_aggregates(self, gb: GroupByAttribute,
                             measure_name: str) -> dict:
        """PAR(DS', attr) aggregated: value → measure aggregate for each
        non-NULL value present in the subspace."""
        return self.engine.subspace_partition_aggregates(
            self, gb, measure_name)

    def multi_partition_aggregates(self, gbs: Iterable[GroupByAttribute],
                                   measure_name: str) -> list[dict]:
        """One :meth:`partition_aggregates` dict per group-by, fused
        through :meth:`~repro.plan.engine.QueryEngine.multi_partition_aggregates`
        (one plan, one scan or one batched SQL statement for all
        group-bys)."""
        return self.engine.multi_partition_aggregates(
            self, list(gbs), measure_name)
