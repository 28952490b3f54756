"""Subspaces: sets of fact rows with aggregation and partitioning.

The paper's DS' ("sub-dataspace") is exactly a subset of the fact table.
A :class:`Subspace` is therefore a sorted tuple of fact row ids bound to a
:class:`~repro.warehouse.schema.StarSchema`.

A subspace may additionally be *engine-bound* (``engine`` set to a
:class:`~repro.plan.engine.QueryEngine`): aggregation and partitioning
then go through the engine's logical-plan layer — picking up plan-level
caching and whichever execution backend the engine runs — while unbound
subspaces run the same grouped kernel locally over the schema's cached
fact-aligned column chunks.  Results are identical either way; the
binding only chooses the evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..relational import vector as vec
from ..relational.operators import (
    AGGREGATES,
    chunked_group_states,
    finalize_group_states,
)
from .schema import GroupByAttribute, StarSchema


@dataclass(frozen=True)
class Subspace:
    """A subset DS' of the fact table.

    ``label`` is a human-readable description (typically the star net that
    produced it).  ``engine`` is excluded from equality/hashing: two
    subspaces with the same rows are the same DS' regardless of how they
    will be evaluated.
    """

    schema: StarSchema
    fact_rows: tuple[int, ...]
    label: str = ""
    engine: object | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def of(schema: StarSchema, rows: Iterable[int], label: str = "",
           engine=None) -> "Subspace":
        """Normalise any row collection into a subspace."""
        return Subspace(schema, tuple(sorted(set(rows))), label,
                        engine=engine)

    @staticmethod
    def full(schema: StarSchema, label: str = "ALL",
             engine=None) -> "Subspace":
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
                        engine=self.engine or other.engine)

    def union(self, other: "Subspace") -> "Subspace":
        """Rows in either subspace (merge scan over the sorted row ids)."""
        rows = vec.union_sorted(self.fact_rows, other.fact_rows)
        return Subspace(self.schema, tuple(rows),
                        label=f"({self.label}) OR ({other.label})",
                        engine=self.engine or other.engine)

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a subset of this subspace."""
        return vec.is_subset_sorted(other.fact_rows, self.fact_rows)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(self, measure_name: str) -> float:
        """G(DS'): the measure aggregated over the whole subspace."""
        if self.engine is not None:
            return self.engine.subspace_aggregate(self, measure_name)
        measure = self.schema.measures[measure_name]
        values = self.schema.measure_vector(measure_name)
        fn = AGGREGATES[measure.aggregate]
        return fn(vec.take(values, self.fact_rows))

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def groupby_values(self, gb: GroupByAttribute) -> list:
        """The group-by attribute's value for each row of the subspace,
        aligned with ``fact_rows``."""
        return vec.take(self.schema.groupby_vector(gb), self.fact_rows)

    def domain(self, gb: GroupByAttribute) -> list:
        """DOM(DS', attr): distinct non-null attribute values present,
        sorted for determinism."""
        return sorted(
            {v for v in self.groupby_values(gb) if v is not None},
            key=lambda v: (str(type(v)), v),
        )

    def partition(self, gb: GroupByAttribute) -> dict:
        """PAR(DS', attr): value → list of subspace rows (NULLs dropped),
        grouped in one columnar pass."""
        return vec.group_rows(self.schema.groupby_vector(gb),
                              self.fact_rows)

    def partition_aggregates(
        self,
        gb: GroupByAttribute,
        measure_name: str,
        domain: Iterable | None = None,
    ) -> dict:
        """value → aggregated measure for each group.

        When ``domain`` is given, only those categories are computed and
        missing categories aggregate over zero rows (0 for sum/count,
        None for avg/min/max) — this implements the paper's restriction
        of PAR(RUP(DS'), attr) to the segments that also exist in
        PAR(DS', attr).
        """
        if self.engine is not None:
            return self.engine.subspace_partition_aggregates(
                self, gb, measure_name, domain=domain)
        return self.multi_partition_aggregates([gb], measure_name,
                                               domains=[domain])[0]

    def multi_partition_aggregates(
        self,
        gbs: Iterable[GroupByAttribute],
        measure_name: str,
        domains: Iterable | None = None,
    ) -> list[dict]:
        """One :meth:`partition_aggregates` dict per group-by, fused.

        Engine-bound subspaces route through
        :meth:`~repro.plan.engine.QueryEngine.multi_partition_aggregates`
        (one plan, one scan or one batched SQL statement for all
        group-bys); unbound subspaces run the memory backend's grouped
        kernel (:func:`~repro.relational.operators.chunked_group_states`)
        locally over the schema's encoded fact chunks, so both paths add
        the same floats in the same order.  ``domains`` aligns with
        ``gbs`` when given (None entries unrestricted).
        """
        gbs = list(gbs)
        if self.engine is not None:
            return self.engine.multi_partition_aggregates(
                self, gbs, measure_name, domains=domains)
        domain_keys = ([None] * len(gbs) if domains is None
                       else [None if d is None else tuple(d)
                             for d in domains])
        if len(domain_keys) != len(gbs):
            raise ValueError("domains must align one-to-one with gbs")
        measure = self.schema.measures[measure_name]
        if self.is_empty or not gbs:
            fill = AGGREGATES[measure.aggregate](())
            return [
                {} if dk is None else {value: fill for value in dk}
                for dk in domain_keys
            ]
        states = chunked_group_states(
            [self.schema.fact_chunks(gb.path_from_fact, gb.ref.column)
             for gb in gbs],
            self.schema.measure_vector(measure_name), measure.aggregate,
            row_ids=self.fact_rows)
        return [finalize_group_states(measure.aggregate, groups, dk)
                for groups, dk in zip(states, domain_keys)]
