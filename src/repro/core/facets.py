"""Dynamic facet construction (paper §5).

Given the user-selected star net and its sub-dataspace DS', this module
assembles the multi-faceted interface:

* one :class:`DynamicFacet` per dimension, in a static dimension order
  (the paper assumes a fixed order and ranks only attributes/instances);
* inside each facet, the top-k most interesting group-by attributes,
  scored by roll-up partitioning — except attributes of *hitted*
  dimensions that appear in a hit group, which are promoted directly for
  navigational access;
* inside each attribute, ranked attribute instances (Eq. 2) for
  categorical domains, or annealed display intervals for numerical ones.

Roll-up spaces are derived from the star net itself: rolling DS' up along
a hitted dimension generalises that dimension's hit groups one hierarchy
level (or drops them when no parent level exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs.tracer import current_tracer
from ..plan.builders import subspace_aggregate_plan
from ..relational import vector
from ..relational.errors import ResourceExhausted
from ..relational.operators import fold_rows
from ..resilience.budget import current_budget
from ..warehouse.graph import JoinPath
from ..warehouse.rollup import generalize_values
from ..warehouse.schema import (
    AttributeKind,
    AttributeRef,
    GroupByAttribute,
    StarSchema,
)
from ..warehouse.subspace import Subspace
from .annealing import AnnealingConfig, anneal_splits, merge_series
from .attribute_ranking import (
    DEFAULT_NUM_BUCKETS,
    numerical_series,
    rank_groupby_attributes,
)
from .bucketing import ADDITIVE_AGGREGATES, Interval
from .hits import HitGroup
from .instance_ranking import rank_instances_batch
from .interestingness import SURPRISE, InterestingnessMeasure, ordered_sum
from .starnet import Ray, StarNet


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs for the explore phase."""

    measure_name: str = "revenue"
    top_k_attributes: int = 3
    top_k_instances: int = 6
    num_buckets: int = DEFAULT_NUM_BUCKETS
    display_intervals: int = 5
    skew_limit: float = 4.0
    annealing_iterations: int = 300
    seed: int = 7


@dataclass(frozen=True)
class FacetEntry:
    """One attribute instance (or display interval) inside a facet."""

    label: str
    value: object
    aggregate: float
    score: float


@dataclass(frozen=True)
class FacetAttribute:
    """One selected group-by attribute with its ranked entries."""

    attribute: GroupByAttribute
    score: float
    promoted: bool
    entries: tuple[FacetEntry, ...]


@dataclass(frozen=True)
class DynamicFacet:
    """All selected attributes of one dimension."""

    dimension: str
    attributes: tuple[FacetAttribute, ...]


@dataclass(frozen=True)
class FacetedInterface:
    """The full explore-phase output."""

    subspace: Subspace
    total_aggregate: float
    facets: tuple[DynamicFacet, ...]

    def facet(self, dimension: str) -> DynamicFacet:
        """The facet of one dimension."""
        for facet in self.facets:
            if facet.dimension == dimension:
                return facet
        raise KeyError(f"no facet for dimension {dimension!r}")


# ----------------------------------------------------------------------
# roll-up space construction
# ----------------------------------------------------------------------
def rollup_ray(schema: StarSchema, ray: Ray) -> Ray | None:
    """Generalise one ray a hierarchy level up; None = roll up to ALL."""
    ref = AttributeRef(ray.hit_group.table, ray.hit_group.attribute)
    generalised = generalize_values(schema, ref, ray.hit_group.values)
    if generalised is None:
        return None
    parent_ref, parent_values = generalised
    from ..textindex.index import SearchHit

    hits = tuple(
        SearchHit(parent_ref.table, parent_ref.column, value, 0.0)
        for value in sorted(parent_values)
    )
    group = HitGroup(parent_ref.table, parent_ref.column, hits,
                     ray.hit_group.keywords)
    if parent_ref.table == ray.hit_group.table:
        path = ray.path_to_fact
    else:
        link = schema._hierarchy_link_path(ray.hit_group.table,
                                           parent_ref.table)
        path = JoinPath(link.reversed().steps + ray.path_to_fact.steps)
    return Ray(group, path, ray.dimension)


def rollup_subspace(schema: StarSchema, star_net: StarNet,
                    dimension: str, engine) -> Subspace:
    """RUP(DS') along one hitted dimension.

    Every ray of ``dimension`` is generalised one hierarchy level (or
    dropped at the top — roll-up to ALL); rays of other dimensions keep
    their selections.  The rolled-up net is evaluated through ``engine``
    (and the result stays bound to it).
    """
    new_rays: list[Ray] = []
    for ray in star_net.rays:
        if ray.dimension == dimension:
            rolled = rollup_ray(schema, ray)
            if rolled is not None:
                new_rays.append(rolled)
        else:
            new_rays.append(ray)
    rolled = engine.evaluate(StarNet(star_net.fact_table, tuple(new_rays)))
    return Subspace(schema, rolled.fact_rows,
                    label=f"RUP[{dimension}]({star_net})", engine=engine)


def rollup_subspaces(schema: StarSchema, star_net: StarNet,
                     engine) -> list[Subspace]:
    """One roll-up space per hitted dimension; the full dataspace when the
    star net has no hitted dimensions (e.g. only fact-attribute hits)."""
    dims = star_net.hitted_dimensions
    if not dims:
        return [Subspace.full(schema, engine=engine)]
    return [rollup_subspace(schema, star_net, d, engine) for d in dims]


# ----------------------------------------------------------------------
# facet assembly
# ----------------------------------------------------------------------
def _promoted_attributes(schema: StarSchema, star_net: StarNet,
                         dimension: str) -> list[GroupByAttribute]:
    """Hit-group attributes of a hitted dimension, promoted directly
    (§5.2.1: "the attributes from the hit groups are directly selected")."""
    promoted: list[GroupByAttribute] = []
    seen: set[tuple[str, str]] = set()
    for ray in star_net.rays:
        if ray.dimension != dimension:
            continue
        key = (ray.hit_group.table, ray.hit_group.attribute)
        if key in seen:
            continue
        seen.add(key)
        ref = AttributeRef(*key)
        declared = [
            gb
            for dim in schema.dimensions
            for gb in dim.groupbys
            if gb.ref == ref
        ]
        if declared:
            promoted.append(declared[0])
        else:
            promoted.append(
                GroupByAttribute(
                    ref, AttributeKind.CATEGORICAL,
                    ray.path_to_fact.reversed(),
                )
            )
    return promoted


def _numerical_entries(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    gb: GroupByAttribute,
    config: ExploreConfig,
) -> tuple[FacetEntry, ...]:
    """Bucketize, anneal to display intervals, and render interval entries.

    The annealing objective compares correlations against the first
    roll-up space (when several exist, the first hitted dimension's).
    For an attribute the ranking already scored, both partitions are
    plan-cache hits.
    """
    rollup = rollups[0]
    try:
        pair, buckets = numerical_series(
            subspace, rollup, gb, config.measure_name, config.num_buckets
        )
    except ValueError:
        return ()
    x = list(pair.subspace_series)
    y = list(pair.rollup_series)
    k = min(config.display_intervals, len(x))
    if k < 1:
        return ()
    if k == len(x):
        splits: tuple[int, ...] = tuple(range(1, len(x)))
    else:
        with current_tracer().span("facet.anneal", attribute=str(gb.ref),
                                   buckets=len(x), intervals=k):
            result = anneal_splits(
                x, y,
                AnnealingConfig(
                    num_intervals=k,
                    skew_limit=config.skew_limit,
                    iterations=config.annealing_iterations,
                    seed=config.seed,
                ),
            )
        splits = result.splits
    merged_x = merge_series(x, splits)
    merged_y = merge_series(y, splits)
    total_x = ordered_sum(merged_x) or 1.0
    total_y = ordered_sum(merged_y) or 1.0
    boundaries = [0, *splits, len(x)]
    entries = []
    for i in range(len(boundaries) - 1):
        first = pair.categories[boundaries[i]]
        last = pair.categories[boundaries[i + 1] - 1]
        interval = Interval(first.low, last.high, last.closed_right)
        score = merged_x[i] / total_x - merged_y[i] / total_y
        entries.append(
            FacetEntry(
                label=f"{interval.low:g} - {interval.high:g}",
                value=interval,
                aggregate=merged_x[i],
                score=score,
            )
        )
    return tuple(entries)


def expand_interval(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    gb: GroupByAttribute,
    interval,
    config: ExploreConfig = ExploreConfig(),
) -> tuple[FacetEntry, ...]:
    """Expand one displayed numeric interval into sub-intervals.

    §5.3.2: limiting the display to ~K merged intervals "is acceptable for
    multi-faceted search sessions, as a user can always choose to expand
    further into subsequent subintervals."  This re-runs bucketization and
    annealing *inside* the chosen interval: the sub-dataspace is restricted
    to rows whose attribute value falls in ``interval``, and fresh display
    intervals are fitted over that narrower domain.
    """
    schema = subspace.schema
    values = schema.groupby_vector(gb)
    rows = vector.select_range(values, interval.low, interval.high,
                               subspace.fact_rows,
                               inclusive_high=interval.closed_right)
    inner = Subspace.of(schema, rows,
                        label=f"{subspace.label} / {gb.ref} in {interval}",
                        engine=subspace.engine)
    if inner.is_empty:
        return ()
    inner_rollups = [
        Subspace.of(
            schema,
            vector.select_range(values, interval.low, interval.high,
                                rollup.fact_rows,
                                inclusive_high=interval.closed_right),
            label=f"{rollup.label} / {gb.ref} in {interval}",
            engine=rollup.engine,
        )
        for rollup in rollups
    ]
    inner_rollups = [r for r in inner_rollups if not r.is_empty]
    if not inner_rollups:
        inner_rollups = [inner]
    return _numerical_entries(inner, inner_rollups, gb, config)


def _note_omitted_numeric_facets(schema: StarSchema,
                                 config: ExploreConfig) -> None:
    """Tell the ambient budget's diagnostics that numeric facets are left
    out because the measure does not add up over value intervals."""
    budget = current_budget()
    measure = schema.measures[config.measure_name]
    if budget is not None and measure.aggregate not in ADDITIVE_AGGREGATES \
            and any(gb.is_numerical for dim in schema.dimensions
                    for gb in dim.groupbys):
        budget.add_note(
            f"numeric facets omitted: measure {measure.name!r} "
            f"({measure.aggregate}) is not additive over value intervals")


def build_facets(
    schema: StarSchema,
    star_net: StarNet,
    subspace: Subspace | None = None,
    interestingness: InterestingnessMeasure = SURPRISE,
    config: ExploreConfig = ExploreConfig(),
    rollups: Sequence[Subspace] | None = None,
    *,
    engine,
    promote: Sequence[GroupByAttribute] = (),
) -> FacetedInterface:
    """Construct the full dynamic multi-faceted interface for a star net.

    ``rollups`` overrides the background spaces; by default one roll-up
    per hitted dimension is derived from the star net (§5.2.1).  Drill-
    down navigation passes the previous subspace here so interestingness
    is measured against the space the user just left.

    ``promote`` lists extra group-by attributes (metadata/pattern match
    hints such as "by month") promoted into their dimension's facet
    exactly like hit-group attributes, ahead of interestingness-ranked
    ones.

    The subspace, roll-up spaces, and all facet aggregation evaluate
    through ``engine`` (a :class:`~repro.plan.engine.QueryEngine`) on its
    backend, sharing its fingerprint-keyed result cache.
    """
    tracer = current_tracer()
    subspace = (engine.evaluate(star_net) if subspace is None
                else engine.bind(subspace))
    budget = current_budget()
    _note_omitted_numeric_facets(schema, config)
    with tracer.span("facets", rows=len(subspace.fact_rows)):
        if rollups is None:
            try:
                with tracer.span("facets.rollups"):
                    rollups = rollup_subspaces(schema, star_net, engine)
            except ResourceExhausted as exc:
                if budget is None:
                    raise
                budget.record_truncation(
                    "rollup", exc.reason,
                    "no facets built: roll-up spaces exceeded the budget")
                return FacetedInterface(
                    subspace=subspace,
                    total_aggregate=_safe_total(subspace, config, budget),
                    facets=(),
                )
        rollups = [engine.bind(r) for r in rollups]
        facets: list[DynamicFacet] = []
        dims = sorted(schema.dimensions, key=lambda d: d.name)
        for position, dim in enumerate(dims):
            try:
                with tracer.span("facet.dimension", dimension=dim.name):
                    facet = _build_dimension_facet(
                        schema, star_net, dim, subspace, rollups,
                        interestingness, config, promote=promote)
            except ResourceExhausted as exc:
                if budget is None:
                    raise
                skipped = [d.name for d in dims[position:]]
                budget.record_truncation(
                    f"facet:{dim.name}", exc.reason,
                    f"facet building stopped; dimensions skipped: "
                    f"{', '.join(skipped)}")
                break
            if facet is not None:
                facets.append(facet)

        return FacetedInterface(
            subspace=subspace,
            total_aggregate=_safe_total(subspace, config, budget),
            facets=tuple(facets),
        )


def replay_cached_build(schema: StarSchema, interface: FacetedInterface,
                        config: ExploreConfig, engine) -> None:
    """What :func:`build_facets` does outside the interface it returns,
    repeated for an interface served from the plan cache: the budget
    note on omitted numeric facets, and (when tracing) a cache-hit
    marker for the total-aggregate plan whose answer the entry carries,
    so EXPLAIN reads that node as cached rather than never executed."""
    _note_omitted_numeric_facets(schema, config)
    if current_tracer().enabled and not interface.subspace.is_empty:
        measure = schema.measures[config.measure_name]
        engine.mark_cached(subspace_aggregate_plan(
            schema, interface.subspace.fact_rows, measure).fingerprint(),
            "execute")


def _build_dimension_facet(
    schema: StarSchema,
    star_net: StarNet,
    dim,
    subspace: Subspace,
    rollups: Sequence[Subspace],
    interestingness: InterestingnessMeasure,
    config: ExploreConfig,
    promote: Sequence[GroupByAttribute] = (),
) -> DynamicFacet | None:
    """One dimension's facet (None when nothing qualifies)."""
    promoted = _promoted_attributes(schema, star_net, dim.name)
    promoted_refs = {gb.ref for gb in promoted}
    for gb in promote:
        if gb in dim.groupbys and gb.ref not in promoted_refs:
            promoted.append(gb)
            promoted_refs.add(gb.ref)
    others = [gb for gb in dim.groupbys if gb.ref not in promoted_refs]
    remaining_slots = max(config.top_k_attributes - len(promoted), 0)
    ranked_others = rank_groupby_attributes(
        subspace, rollups, others, config.measure_name,
        interestingness, top_k=remaining_slots,
        num_buckets=config.num_buckets,
    ) if remaining_slots and others else []

    selected: list[tuple[GroupByAttribute, float, bool]] = [
        (gb, float("inf"), True) for gb in promoted
    ]
    selected.extend((r.attribute, r.score, False) for r in ranked_others)
    if not selected:
        return None

    # all selected categorical attributes rank their instances in one
    # fused multi-partition query per space (DS' + each roll-up)
    categorical = [gb for gb, _, _ in selected
                   if gb.kind is not AttributeKind.NUMERICAL]
    instance_lists = rank_instances_batch(
        subspace, rollups, categorical, config.measure_name,
        top_k=config.top_k_instances,
    ) if categorical else {}

    attributes = []
    for gb, score, is_promoted in selected:
        if gb.kind is AttributeKind.NUMERICAL:
            entries = _numerical_entries(subspace, rollups, gb, config)
        else:
            entries = tuple(
                FacetEntry(str(r.value), r.value, r.aggregate, r.score)
                for r in instance_lists[gb]
            )
        if not entries:
            continue
        attributes.append(
            FacetAttribute(gb, score, is_promoted, entries)
        )
    if not attributes:
        return None
    return DynamicFacet(dim.name, tuple(attributes))


def apply_modifier(interface: FacetedInterface, modifier,
                   targets: Sequence[GroupByAttribute] = ()
                   ) -> FacetedInterface:
    """Re-shape facet entries per a pattern-match :class:`Modifier`.

    "top 3" / "lowest" style hints never filter the subspace (§4 keeps
    keywords non-predicative); they only re-order and truncate the entry
    lists shown for the hinted attributes.  ``targets`` limits the
    rewrite to specific group-bys (the modifier's own group-by hints);
    when empty, every attribute's entries are reshaped.
    """
    if modifier is None or not modifier.active:
        return interface
    target_refs = {gb.ref for gb in targets}
    facets = []
    for facet in interface.facets:
        attributes = []
        for attr in facet.attributes:
            if target_refs and attr.attribute.ref not in target_refs:
                attributes.append(attr)
                continue
            entries = attr.entries
            if modifier.order == "desc":
                entries = tuple(sorted(
                    entries, key=lambda e: (-e.aggregate, e.label)))
            elif modifier.order == "asc":
                entries = tuple(sorted(
                    entries, key=lambda e: (e.aggregate, e.label)))
            if modifier.limit is not None:
                entries = entries[:modifier.limit]
            attributes.append(FacetAttribute(
                attr.attribute, attr.score, attr.promoted, entries))
        facets.append(DynamicFacet(facet.dimension, tuple(attributes)))
    return FacetedInterface(
        subspace=interface.subspace,
        total_aggregate=interface.total_aggregate,
        facets=tuple(facets),
    )


def _safe_total(subspace: Subspace, config: ExploreConfig,
                budget) -> float:
    """G(DS') even under an exhausted budget: fall back to an unbudgeted
    fold of the schema's cached measure vector over the already-
    materialised rows (one cheap pass) so a partial interface still
    reports its subspace total."""
    try:
        return subspace.aggregate(config.measure_name)
    except ResourceExhausted as exc:
        if budget is None:
            raise
        budget.record_truncation(
            "total", exc.reason,
            "subspace total computed locally outside the engine")
        schema = subspace.schema
        return fold_rows(schema.measures[config.measure_name].aggregate,
                         schema.measure_vector(config.measure_name),
                         subspace.fact_rows)
