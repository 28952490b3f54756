"""Group-by attribute ranking via roll-up partitioning (paper §5.2).

For each candidate group-by attribute we build two aggregate series over
the same categories — X from the sub-dataspace DS', Y from a roll-up space
RUP(DS') — and hand them to an interestingness measure.  With several
roll-up dimensions, the paper keeps the worst (most interesting) score:
"We pick the worst score from all scores, so that the most dissimilar case
can be captured."

Every attribute is partitioned by distinct value through the one fused
engine path; a numerical attribute's ``{value: aggregate}`` partition is
then folded into basic intervals (:mod:`repro.core.bucketing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs.tracer import current_tracer
from ..warehouse.schema import GroupByAttribute
from ..warehouse.subspace import Subspace
from .annealing import merge_series
from .bucketing import (
    ADDITIVE_AGGREGATES,
    Bucketization,
    Interval,
    bucket_series,
    distinct_value_buckets,
    equal_width,
)
from .interestingness import InterestingnessMeasure, quantize_score

DEFAULT_NUM_BUCKETS = 40
"""The paper's default basic-interval count (§6.4 sets the system default
to 40 after the convergence study)."""


@dataclass(frozen=True)
class SeriesPair:
    """Aligned aggregate series (X over DS', Y over RUP(DS')) plus the
    category labels they cover."""

    categories: tuple
    subspace_series: tuple[float, ...]
    rollup_series: tuple[float, ...]


def subspace_domain(groups: dict) -> list:
    """DOM(DS', attr): the non-NULL keys of DS''s own partition
    aggregate, sorted for determinism (type name first, so mixed-type
    keys still order)."""
    return sorted((value for value in groups if value is not None),
                  key=lambda value: (str(type(value)), value))


def _series_pair(domain: list, x: dict, y: dict) -> SeriesPair:
    """X and Y over DOM(DS', attr): the roll-up partition is projected
    onto DS''s categories (the paper restricts PAR(RUP(DS'), attr) to
    the segments of PAR(DS', attr)); a category the roll-up lacks
    aggregates over no rows."""
    return SeriesPair(
        categories=tuple(domain),
        subspace_series=tuple(float(x[c] or 0.0) for c in domain),
        rollup_series=tuple(float(y.get(c) or 0.0) for c in domain),
    )


def candidate_scores(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    candidates: Sequence[GroupByAttribute],
    measure_name: str,
    measure: InterestingnessMeasure,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> list[float]:
    """SCORE(attr, DS') per candidate, worst case over the roll-up spaces
    (Eq. (1): with several hitted dimensions the maximum score wins).

    The aggregation is fused: one multi-partition query over DS' plus one
    per roll-up space answers **all** candidates, numerical ones included
    — they come back as ``{distinct value: aggregate}`` through the same
    plan cache, tier, scan kernel / SQL statement and request budget as
    the categorical ones.  Every partition is unrestricted: a categorical
    candidate's domain is the key set of its DS' partition
    (:func:`subspace_domain`), and a numerical one is folded into basic
    intervals (:func:`fold_numerical`).  Degenerate candidates (empty
    domain, or a numerical attribute under a non-additive measure, which
    is skipped without a query) score ``-inf``.
    """
    if not candidates:
        return []
    if not rollups:
        raise ValueError("at least one roll-up space is required")
    additive = _is_additive(subspace, measure_name)
    scores = [float("-inf")] * len(candidates)
    scored = [index for index, gb in enumerate(candidates)
              if additive or not gb.is_numerical]
    gbs = [candidates[index] for index in scored]
    xs = subspace.multi_partition_aggregates(gbs, measure_name)
    ys_by_rollup = [rollup.multi_partition_aggregates(gbs, measure_name)
                    for rollup in rollups]
    for index, gb, x, ys in zip(scored, gbs, xs, zip(*ys_by_rollup)):
        pairs: list[SeriesPair] = []
        if gb.is_numerical:
            try:
                pairs, _ = fold_numerical(gb, x, ys, num_buckets)
            except ValueError:
                pass  # no in-domain values in DS': degenerate
        else:
            domain = subspace_domain(x)
            if domain:  # an empty domain has nothing to compare
                pairs = [_series_pair(domain, x, y) for y in ys]
        scores[index] = max(
            (measure.score_series(pair.subspace_series, pair.rollup_series)
             for pair in pairs), default=float("-inf"))
    return scores


def _is_additive(subspace: Subspace, measure_name: str) -> bool:
    measure = subspace.schema.measures[measure_name]
    return measure.aggregate in ADDITIVE_AGGREGATES


def fold_numerical(
    gb: GroupByAttribute,
    x: dict,
    ys: Sequence[dict],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    buckets: Bucketization | None = None,
) -> tuple[list[SeriesPair], Bucketization]:
    """Fold ``{distinct value: aggregate}`` partitions into interval series:
    ``x`` over DS', one of ``ys`` per roll-up space, one pair per roll-up.

    Bucket boundaries default to equal width over the *subspace's* value
    domain: the paper restricts PAR(RUP(DS'), attr) to the segments that
    also exist in PAR(DS', attr), so roll-up values outside DS''s range
    carry no information and would only dilute the bucket resolution.
    Each DS'-empty bucket (no DS' key landed in it) is *merged* into its
    left non-empty neighbour (leading empties merge right).  Dropping
    them instead would discard roll-up mass that the distinct-value
    ground truth keeps, so the correlation would not converge with the
    bucket count.

    Only sound for additive aggregates (callers check
    :data:`~repro.core.bucketing.ADDITIVE_AGGREGATES`): a bucket's sum
    is the sum of its values' sums, its average is not.
    """
    values = sorted(x)
    if not values:
        raise ValueError(
            f"attribute {gb.ref} has no non-null values in the subspace")
    with current_tracer().span("facet.bucketize", attribute=str(gb.ref),
                               distinct=len(values)) as span:
        if buckets is None:
            buckets = equal_width(values[0], values[-1], num_buckets)
        anchors = sorted({idx for idx in map(buckets.assign, values)
                          if idx is not None})
        span.set_tag("buckets", len(buckets))
        span.set_tag("anchors", len(anchors))
        if not anchors:
            raise ValueError(
                f"attribute {gb.ref} has no in-domain values in the "
                "subspace")
        # an anchor's segment runs up to the next anchor; the first one
        # also covers the leading DS'-empty buckets
        edges = [0, *anchors[1:], len(buckets)]
        categories = tuple(
            Interval(buckets.intervals[start].low,
                     buckets.intervals[stop - 1].high,
                     buckets.intervals[stop - 1].closed_right)
            for start, stop in zip(edges, edges[1:])
        )

        def merged(groups: dict) -> tuple[float, ...]:
            # sorted keys: one summation order whichever backend, cache
            # or tier produced the partition
            keys = sorted(groups)
            series = bucket_series(keys, [groups[k] for k in keys],
                                   buckets)
            return tuple(merge_series(series, anchors[1:]))

        merged_x = merged(x)
        pairs = [SeriesPair(categories, merged_x, merged(y)) for y in ys]
    return pairs, buckets


def numerical_series(
    subspace: Subspace,
    rollup: Subspace,
    gb: GroupByAttribute,
    measure_name: str,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    buckets: Bucketization | None = None,
) -> tuple[SeriesPair, Bucketization]:
    """Series over basic intervals of the attribute domain, and the
    bucketization used.

    Both spaces are partitioned by distinct value like a categorical
    attribute (plan-cache hits once :func:`candidate_scores` ran) and
    folded by :func:`fold_numerical`.  Raises ``ValueError`` — a
    degenerate candidate to every caller — when DS' has no in-domain
    values or the measure's aggregate is not additive.
    """
    x, y = _numeric_partitions(subspace, rollup, gb, measure_name)
    pairs, buckets = fold_numerical(gb, x, [y], num_buckets, buckets)
    return pairs[0], buckets


def _numeric_partitions(subspace, rollup, gb, measure_name):
    if not _is_additive(subspace, measure_name):
        raise ValueError(
            f"measure {measure_name!r} is not additive: per-value "
            f"aggregates of {gb.ref} cannot be folded into intervals")
    return (subspace.partition_aggregates(gb, measure_name),
            rollup.partition_aggregates(gb, measure_name))


def ground_truth_series(
    subspace: Subspace,
    rollup: Subspace,
    gb: GroupByAttribute,
    measure_name: str,
) -> SeriesPair:
    """Series with one bucket per distinct value — the §6.4 ground truth:
    "each distinct value from the subspace has its own bucket"."""
    x, y = _numeric_partitions(subspace, rollup, gb, measure_name)
    pairs, _ = fold_numerical(gb, x, [y],
                              buckets=distinct_value_buckets(list(x)))
    return pairs[0]


def attribute_score(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    gb: GroupByAttribute,
    measure_name: str,
    measure: InterestingnessMeasure,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> float:
    """SCORE(attr, DS') of one candidate (:func:`candidate_scores`)."""
    return candidate_scores(subspace, rollups, [gb], measure_name,
                            measure, num_buckets)[0]


@dataclass(frozen=True)
class RankedAttribute:
    """A group-by candidate with its interestingness score."""

    attribute: GroupByAttribute
    score: float


def rank_groupby_attributes(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    candidates: Sequence[GroupByAttribute],
    measure_name: str,
    measure: InterestingnessMeasure,
    top_k: int | None = None,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> list[RankedAttribute]:
    """Rank candidate group-by attributes of one dimension, best first.

    Candidates whose partitions are degenerate (empty domains) sink to the
    bottom with -inf scores and are dropped when ``top_k`` is set.

    All candidates are scored in one fused batch per space
    (:func:`candidate_scores`).  Scores are compared quantised
    (:func:`~repro.core.interestingness.quantize_score`) so exact ties
    fall through to the textual tie-break instead of being decided by
    the last-bit summation order of whichever path answered.
    """
    scores = candidate_scores(subspace, rollups, candidates, measure_name,
                              measure, num_buckets)
    ranked = [RankedAttribute(gb, score)
              for gb, score in zip(candidates, scores)]
    ranked.sort(key=lambda r: (-quantize_score(r.score),
                               str(r.attribute.ref)))
    if top_k is not None:
        ranked = [r for r in ranked if r.score != float("-inf")][:top_k]
    return ranked
