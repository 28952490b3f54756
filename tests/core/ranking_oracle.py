"""Pinned oracle: facet scoring over domain-restricted partitions.

Before every keyed aggregate was unrestricted, ``candidate_scores`` and
``rank_instances_batch`` read DOM(DS', attr) row by row
(``Subspace.domain``) and asked the engine for both partitions
restricted to it, absent values filled with the empty aggregate.  This
module keeps that computation as the reference for the engine's
unrestricted partitions projected in ``repro.core``.  It reads rows off
the schema's vectors and the local grouped kernel
(:mod:`tests.warehouse.subspace_oracle`) and never touches a plan, the
plan cache, the tier or a backend.
"""

from repro.core.bucketing import ADDITIVE_AGGREGATES

from ..warehouse.subspace_oracle import (
    aggregate,
    domain,
    multi_partition_aggregates,
)
from .numeric_oracle import oracle_numerical_series


def _restricted(space, gb, measure_name, values) -> dict:
    return multi_partition_aggregates(space.schema, space.fact_rows, [gb],
                                      measure_name, [values])[0]


def oracle_categorical_series(subspace, rollup, gb, measure_name):
    """(categories, X over DS', Y over RUP restricted to DOM(DS'))."""
    values = domain(subspace, gb)
    x = _restricted(subspace, gb, measure_name, values)
    y = _restricted(rollup, gb, measure_name, values)
    return (tuple(values), tuple(float(x[c] or 0.0) for c in values),
            tuple(float(y[c] or 0.0) for c in values))


def oracle_candidate_scores(subspace, rollups, candidates, measure_name,
                            measure, num_buckets=40) -> list[float]:
    """SCORE(attr, DS') per candidate, worst case over the roll-ups;
    numerical candidates fold row by row (sum measures only)."""
    additive = (subspace.schema.measures[measure_name].aggregate
                in ADDITIVE_AGGREGATES)
    scores = []
    for gb in candidates:
        pairs = []
        if not gb.is_numerical:
            if domain(subspace, gb):
                pairs = [oracle_categorical_series(subspace, rollup, gb,
                                                   measure_name)[1:]
                         for rollup in rollups]
        elif additive:
            try:
                pairs = [oracle_numerical_series(subspace, rollup, gb,
                                                 measure_name,
                                                 num_buckets)[1:3]
                         for rollup in rollups]
            except ValueError:
                pass  # no in-domain values in DS'
        scores.append(max((measure.score_series(x, y) for x, y in pairs),
                          default=float("-inf")))
    return scores


def oracle_instance_score(subspace, rollup, gb, value, measure_name):
    """Eq. (2) for one category against one roll-up space."""
    total_sub = aggregate(subspace.schema, subspace.fact_rows, measure_name)
    total_roll = aggregate(rollup.schema, rollup.fact_rows, measure_name)
    sub = _restricted(subspace, gb, measure_name, [value])[value]
    roll = _restricted(rollup, gb, measure_name, [value])[value]
    share_sub = (sub or 0.0) / total_sub if total_sub else 0.0
    share_roll = (roll or 0.0) / total_roll if total_roll else 0.0
    return share_sub - share_roll


def oracle_rank_instances(subspace, rollups, gb, measure_name) -> dict:
    """value → (aggregate over DS', Eq. (2) score of largest magnitude
    across the roll-ups) for every value of DOM(DS', attr)."""
    values = domain(subspace, gb)
    x = _restricted(subspace, gb, measure_name, values)
    out = {}
    for value in values:
        scores = [oracle_instance_score(subspace, rollup, gb, value,
                                        measure_name)
                  for rollup in rollups]
        out[value] = (float(x[value] or 0.0),
                      max(scores, key=abs) if scores else 0.0)
    return out
