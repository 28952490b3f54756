"""Pinned oracle: the row-at-a-time numeric series (pre-PR-14 body).

This is the implementation ``numerical_series`` had before numerical
candidates were routed through the fused engine path: pull every fact
row's attribute value and raw measure value, bucket each row, sum in row
order, and count DS' rows per bucket to find the non-empty segments.  It
never touches the engine, the plan cache or the tier, which is what makes
it an oracle for the folded ``{distinct value: aggregate}`` path.  Only
valid for ``sum`` measures (it sums the raw measure expression).
"""

from repro.core.bucketing import Interval, equal_width
from repro.relational import vector

from ..warehouse.subspace_oracle import groupby_values


def _row_series(values, weights, buckets):
    series = [0.0] * len(buckets)
    for value, weight in zip(values, weights):
        if value is None or weight is None:
            continue
        idx = buckets.assign(value)
        if idx is not None:
            series[idx] += weight
    return series


def oracle_numerical_series(subspace, rollup, gb, measure_name,
                            num_buckets=40, buckets=None):
    """(categories, x series, y series, bucketization), row at a time."""
    schema = subspace.schema
    measure_vector = schema.measure_vector(measure_name)
    sub_values = groupby_values(subspace, gb)
    roll_values = groupby_values(rollup, gb)
    if buckets is None:
        domain_values = [v for v in sub_values if v is not None]
        if not domain_values:
            raise ValueError(
                f"attribute {gb.ref} has no non-null values in the subspace"
            )
        buckets = equal_width(min(domain_values), max(domain_values),
                              num_buckets)
    sub_weights = vector.take(measure_vector, subspace.fact_rows)
    roll_weights = vector.take(measure_vector, rollup.fact_rows)
    x = _row_series(sub_values, sub_weights, buckets)
    y = _row_series(roll_values, roll_weights, buckets)
    sub_counts = _row_series(sub_values, [1.0] * len(sub_values), buckets)
    anchors = [i for i, count in enumerate(sub_counts) if count > 0]
    if not anchors:
        raise ValueError(
            f"attribute {gb.ref} has no in-domain values in the subspace"
        )
    merged_x = [0.0] * len(anchors)
    merged_y = [0.0] * len(anchors)
    spans = [[] for _ in anchors]
    anchor_idx = 0
    for i in range(len(buckets)):
        if anchor_idx + 1 < len(anchors) and i >= anchors[anchor_idx + 1]:
            anchor_idx += 1
        merged_x[anchor_idx] += x[i]
        merged_y[anchor_idx] += y[i]
        spans[anchor_idx].append(i)
    categories = []
    for span in spans:
        first = buckets.intervals[span[0]]
        last = buckets.intervals[span[-1]]
        categories.append(Interval(first.low, last.high, last.closed_right))
    return tuple(categories), tuple(merged_x), tuple(merged_y), buckets
