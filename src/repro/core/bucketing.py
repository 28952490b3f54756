"""Numerical domain bucketization (paper §5.2.2).

Numerical group-by candidates are split into *basic intervals* before any
correlation is computed: equal-width buckets over the attribute's domain in
the roll-up space (which contains the sub-dataspace's domain).  The paper's
empirical claim — reproduced in Figures 5/6 — is that beyond roughly 40-80
buckets the correlation value converges to the ground truth, where ground
truth assigns every distinct value its own bucket.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

ADDITIVE_AGGREGATES = frozenset({"sum", "count"})
"""Aggregates whose per-value results may be folded into buckets by
addition.  ``avg``/``min``/``max`` per distinct value cannot be merged
into a bucket's aggregate without their rows, so numeric facets are
defined for additive measures only."""


@dataclass(frozen=True)
class Interval:
    """A half-open numeric interval [low, high); the last interval of a
    domain is closed on the right so the domain maximum is covered."""

    low: float
    high: float
    closed_right: bool = False

    def contains(self, value: float) -> bool:
        """Membership test honouring the right-closure flag."""
        if self.closed_right:
            return self.low <= value <= self.high
        return self.low <= value < self.high

    def __str__(self) -> str:
        right = "]" if self.closed_right else ")"
        return f"[{self.low:g}, {self.high:g}{right}"


@dataclass(frozen=True)
class Bucketization:
    """A partition of a numeric domain into contiguous intervals."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("bucketization needs at least one interval")

    def __len__(self) -> int:
        return len(self.intervals)

    @cached_property
    def boundaries(self) -> tuple[float, ...]:
        """Interior boundaries (len(intervals) - 1 values), built once."""
        return tuple(iv.high for iv in self.intervals[:-1])

    def assign(self, value: float) -> int | None:
        """Index of the interval containing ``value``, or None if outside."""
        if value < self.intervals[0].low:
            return None
        last = self.intervals[-1]
        if value > last.high or (value == last.high and not last.closed_right):
            return None
        idx = bisect.bisect_right(self.boundaries, value)
        return min(idx, len(self.intervals) - 1)


def equal_width(low: float, high: float, num_buckets: int) -> Bucketization:
    """Equal-width bucketization of [low, high] into ``num_buckets`` parts.

    Degenerate domains (low == high) collapse to a single closed interval.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    if high < low:
        raise ValueError(f"empty domain: high {high} < low {low}")
    if high == low:
        return Bucketization((Interval(low, high, closed_right=True),))
    width = (high - low) / num_buckets
    intervals = []
    for i in range(num_buckets):
        lo = low + i * width
        hi = low + (i + 1) * width if i < num_buckets - 1 else high
        intervals.append(Interval(lo, hi, closed_right=(i == num_buckets - 1)))
    return Bucketization(tuple(intervals))


def distinct_value_buckets(values: Sequence[float]) -> Bucketization:
    """Ground-truth bucketization: one bucket per distinct value.

    This realises the paper's ground truth — "dividing the attribute domain
    into smallest intervals such that each distinct value from the subspace
    has its own bucket".
    """
    distinct = sorted(set(values))
    if not distinct:
        raise ValueError("no values to bucketize")
    if len(distinct) == 1:
        return Bucketization((Interval(distinct[0], distinct[0], True),))
    intervals = []
    for i, value in enumerate(distinct):
        low = value
        if i + 1 < len(distinct):
            high = distinct[i + 1]
            intervals.append(Interval(low, high, closed_right=False))
        else:
            intervals.append(Interval(low, low, closed_right=True))
    return Bucketization(tuple(intervals))


def bucket_series(
    values: Sequence[float],
    weights: Sequence[float],
    buckets: Bucketization,
) -> list[float]:
    """Fold (sum) ``weights`` into ``buckets`` keyed by ``values``.

    Produces one aggregation value per interval — the "new attribute
    values" of §5.2.2.  ``values`` are the attribute's *distinct* values
    and ``weights`` their group aggregates (a ``{value: aggregate}``
    partition unzipped), so the cost is per distinct value, not per fact
    row; folding is only sound for :data:`ADDITIVE_AGGREGATES`.  Values
    falling outside the bucketized domain (or None) are skipped.
    """
    series = [0.0] * len(buckets)
    for value, weight in zip(values, weights):
        if value is None or weight is None:
            continue
        idx = buckets.assign(value)
        if idx is not None:
            series[idx] += weight
    return series
