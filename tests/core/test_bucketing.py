"""Numerical domain bucketization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Bucketization,
    Interval,
    bucket_series,
    distinct_value_buckets,
    equal_width,
)


class TestInterval:
    def test_half_open(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.0)
        assert not iv.contains(1.0)

    def test_closed_right(self):
        iv = Interval(0.0, 1.0, closed_right=True)
        assert iv.contains(1.0)

    def test_str(self):
        assert str(Interval(0.0, 1.0)) == "[0, 1)"
        assert str(Interval(0.0, 1.0, True)) == "[0, 1]"


class TestEqualWidth:
    def test_count_and_coverage(self):
        buckets = equal_width(0.0, 10.0, 5)
        assert len(buckets) == 5
        assert buckets.intervals[0].low == 0.0
        assert buckets.intervals[-1].high == 10.0
        assert buckets.intervals[-1].closed_right

    def test_assign(self):
        buckets = equal_width(0.0, 10.0, 5)
        assert buckets.assign(0.0) == 0
        assert buckets.assign(2.0) == 1
        assert buckets.assign(10.0) == 4

    def test_outside_domain(self):
        buckets = equal_width(0.0, 10.0, 5)
        assert buckets.assign(-0.1) is None
        assert buckets.assign(10.1) is None

    def test_degenerate_domain(self):
        buckets = equal_width(3.0, 3.0, 10)
        assert len(buckets) == 1
        assert buckets.assign(3.0) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            equal_width(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            equal_width(1.0, 0.0, 3)


class TestAssignEdges:
    """``assign`` is the scalar public API; its edge semantics are pinned
    independently of how the boundaries are stored."""

    def test_boundaries_are_built_once(self):
        buckets = equal_width(0.0, 10.0, 5)
        assert buckets.boundaries == (2.0, 4.0, 6.0, 8.0)
        assert buckets.boundaries is buckets.boundaries

    def test_interior_boundary_belongs_to_the_right_interval(self):
        buckets = equal_width(0.0, 10.0, 5)
        assert buckets.assign(2.0) == 1
        assert buckets.assign(8.0) == 4

    def test_below_and_above_domain(self):
        buckets = equal_width(1.0, 9.0, 4)
        assert buckets.assign(0.999) is None
        assert buckets.assign(9.001) is None

    def test_closed_last_interval_covers_the_maximum(self):
        buckets = equal_width(1.0, 9.0, 4)
        assert buckets.assign(9.0) == 3

    def test_open_last_interval_excludes_its_high_end(self):
        buckets = Bucketization((Interval(0.0, 1.0), Interval(1.0, 2.0)))
        assert buckets.assign(1.0) == 1
        assert buckets.assign(2.0) is None

    def test_degenerate_low_equals_high(self):
        buckets = equal_width(3.0, 3.0, 10)
        assert buckets.boundaries == ()
        assert buckets.assign(3.0) == 0
        assert buckets.assign(2.9) is None
        assert buckets.assign(3.1) is None

    def test_empty_bucketization_rejected(self):
        with pytest.raises(ValueError):
            Bucketization(())

    @given(vals=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           probes=st.lists(st.floats(-150, 150), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_assign_agrees_with_linear_contains(self, vals, probes):
        """Ground-truth buckets (open intervals between distinct values,
        closed degenerate last) against a linear ``contains`` scan."""
        buckets = distinct_value_buckets(vals)
        for probe in [*vals, *probes]:
            want = next((i for i, iv in enumerate(buckets.intervals)
                         if iv.contains(probe)), None)
            assert buckets.assign(probe) == want


class TestDistinctValueBuckets:
    def test_each_value_isolated(self):
        buckets = distinct_value_buckets([1.0, 5.0, 3.0, 5.0])
        assert len(buckets) == 3
        assert buckets.assign(1.0) == 0
        assert buckets.assign(3.0) == 1
        assert buckets.assign(5.0) == 2

    def test_values_between_distincts_fall_left(self):
        buckets = distinct_value_buckets([1.0, 5.0])
        assert buckets.assign(3.0) == 0

    def test_single_value(self):
        buckets = distinct_value_buckets([7.0])
        assert len(buckets) == 1
        assert buckets.assign(7.0) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinct_value_buckets([])


class TestBucketSeries:
    def test_sums_weights(self):
        buckets = equal_width(0.0, 10.0, 2)
        series = bucket_series([1.0, 2.0, 8.0], [10.0, 20.0, 5.0], buckets)
        assert series == [30.0, 5.0]

    def test_skips_none_and_outside(self):
        buckets = equal_width(0.0, 10.0, 2)
        series = bucket_series([None, 99.0, 1.0], [1.0, 1.0, 1.0], buckets)
        assert series == [1.0, 0.0]


values = st.lists(st.floats(-100, 100), min_size=1, max_size=40)


class TestProperties:
    @given(vals=values, n=st.integers(1, 20))
    @settings(max_examples=120, deadline=None)
    def test_equal_width_assign_consistent_with_contains(self, vals, n):
        lo, hi = min(vals), max(vals)
        buckets = equal_width(lo, hi, n)
        for v in vals:
            idx = buckets.assign(v)
            assert idx is not None
            assert buckets.intervals[idx].contains(v)

    @given(vals=values, n=st.integers(1, 20))
    @settings(max_examples=120, deadline=None)
    def test_mass_preserved_inside_domain(self, vals, n):
        lo, hi = min(vals), max(vals)
        buckets = equal_width(lo, hi, n)
        series = bucket_series(vals, [1.0] * len(vals), buckets)
        assert sum(series) == pytest.approx(len(vals))

    @given(vals=values)
    @settings(max_examples=120, deadline=None)
    def test_distinct_buckets_cover_all_values(self, vals):
        buckets = distinct_value_buckets(vals)
        for v in vals:
            assert buckets.assign(v) is not None
