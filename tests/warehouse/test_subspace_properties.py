"""Property tests: subspace aggregation laws."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.warehouse import Subspace

row_sets = st.sets(st.integers(0, 799), max_size=60)

SUPPRESS = [HealthCheck.function_scoped_fixture]


@given(a=row_sets, b=row_sets)
@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
def test_inclusion_exclusion_on_aggregates(ebiz, ebiz_engine, a, b):
    """sum(A) + sum(B) == sum(A|B) + sum(A&B) for the SUM measure."""
    sa = Subspace.of(ebiz, a, engine=ebiz_engine)
    sb = Subspace.of(ebiz, b, engine=ebiz_engine)
    left = sa.aggregate("revenue") + sb.aggregate("revenue")
    union = Subspace.of(ebiz, a | b, engine=ebiz_engine)
    intersection = Subspace.of(ebiz, a & b, engine=ebiz_engine)
    right = union.aggregate("revenue") + intersection.aggregate("revenue")
    assert left == pytest.approx(right)


@given(rows=row_sets)
@settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
def test_partition_aggregates_total(ebiz, ebiz_engine, rows):
    """Partition aggregates sum to the subspace aggregate (category is a
    total, never-null attribute in EBiz)."""
    subspace = Subspace.of(ebiz, rows, engine=ebiz_engine)
    gb = ebiz.groupby_attribute("PGROUP", "GroupName")
    parts = subspace.partition_aggregates(gb, "revenue")
    assert sum(parts.values()) == pytest.approx(
        subspace.aggregate("revenue"))
