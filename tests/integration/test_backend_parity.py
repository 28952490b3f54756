"""Randomized three-way backend parity (property tests).

For arbitrary star nets and group-by choices over EBiz, three evaluation
paths must agree exactly:

* the pinned local oracle (``tests/warehouse/subspace_oracle.py``) —
  loops over fact-aligned vectors, no plan layer at all;
* :class:`InMemoryBackend` through a :class:`QueryEngine`;
* :class:`SqliteBackend` through a :class:`QueryEngine`.

Covers subspace materialisation, whole-subspace aggregation, partition
aggregates (also projected onto a domain, against the oracle's
restricted partitions), empty subspaces, and
groups whose keys or measures resolve to NULL (exercised separately in
tests/plan/test_backends.py on a schema that actually contains NULLs).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.plan import QueryEngine
from repro.warehouse import Subspace

from ..warehouse.subspace_oracle import LocalKernel, domain, restrict
from .test_engine_agreement import CITIES, GROUPS, build_net

GB_CHOICES = [
    ("PGROUP", "GroupName"),
    ("LOCATION", "City"),
    ("TIMEMONTH", "Quarter"),
    ("STORE", "StoreName"),
]


@pytest.fixture(scope="module")
def engines(ebiz):
    memory = QueryEngine(ebiz, backend="memory")
    sqlite = QueryEngine(ebiz, backend="sqlite")
    yield memory, sqlite
    sqlite.close()


@given(
    groups=st.lists(st.sampled_from(GROUPS), min_size=0, max_size=3,
                    unique=True),
    cities=st.lists(st.sampled_from(CITIES), min_size=0, max_size=3,
                    unique=True),
    gb_choice=st.sampled_from(GB_CHOICES),
    restrict_domain=st.booleans(),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_three_way_backend_parity(ebiz, engines, groups, cities,
                                  gb_choice, restrict_domain):
    memory, sqlite = engines
    net = build_net(ebiz, groups, cities)
    gb = ebiz.groupby_attribute(*gb_choice)

    legacy = LocalKernel(ebiz).evaluate(net)
    via_memory = memory.evaluate(net)
    via_sqlite = sqlite.evaluate(net)
    assert via_memory.fact_rows == legacy.fact_rows
    assert via_sqlite.fact_rows == legacy.fact_rows

    want_total = legacy.aggregate("revenue")
    assert via_memory.aggregate("revenue") == pytest.approx(want_total)
    assert via_sqlite.aggregate("revenue") == pytest.approx(want_total)

    values = None
    if restrict_domain:
        # mix present values with one that selects nothing
        values = domain(legacy, gb)[:3] + ["__no_such_value__"]
    want = legacy.engine.subspace_partition_aggregates(
        legacy, gb, "revenue", domain=values)
    got_memory = via_memory.partition_aggregates(gb, "revenue")
    got_sqlite = via_sqlite.partition_aggregates(gb, "revenue")
    if values is not None:
        got_memory = restrict(got_memory, values, "sum")
        got_sqlite = restrict(got_sqlite, values, "sum")
    assert set(got_memory) == set(want)
    assert set(got_sqlite) == set(want)
    for key, value in want.items():
        assert got_memory[key] == pytest.approx(value), key
        assert got_sqlite[key] == pytest.approx(value), key


def test_empty_subspace_three_ways(ebiz, engines):
    """A net whose rays select disjoint regions yields the empty DS'."""
    memory, sqlite = engines
    empty = Subspace.of(ebiz, (), label="empty", engine=LocalKernel(ebiz))
    gb = ebiz.groupby_attribute("LOCATION", "City")
    want_groups = empty.partition_aggregates(gb, "revenue")
    want_total = empty.aggregate("revenue")
    for engine in (memory, sqlite):
        bound = engine.bind(empty)
        assert bound.aggregate("revenue") == want_total == 0
        assert bound.partition_aggregates(gb, "revenue") == want_groups
