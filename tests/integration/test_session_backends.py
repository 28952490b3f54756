"""Acceptance: sessions on both backends return identical explore results.

`KdapSession(..., backend="sqlite")` and `backend="memory"` must produce
identical `ExploreResult` facets on the AdventureWorks and EBiz example
queries, and the plan-fingerprint cache must show a non-zero hit rate on
repeated exploration.
"""

import pytest

from repro.core import KdapSession

from ..counts import cache_counts
from ..warehouse.subspace_oracle import domain


def _assert_same_result(mem_result, sq_result):
    assert mem_result.subspace.fact_rows == sq_result.subspace.fact_rows
    assert mem_result.total_aggregate == pytest.approx(
        sq_result.total_aggregate)
    mem_facets, sq_facets = (mem_result.interface.facets,
                             sq_result.interface.facets)
    assert [f.dimension for f in mem_facets] \
        == [f.dimension for f in sq_facets]
    for mem_facet, sq_facet in zip(mem_facets, sq_facets):
        assert [a.attribute for a in mem_facet.attributes] \
            == [a.attribute for a in sq_facet.attributes]
        for mem_attr, sq_attr in zip(mem_facet.attributes,
                                     sq_facet.attributes):
            assert [e.label for e in mem_attr.entries] \
                == [e.label for e in sq_attr.entries]
            for mem_entry, sq_entry in zip(mem_attr.entries,
                                           sq_attr.entries):
                assert mem_entry.aggregate == pytest.approx(
                    sq_entry.aggregate)
                assert mem_entry.score == pytest.approx(sq_entry.score)


@pytest.fixture(scope="module")
def ebiz_sqlite_session(ebiz, ebiz_session):
    session = KdapSession(ebiz, index=ebiz_session.index,
                          backend="sqlite")
    yield session
    session.close()


@pytest.fixture(scope="module")
def online_sqlite_session(aw_online, online_session):
    session = KdapSession(aw_online, index=online_session.index,
                          backend="sqlite")
    yield session
    session.close()


class TestBackendEquivalence:
    @pytest.mark.parametrize("query", ["Columbus LCD", "camera",
                                       "Seattle DVD Players"])
    def test_ebiz_queries(self, ebiz_session, ebiz_sqlite_session, query):
        mem = ebiz_session.search(query)
        sq = ebiz_sqlite_session.search(query)
        assert (mem is None) == (sq is None)
        if mem is not None:
            _assert_same_result(mem, sq)

    @pytest.mark.parametrize("query", ["Sport-100", "October Bikes"])
    def test_adventureworks_queries(self, online_session,
                                    online_sqlite_session, query):
        mem = online_session.search(query)
        sq = online_sqlite_session.search(query)
        assert (mem is None) == (sq is None)
        if mem is not None:
            _assert_same_result(mem, sq)

    def test_drill_down_parity(self, aw_online, online_session,
                               online_sqlite_session):
        mem = online_session.search("Bikes")
        sq = online_sqlite_session.search("Bikes")
        if mem is None:
            pytest.skip("no interpretation for 'Bikes'")
        gb = aw_online.groupby_attribute("DimProductCategory",
                                         "ProductCategoryName")
        values = domain(mem.subspace, gb)
        if not values:
            pytest.skip("empty drill-down domain")
        mem_drilled = online_session.drill_down(mem, gb, values[0])
        sq_drilled = online_sqlite_session.drill_down(sq, gb, values[0])
        _assert_same_result(mem_drilled, sq_drilled)


class TestPlanCache:
    def test_repeated_exploration_hits(self, ebiz, ebiz_session):
        session = KdapSession(ebiz, index=ebiz_session.index)
        first = session.search("Columbus LCD")
        assert first is not None
        hits_before = cache_counts(session.metrics)["hits"]
        second = session.search("Columbus LCD")
        stats = cache_counts(session.metrics)
        assert stats["hits"] > hits_before
        assert stats["hit_rate"] > 0.0
        assert first.total_aggregate == pytest.approx(
            second.total_aggregate)

    def test_sqlite_backend_also_caches(self, ebiz, ebiz_session):
        session = KdapSession(ebiz, index=ebiz_session.index,
                              backend="sqlite")
        try:
            session.search("Columbus LCD")
            sql_calls = session.engine.counters.as_dict().get(
                "SqlExecute", {}).get("calls", 0)
            session.search("Columbus LCD")
            after = session.engine.counters.as_dict()["SqlExecute"]["calls"]
            assert cache_counts(session.metrics)["hits"] > 0
            # repeats are served from the plan cache, not re-run as SQL
            assert after == sql_calls
        finally:
            session.close()
