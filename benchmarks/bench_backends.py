"""Explore-phase benchmarks per execution backend.

Runs the same explore-phase workload — star-net materialisation, one
categorical partition, and a full facet build — through each registered
execution backend at paper scale, so the relative cost of the in-memory
row-id interpreter vs. the sqlite mirror stays visible.  A separate case
measures the warm plan-cache path, which should be backend-independent.
"""

import pytest

from repro.core import KdapSession
from repro.plan import BACKENDS, cache_stats

QUERY = "California Mountain Bikes"


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def backend_session(request, aw_online_full):
    session = KdapSession(aw_online_full, backend=request.param)
    yield session
    session.close()


def _top_net(session):
    return session.differentiate(QUERY, limit=1)[0].star_net


def test_star_net_materialisation(benchmark, backend_session):
    net = _top_net(backend_session)
    engine = backend_session.engine

    def evaluate_uncached():
        engine.cache.clear()
        return engine.evaluate(net)

    subspace = benchmark(evaluate_uncached)
    assert len(subspace) > 0


def test_partition_aggregation(benchmark, backend_session):
    session = backend_session
    subspace = session.engine.evaluate(_top_net(session))
    gb = session.schema.groupby_attribute("DimDate", "MonthName")

    def partition_uncached():
        session.engine.cache.clear()
        return subspace.partition_aggregates(gb, "revenue")

    parts = benchmark(partition_uncached)
    assert len(parts) == 12


def test_explore_facets(benchmark, backend_session):
    net = _top_net(backend_session)

    result = benchmark(backend_session.explore, net)
    assert result.interface.facets


def test_explore_warm_cache(benchmark, backend_session):
    net = _top_net(backend_session)
    backend_session.explore(net)  # populate the plan cache

    result = benchmark(backend_session.explore, net)
    assert result.interface.facets
    counters = backend_session.metrics.snapshot()["counters"]
    assert cache_stats(counters)["hits"] > 0
