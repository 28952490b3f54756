"""Cross-validation: the in-memory engine vs sqlite3 on generated SQL.

For a spread of keyword queries, the star net's generated SQL executed on
a sqlite mirror must produce exactly the aggregate that the pinned local
subspace oracle computes.  This is the repo's substitute for running
against the paper's commercial RDBMS.
"""

import pytest

from repro.relational import SqliteBackend

from ..warehouse.subspace_oracle import LocalKernel

ONLINE_QUERIES = [
    "California Mountain Bikes",
    "Road Bikes",
    "October",
    "Sydney Helmet Discount",
    "Brakes Chains",
    "Europe",
]

EBIZ_QUERIES = [
    "Columbus LCD",
    "LCD",
    "Seattle",
    "Home Electronics",
]


@pytest.fixture(scope="module")
def online_backend(aw_online):
    with SqliteBackend(aw_online.database) as backend:
        yield backend


@pytest.fixture(scope="module")
def ebiz_backend(ebiz):
    with SqliteBackend(ebiz.database) as backend:
        yield backend


def check(session, backend, query, top_k=3):
    ranked = session.differentiate(query, limit=top_k)
    assert ranked, f"no interpretation for {query!r}"
    for scored in ranked:
        subspace = LocalKernel(session.schema).evaluate(scored.star_net)
        want = subspace.aggregate("revenue")
        sql = scored.star_net.to_sql(session.schema, "revenue")
        got = backend.execute(sql)[0][0] or 0.0
        assert got == pytest.approx(want, rel=1e-9), \
            f"mismatch for {query!r}: {scored.star_net}\n{sql}"


@pytest.mark.parametrize("query", ONLINE_QUERIES)
def test_online_star_nets_match_sqlite(online_session, online_backend,
                                       query):
    check(online_session, online_backend, query)


@pytest.mark.parametrize("query", EBIZ_QUERIES)
def test_ebiz_star_nets_match_sqlite(ebiz_session, ebiz_backend, query):
    check(ebiz_session, ebiz_backend, query)


def test_groupby_breakdown_matches_sqlite(online_session, online_backend):
    """Facet partition aggregates equal a SQL GROUP BY over the mirror."""
    schema = online_session.schema
    ranked = online_session.differentiate("Road Bikes", limit=1)
    net = ranked[0].star_net
    subspace = LocalKernel(schema).evaluate(net)
    gb = schema.groupby_attribute("DimProduct", "Color")
    want = subspace.partition_aggregates(gb, "revenue")

    query = net.to_join_query(schema, "revenue")
    # extend the join query with the group-by attribute's path
    alias = "f"
    existing = {(e.left_alias, e.right_table): e.right_alias
                for e in query.edges}
    for step in gb.path_from_fact.steps:
        key = (alias, step.target)
        if key in existing:
            alias = existing[key]
            continue
        from repro.relational import JoinEdge
        new_alias = f"g{len(query.edges)}"
        query.edges.append(JoinEdge(alias, step.source_column, step.target,
                                    new_alias, step.target_column))
        alias = new_alias
    query.group_by.append((alias, gb.ref.column))

    rows = online_backend.execute(query.to_sql())
    got = {value: agg for value, agg in rows}
    assert set(got) == set(want)
    for value, agg in want.items():
        assert got[value] == pytest.approx(agg, rel=1e-9)
