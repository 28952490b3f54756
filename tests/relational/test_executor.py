"""The pinned in-memory JoinQuery oracle, cross-checked against sqlite."""

import pytest

from repro.relational import (
    AliasFilter,
    Arith,
    Col,
    JoinEdge,
    JoinQuery,
    SqliteBackend,
    eq,
    isin,
)
from repro.relational.errors import SchemaError

from ..warehouse import subspace_oracle
from .join_oracle import execute_join_query


@pytest.fixture(scope="module")
def backend(ebiz):
    with SqliteBackend(ebiz.database) as b:
        yield b


def check_against_sqlite(db, backend, query):
    ours = execute_join_query(db, query)
    theirs = backend.execute(query.to_sql())
    if query.group_by:
        ours_sorted = sorted(map(tuple, ours), key=str)
        theirs_sorted = sorted(map(tuple, theirs), key=str)
        assert len(ours_sorted) == len(theirs_sorted)
        for a, b in zip(ours_sorted, theirs_sorted):
            assert a[:-1] == b[:-1]
            assert a[-1] == pytest.approx(b[-1] or 0.0)
    else:
        assert ours[0][0] == pytest.approx(theirs[0][0] or 0.0)


def revenue_query(**overrides):
    query = JoinQuery(
        fact_table="TRANSITEM", fact_alias="f", aggregate="sum",
        measure_sql="(f.UnitPrice * f.Quantity)",
        measure_expr=Arith("*", Col("UnitPrice"), Col("Quantity")),
    )
    for key, value in overrides.items():
        setattr(query, key, value)
    return query


class TestAgainstSqlite:
    def test_plain_aggregate(self, ebiz, backend):
        check_against_sqlite(ebiz.database, backend, revenue_query())

    def test_join_and_filter(self, ebiz, backend):
        query = revenue_query()
        query.edges.append(JoinEdge("f", "ProductKey", "PRODUCT", "t1",
                                    "ProductKey"))
        query.edges.append(JoinEdge("t1", "PGroupKey", "PGROUP", "t2",
                                    "PGroupKey"))
        query.filters.append(
            AliasFilter("t2", isin("GroupName", ["LCD TVs",
                                                 "Plasma TVs"])))
        check_against_sqlite(ebiz.database, backend, query)

    def test_group_by(self, ebiz, backend):
        query = revenue_query()
        query.edges.append(JoinEdge("f", "ProductKey", "PRODUCT", "t1",
                                    "ProductKey"))
        query.edges.append(JoinEdge("t1", "PGroupKey", "PGROUP", "t2",
                                    "PGroupKey"))
        query.group_by.append(("t2", "LineName"))
        check_against_sqlite(ebiz.database, backend, query)

    def test_one_to_many_fanout(self, ebiz, backend):
        """Joining fact -> TRANS duplicates nothing, but the executor must
        also be correct when filters sit on a shared header table."""
        query = revenue_query()
        query.edges.append(JoinEdge("f", "TransKey", "TRANS", "t1",
                                    "TransKey"))
        query.edges.append(JoinEdge("t1", "StoreKey", "STORE", "t2",
                                    "StoreKey"))
        query.filters.append(AliasFilter("t2", eq("StoreKey", 1)))
        check_against_sqlite(ebiz.database, backend, query)

    def test_star_net_queries_agree(self, ebiz_session, backend):
        for query_text in ("Columbus LCD", "Home Electronics", "Seattle"):
            ranked = ebiz_session.differentiate(query_text, limit=2)
            for scored in ranked:
                join_query = scored.star_net.to_join_query(
                    ebiz_session.schema, "revenue")
                check_against_sqlite(ebiz_session.schema.database,
                                     backend, join_query)

    def test_three_way_agreement(self, ebiz_session, backend):
        """subspace oracle == in-memory executor == sqlite."""
        ranked = ebiz_session.differentiate("Columbus LCD", limit=1)
        net = ranked[0].star_net
        schema = ebiz_session.schema
        want = subspace_oracle.aggregate(
            schema, subspace_oracle.star_net_rows(schema, net), "revenue")
        query = net.to_join_query(schema, "revenue")
        ours = execute_join_query(schema.database, query)[0][0]
        theirs = backend.execute(query.to_sql())[0][0] or 0.0
        assert ours == pytest.approx(want)
        assert theirs == pytest.approx(want)


class TestErrors:
    def test_duplicate_alias(self, ebiz):
        query = revenue_query()
        query.edges.append(JoinEdge("f", "ProductKey", "PRODUCT", "t1",
                                    "ProductKey"))
        query.edges.append(JoinEdge("f", "TransKey", "TRANS", "t1",
                                    "TransKey"))
        with pytest.raises(SchemaError):
            execute_join_query(ebiz.database, query)

    def test_unknown_join_source(self, ebiz):
        query = revenue_query()
        query.edges.append(JoinEdge("nope", "X", "PRODUCT", "t1",
                                    "ProductKey"))
        with pytest.raises(SchemaError):
            execute_join_query(ebiz.database, query)

    def test_unknown_filter_alias(self, ebiz):
        query = revenue_query()
        query.filters.append(AliasFilter("nope", eq("X", 1)))
        with pytest.raises(SchemaError):
            execute_join_query(ebiz.database, query)

    def test_count_without_measure(self, ebiz):
        query = JoinQuery(fact_table="TRANSITEM", fact_alias="f",
                          aggregate="count")
        rows = execute_join_query(ebiz.database, query)
        assert rows[0][0] == len(ebiz.database.table("TRANSITEM"))
