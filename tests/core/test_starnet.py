"""Star-net model: evaluation semantics, aliasing, SQL compilation."""

import pytest

from repro.core import StarNet, interpret_query
from repro.relational import SqliteBackend

from ..warehouse.subspace_oracle import domain


def value_nets(session, query):
    """The star nets of the value-only front end, in enumeration order."""
    interpretations, _report = interpret_query(
        session.schema, session.index, query, matchers=("value",),
        chain=session.chain)
    return [i.star_net for i in interpretations]


def top_net(session, query):
    ranked = session.differentiate(query, limit=1)
    assert ranked, f"no interpretation for {query!r}"
    return ranked[0].star_net


class TestEvaluation:
    def test_subspace_is_fact_subset(self, ebiz_session):
        net = top_net(ebiz_session, "Columbus LCD")
        subspace = ebiz_session.engine.evaluate(net)
        assert 0 < len(subspace) < ebiz_session.schema.num_fact_rows

    def test_intersection_semantics(self, ebiz_session):
        """Multi-keyword subspaces are intersections of the rays'."""
        schema = ebiz_session.schema
        net = top_net(ebiz_session, "Columbus LCD")
        assert net.size == 2
        full = ebiz_session.engine.evaluate(net)
        singles = [ebiz_session.engine.evaluate(
            StarNet(net.fact_table, (ray,))) for ray in net.rays]
        expected = set(singles[0].fact_rows) & set(singles[1].fact_rows)
        assert set(full.fact_rows) == expected

    def test_hit_group_values_are_ored(self, ebiz_session):
        """Within one hit group, rows for any matched value qualify."""
        schema = ebiz_session.schema
        net = top_net(ebiz_session, "LCD")
        assert net.size == 1
        group = net.rays[0].hit_group
        assert len(group.values) >= 2  # LCD Projectors, LCD TVs, Flat Panel
        subspace = ebiz_session.engine.evaluate(net)
        gb = schema.groupby_attribute("PGROUP", "GroupName")
        seen = set(domain(subspace, gb))
        assert seen == set(group.values)

    def test_hitted_dimensions(self, ebiz_session):
        net = top_net(ebiz_session, "Columbus LCD")
        dims = set(net.hitted_dimensions)
        assert "Product" in dims
        assert len(dims) == 2


class TestSqlCompilation:
    def test_sql_contains_fact_and_joins(self, ebiz_session):
        net = top_net(ebiz_session, "Columbus LCD")
        sql = net.to_sql(ebiz_session.schema, "revenue")
        assert "FROM TRANSITEM AS f" in sql
        assert "JOIN" in sql
        assert "WHERE" in sql

    def test_sql_matches_inmemory_aggregate(self, ebiz_session):
        """Cross-check: executing the generated SQL on sqlite must produce
        the same aggregate as the in-memory subspace evaluation."""
        schema = ebiz_session.schema
        net = top_net(ebiz_session, "Columbus LCD")
        subspace = ebiz_session.engine.evaluate(net)
        want = subspace.aggregate("revenue")
        with SqliteBackend(schema.database) as backend:
            rows = backend.execute(net.to_sql(schema, "revenue"))
        got = rows[0][0] or 0.0
        assert got == pytest.approx(want, rel=1e-9)

    def test_alias_merging_same_dimension(self, ebiz_session):
        """Two hierarchies of the Product dimension share the PRODUCT
        table expression (intersection semantics)."""
        candidates = value_nets(ebiz_session, "Electronics Projectors")
        merged = [
            c for c in candidates
            if {r.hit_group.table for r in c.rays} == {"UNSPSC", "PGROUP"}
        ]
        assert merged, "expected a two-hierarchy interpretation"
        query = merged[0].to_join_query(ebiz_session.schema, "revenue")
        product_aliases = {
            e.right_alias for e in query.edges if e.right_table == "PRODUCT"
        }
        assert len(product_aliases) == 1

    def test_alias_split_different_dimensions(self, ebiz_session):
        """Seattle customers buying in Portland stores: the LOCATION table
        appears twice under different aliases."""
        candidates = value_nets(ebiz_session, "Seattle Portland")
        cross = [
            c for c in candidates
            if {r.dimension for r in c.rays} == {"Customer", "Store"}
            and all(r.hit_group.table == "LOCATION" for r in c.rays)
        ]
        assert cross, "expected a customer-city x store-city interpretation"
        query = cross[0].to_join_query(ebiz_session.schema, "revenue")
        location_aliases = {
            e.right_alias for e in query.edges
            if e.right_table == "LOCATION"
        }
        assert len(location_aliases) == 2
