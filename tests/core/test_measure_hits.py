"""Measure predicates as keywords (the §7 extension)."""

import pytest

from repro.core import interpret_query
from repro.core.measure_hits import (
    MeasurePredicate,
    measure_fact_rows,
    parse_measure_keyword,
)
from repro.relational import SqliteBackend


class TestParsing:
    def test_measure_name(self, aw_online):
        pred = parse_measure_keyword(aw_online, "revenue>5000")
        assert pred == MeasurePredicate("revenue", ">", 5000.0, True)

    def test_case_insensitive(self, aw_online):
        pred = parse_measure_keyword(aw_online, "Revenue<=10.5")
        assert pred is not None
        assert pred.target == "revenue"
        assert pred.op == "<="

    def test_fact_column(self, aw_online):
        pred = parse_measure_keyword(aw_online, "Quantity>=2")
        assert pred == MeasurePredicate("Quantity", ">=", 2.0, False)

    def test_non_numeric_column_rejected(self, aw_online):
        # CustomerKey is numeric and accepted; a dimension attribute is not
        assert parse_measure_keyword(aw_online, "ModelName>5") is None

    def test_plain_keyword_rejected(self, aw_online):
        assert parse_measure_keyword(aw_online, "California") is None

    def test_malformed_rejected(self, aw_online):
        assert parse_measure_keyword(aw_online, "revenue>") is None
        assert parse_measure_keyword(aw_online, ">100") is None
        assert parse_measure_keyword(aw_online, "revenue>abc") is None


class TestEvaluation:
    def test_rows_satisfy_predicate(self, aw_online):
        pred = parse_measure_keyword(aw_online, "revenue>3000")
        rows = measure_fact_rows(aw_online, pred)
        vector = aw_online.measure_vector("revenue")
        assert rows == {r for r, v in enumerate(vector) if v > 3000}

    def test_column_predicate(self, aw_online):
        pred = parse_measure_keyword(aw_online, "Quantity=4")
        rows = measure_fact_rows(aw_online, pred)
        quantities = aw_online.database.table(
            aw_online.fact_table).column_values("Quantity")
        assert rows == {r for r, q in enumerate(quantities) if q == 4}

    def test_holds_none_is_false(self):
        pred = MeasurePredicate("x", ">", 1.0, False)
        assert not pred.holds(None)


def value_nets(session, query):
    """The star nets of the value-only front end, in enumeration order."""
    interpretations, _report = interpret_query(
        session.schema, session.index, query, matchers=("value",),
        chain=session.chain)
    return [i.star_net for i in interpretations]


class TestIntegration:
    def test_mixed_query(self, online_session, aw_engine):
        candidates = value_nets(online_session, "Road Bikes revenue>3000")
        assert candidates
        net = candidates[0]
        assert len(net.measure_predicates) == 1
        subspace = aw_engine.evaluate(net)
        vector = online_session.schema.measure_vector("revenue")
        assert all(vector[r] > 3000 for r in subspace.fact_rows)

    def test_pure_measure_query(self, online_session, aw_engine):
        candidates = value_nets(online_session, "Quantity>=3")
        assert len(candidates) == 1
        net = candidates[0]
        assert net.size == 0
        subspace = aw_engine.evaluate(net)
        assert not subspace.is_empty
        # a stopword leaves the query measure-only; a keyword that
        # matches nothing still fails it
        assert value_nets(online_session, "the Quantity>=3") == candidates
        assert value_nets(online_session, "qqqzz Quantity>=3") == []

    def test_sql_includes_predicate(self, online_session, aw_online,
                                    aw_engine):
        candidates = value_nets(online_session, "Road Bikes revenue>3000")
        net = candidates[0]
        sql = net.to_sql(aw_online, "revenue")
        assert "> 3000" in sql
        subspace = aw_engine.evaluate(net)
        with SqliteBackend(aw_online.database) as backend:
            got = backend.execute(sql)[0][0] or 0.0
        assert got == pytest.approx(subspace.aggregate("revenue"),
                                    rel=1e-9)

