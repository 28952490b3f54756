"""Measure predicates as keywords (the §7 extension)."""

import pytest

from repro.core import StarNet, interpret_query
from repro.core.measure_hits import MeasurePredicate, parse_measure_keyword
from repro.datasets import build_aw_online
from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import QueryEngine
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


def predicate_net(schema, keyword):
    """A star net with no rays and one measure predicate."""
    return StarNet(schema.fact_table, (),
                   (parse_measure_keyword(schema, keyword),))


def selected(values, keep):
    """Row ids whose value is present and satisfies ``keep``, row by
    row."""
    return [r for r, v in enumerate(values) if v is not None and keep(v)]


class TestEvaluation:
    """A predicate is evaluated only by its star net's plan
    (``StarNet.to_plan``'s ``Filter(predicate=Compare(...))``)."""

    def test_rows_satisfy_predicate(self, aw_online, aw_engine):
        net = predicate_net(aw_online, "revenue>3000")
        vector = aw_online.measure_vector("revenue")
        assert list(aw_engine.evaluate(net).fact_rows) == selected(
            vector, lambda v: v > 3000)

    def test_column_predicate(self, aw_online, aw_engine):
        net = predicate_net(aw_online, "Quantity=4")
        quantities = aw_online.database.table(
            aw_online.fact_table).column_values("Quantity")
        assert list(aw_engine.evaluate(net).fact_rows) == selected(
            quantities, lambda q: q == 4)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_null_is_never_selected(self, backend):
        schema = build_aw_online(num_customers=60, num_facts=300, seed=11)
        fact = schema.database.table(schema.fact_table)
        row = fact.row(0)
        row[fact.primary_key] = max(fact.column_values(fact.primary_key)) + 1
        row["UnitPrice"] = None
        null_row = fact.insert(row)
        prices = fact.column_values("UnitPrice")
        engine = QueryEngine(schema, backend=backend)
        try:
            with metrics_scope(MetricsRegistry()):
                for keyword in ("UnitPrice>0", "revenue>0"):
                    rows = engine.evaluate(
                        predicate_net(schema, keyword)).fact_rows
                    assert null_row not in rows
                    assert list(rows) == selected(prices, lambda p: p > 0)
        finally:
            engine.close()


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

