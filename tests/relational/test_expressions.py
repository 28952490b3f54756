"""Expression tree evaluation and validation.

Semantics are checked through each node's product route on one-row
selections: the batch kernels for the evaluated nodes (``Col``,
``Const``, ``Arith``, ``Compare``), and sqlite for the SQL-only nodes
(``In``, ``Or``, ``Not``, ``IsNull``) and for a conjunction, which only
exists as alias filters the SQL generator ANDs together.
"""

import pytest

from repro.relational import (
    AliasFilter,
    Arith,
    Col,
    Compare,
    Const,
    Database,
    ExpressionError,
    IsNull,
    JoinQuery,
    Not,
    Or,
    SqliteBackend,
    Table,
    TRUE,
    eq,
    float_,
    integer,
    isin,
    text,
    vector,
)


@pytest.fixture
def table():
    t = Table("T", [integer("A"), float_("B"), text("C")])
    t.insert_many([
        {"A": 1, "B": 2.5, "C": "x"},
        {"A": 2, "B": 10.0, "C": "y"},
        {"A": None, "B": None, "C": None},
    ])
    return t


def value_at(expr, table, row_id):
    """The batch kernel's value of ``expr`` on one row."""
    [value] = expr.evaluate_batch(table, [row_id])
    return value


def holds(predicate, table, row_id):
    """Whether ``predicate`` selects one row; the mask and the selection
    vector must agree."""
    selected = predicate.select_batch(table, [row_id]) == [row_id]
    assert bool(value_at(predicate, table, row_id)) == selected
    return selected


def sql_rows(table, *predicates):
    """The row ids sqlite selects with each predicate an alias filter of
    one query (rendered by the SQL generator, ANDed together)."""
    database = Database("expressions")
    database.add_table(table)
    query = JoinQuery(table.name, "t",
                      filters=[AliasFilter("t", p) for p in predicates])
    with SqliteBackend(database) as mirror:
        rows = mirror.execute(query.render_sql(["t.rowid - 1"]))
    return sorted(row for (row,) in rows)


def sql_holds(predicate, table, row_id):
    """Whether sqlite selects row ``row_id`` with ``predicate``."""
    return row_id in sql_rows(table, predicate)


class TestScalars:
    def test_col(self, table):
        assert value_at(Col("A"), table, 0) == 1

    def test_const(self, table):
        assert value_at(Const(42), table, 0) == 42

    def test_arith_multiply(self, table):
        expr = Arith("*", Col("A"), Col("B"))
        assert value_at(expr, table, 1) == 20.0

    def test_arith_null_propagates(self, table):
        expr = Arith("+", Col("A"), Const(1))
        assert value_at(expr, table, 2) is None

    def test_arith_unknown_op(self):
        with pytest.raises(ExpressionError):
            Arith("%", Col("A"), Col("B"))

    def test_columns(self):
        expr = Arith("*", Col("A"), Arith("+", Col("B"), Const(1)))
        assert expr.columns() == {"A", "B"}


class TestComparisons:
    def test_eq_true(self, table):
        assert holds(eq("A", 1), table, 0)

    def test_eq_false(self, table):
        assert not holds(eq("A", 1), table, 1)

    def test_null_comparison_is_false(self, table):
        assert not holds(eq("A", 1), table, 2)
        assert not holds(Compare("!=", Col("A"), Const(1)), table, 2)

    def test_ordering_ops(self, table):
        assert holds(Compare("<", Col("A"), Const(2)), table, 0)
        assert holds(Compare(">=", Col("B"), Const(10.0)), table, 1)

    def test_unknown_op(self):
        with pytest.raises(ExpressionError):
            Compare("~", Col("A"), Const(1))


class TestInAndBetween:
    """``IN`` is SQL only; a range test is left only as the kernel that
    selects a numeric facet interval's rows
    (:func:`repro.relational.vector.select_range`)."""

    def test_in(self, table):
        pred = isin("C", ["x", "z"])
        assert sql_holds(pred, table, 0)
        assert not sql_holds(pred, table, 1)

    def test_in_null_is_false(self, table):
        assert not sql_holds(isin("C", ["x"]), table, 2)

    def test_between_half_open(self, table):
        values = table.column_values("B")
        assert vector.select_range(values, 2.5, 10.0) == [0]  # 10.0 out

    def test_between_closed(self, table):
        values = table.column_values("B")
        assert vector.select_range(values, 2.5, 10.0,
                                   inclusive_high=True) == [0, 1]

    def test_between_null_is_false(self, table):
        values = table.column_values("B")
        assert vector.select_range(values, 0, 100, [1, 2]) == [1]


class TestBooleanCombinators:
    def test_and(self, table):
        assert sql_rows(table, eq("A", 1), eq("C", "x")) == [0]
        assert sql_rows(table, eq("A", 1), eq("C", "y")) == []

    def test_or(self, table):
        pred = Or.of(eq("A", 2), eq("C", "x"))
        assert sql_holds(pred, table, 0)
        assert sql_holds(pred, table, 1)
        assert not sql_holds(pred, table, 2)

    def test_not(self, table):
        assert sql_holds(Not(eq("A", 2)), table, 0)

    def test_is_null(self, table):
        assert sql_holds(IsNull(Col("A")), table, 2)
        assert not sql_holds(IsNull(Col("A")), table, 0)

    def test_single_part_collapses(self):
        assert Or.of(eq("A", 1)) == eq("A", 1)

    def test_true_constant(self, table):
        assert holds(TRUE, table, 0)


class TestValidation:
    def test_unknown_column_rejected(self, table):
        with pytest.raises(ExpressionError):
            eq("Nope", 1).validate(table)

    def test_known_columns_pass(self, table):
        Or.of(eq("A", 1), isin("C", ["x"])).validate(table)


class TestRendering:
    def test_compare_str(self):
        assert str(eq("A", 1)) == "A = 1"

    def test_string_const_quoted(self):
        assert str(eq("C", "it's")) == "C = 'it''s'"

    def test_in_renders_sorted(self):
        text_form = str(isin("C", ["b", "a"]))
        assert text_form == "C IN ('a', 'b')"

    def test_and_or_nesting(self):
        query = JoinQuery("T", "t", filters=[
            AliasFilter("t", eq("A", 1)),
            AliasFilter("t", Or.of(eq("B", 2), eq("C", "x")))])
        assert query.render_sql(["t.A"]).splitlines()[-1] == \
            "WHERE (t.A = 1) AND ((t.B = 2 OR t.C = 'x'))"
