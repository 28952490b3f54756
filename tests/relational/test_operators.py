"""Relational operators and the column kernels beneath them, including
hypothesis cross-checks against naive implementations.  The semi-join
tests pin the reference oracle's operator (``src/`` evaluates rays as
attribute filters and has no semi-join of its own)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Table, eq, integer, text
from repro.relational.operators import AGGREGATE_STATES, fold_rows

from ..warehouse.subspace_oracle import fold, group_rows, semi_join


@pytest.fixture
def orders():
    t = Table("Orders", [integer("Id"), integer("CustomerId"),
                         integer("Amount")])
    t.insert_many([
        {"Id": 1, "CustomerId": 10, "Amount": 5},
        {"Id": 2, "CustomerId": 11, "Amount": 7},
        {"Id": 3, "CustomerId": 10, "Amount": 2},
        {"Id": 4, "CustomerId": 12, "Amount": None},
    ])
    return t


@pytest.fixture
def customers():
    t = Table("Customers", [integer("Id"), text("Name")])
    t.insert_many([
        {"Id": 10, "Name": "Ada"},
        {"Id": 11, "Name": "Alan"},
        {"Id": 13, "Name": "Grace"},
    ])
    return t


class TestSelect:
    def test_basic(self, orders):
        assert eq("CustomerId", 10).select_batch(orders) == [0, 2]

    def test_refinement(self, orders):
        assert eq("CustomerId", 10).select_batch(orders, [2, 3]) == [2]

    def test_empty(self, orders):
        assert eq("CustomerId", 99).select_batch(orders) == []


class TestSemiJoin:
    def test_child_rows_matching_parents(self, orders, customers):
        rows = semi_join(orders, "CustomerId", [0, 1], customers, "Id")
        assert rows == [0, 1, 2]

    def test_no_parents(self, orders, customers):
        assert semi_join(orders, "CustomerId", [], customers, "Id") == []


class TestGroupBy:
    def test_by_column(self, orders):
        groups = group_rows(orders.column_values("CustomerId"))
        assert groups == {10: [0, 2], 11: [1], 12: [3]}

    def test_null_keys_dropped(self, orders):
        orders.insert({"Id": 5, "CustomerId": None, "Amount": 1})
        groups = group_rows(orders.column_values("CustomerId"))
        assert None not in groups


def _fold(aggregate, values):
    """``fold_rows`` over every row of ``values``."""
    return fold_rows(aggregate, values, range(len(values)))


class TestAggregates:
    """The one-group fold (:func:`fold_rows`) that G(DS') runs on."""

    def test_sum_ignores_none(self):
        assert _fold("sum", [1, None, 2]) == 3

    def test_count_non_null(self):
        assert _fold("count", [1, None, 2]) == 2

    def test_avg(self):
        assert _fold("avg", [2, 4, None]) == 3

    def test_avg_empty_is_none(self):
        assert _fold("avg", [None]) is None

    def test_min_max(self):
        assert _fold("min", [3, 1, None]) == 1
        assert _fold("max", [3, 1, None]) == 3

    def test_registry(self):
        assert set(AGGREGATE_STATES) == {"sum", "count", "avg", "min",
                                         "max"}

    def test_sum_adds_left_to_right(self):
        """No compensated rounding: 1e16 + 1.0 rounds back to 1e16."""
        assert _fold("sum", [1e16, 1.0, -1e16]) == 0.0
        assert _fold("avg", [1e16, 1.0, -1e16]) == 0.0


# ----------------------------------------------------------------------
# property-based cross-checks
# ----------------------------------------------------------------------
keys = st.lists(st.one_of(st.integers(0, 20), st.none()), min_size=0,
                max_size=30)


@given(child_keys=keys, parent_keys=keys)
@settings(max_examples=60, deadline=None)
def test_semi_join_matches_naive(child_keys, parent_keys):
    child = Table("C", [integer("K")])
    child.insert_many({"K": k} for k in child_keys)
    parent = Table("P", [integer("K")])
    parent.insert_many({"K": k} for k in parent_keys)
    got = semi_join(child, "K", range(len(parent)), parent, "K")
    want = [
        i for i, k in enumerate(child_keys)
        if k is not None and k in {p for p in parent_keys if p is not None}
    ]
    assert got == want


@given(values=st.lists(st.one_of(st.integers(-5, 5), st.none()),
                       max_size=40))
@settings(max_examples=60, deadline=None)
def test_group_by_partitions_rows(values):
    t = Table("T", [integer("V")])
    t.insert_many({"V": v} for v in values)
    groups = group_rows(t.column_values("V"))
    covered = sorted(rid for rows in groups.values() for rid in rows)
    want = [i for i, v in enumerate(values) if v is not None]
    assert covered == want
    for key, rows in groups.items():
        assert all(values[r] == key for r in rows)


@given(values=st.lists(st.one_of(st.floats(-1e16, 1e16), st.integers(-5, 5),
                                 st.none()), max_size=40),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_fold_rows_matches_plain_loop(values, data):
    """The one-group state fold equals the oracle's plain left-to-right
    loop byte for byte, over any ascending selection."""
    rows = sorted(data.draw(st.sets(st.integers(0, max(len(values) - 1, 0))))
                  ) if values else []
    for aggregate in AGGREGATE_STATES:
        want = fold(aggregate, [values[r] for r in rows])
        assert repr(fold_rows(aggregate, values, rows)) == repr(want)
