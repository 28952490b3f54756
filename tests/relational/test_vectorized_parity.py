"""Randomized parity: batch kernels vs per-row reference semantics.

The product evaluates expressions only through batch kernels; the
per-row reference semantics live in :mod:`.row_oracle`.  These property
tests pin the equivalence on arbitrary arithmetic trees and on the
comparisons over them (a measure hit's predicate) over tables with
NULLs:

* ``evaluate_batch`` must equal one ``evaluate_row`` call per row (whole
  table and arbitrary selection-vector subsets);
* ``select_batch`` must equal per-row evaluation compressed to the
  truthy rows (same candidate order);
* whole-query parity: ``differentiate`` + ``explore`` results must be
  identical across the memory and sqlite backends, with and without a
  Budget scope (generous budgets change nothing; an already-expired
  deadline degrades both backends to the same empty partial result).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import KdapSession
from repro.relational import Table, float_, integer, text
from repro.relational.expressions import Arith, Col, Compare, Const
from repro.resilience import Budget

from .row_oracle import evaluate_row

# ----------------------------------------------------------------------
# expression-tree strategies
# ----------------------------------------------------------------------
TEXTS = ["red", "blue", "green", None]

numeric_exprs = st.recursive(
    st.one_of(
        st.sampled_from([Col("a"), Col("b")]),
        st.integers(-5, 5).map(Const),
        st.floats(-5, 5, allow_nan=False).map(Const),
    ),
    lambda inner: st.builds(
        Arith, st.sampled_from(["+", "-", "*"]), inner, inner),
    max_leaves=5,
)

predicates = st.builds(
    Compare, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    numeric_exprs, numeric_exprs)

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.floats(-4, 4, allow_nan=False)),
    st.sampled_from(TEXTS),
)


def make_table(rows) -> Table:
    table = Table("T", [integer("a"), float_("b"), text("c")])
    table.insert_many([{"a": a, "b": b, "c": c} for a, b, c in rows])
    return table


@given(rows=st.lists(row_strategy, min_size=0, max_size=30),
       predicate=predicates, data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batch_matches_per_row(rows, predicate, data):
    table = make_table(rows)
    reference = [bool(evaluate_row(predicate, table, r))
                 for r in range(len(table))]

    assert [bool(v) for v in predicate.evaluate_batch(table)] == reference
    assert predicate.select_batch(table) == \
        [r for r, keep in enumerate(reference) if keep]

    # arbitrary selection vector (ordered subset of the table's rows)
    subset = sorted(data.draw(
        st.sets(st.integers(0, max(len(table) - 1, 0)))
        if len(table) else st.just(set())))
    assert [bool(v) for v in predicate.evaluate_batch(table, subset)] == \
        [reference[r] for r in subset]
    assert predicate.select_batch(table, subset) == \
        [r for r in subset if reference[r]]


@given(rows=st.lists(row_strategy, min_size=0, max_size=20),
       expr=numeric_exprs, data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_expression_batch_matches_per_row(rows, expr, data):
    table = make_table(rows)
    reference = [evaluate_row(expr, table, r) for r in range(len(table))]
    assert expr.evaluate_batch(table) == reference
    subset = sorted(data.draw(
        st.sets(st.integers(0, max(len(table) - 1, 0)))
        if len(table) else st.just(set())))
    assert expr.evaluate_batch(table, subset) == \
        [reference[r] for r in subset]


# ----------------------------------------------------------------------
# whole-query parity across backends, with and without budgets
# ----------------------------------------------------------------------
QUERIES = ["California Mountain Bikes", "Sydney Rogers", "France Clothing"]


def _summarize(result) -> tuple:
    """Backend-comparable digest of an ExploreResult (floats rounded so
    sqlite's SUM order cannot flip the last bit)."""
    return (
        tuple(sorted(result.subspace.fact_rows)),
        round(result.interface.total_aggregate, 6),
        tuple(
            (facet.dimension,
             tuple(
                 (str(fa.attribute.ref), round(fa.score, 6), fa.promoted,
                  tuple((e.label, round(e.aggregate, 6), round(e.score, 6))
                        for e in fa.entries))
                 for fa in facet.attributes
             ))
            for facet in result.interface.facets
        ),
    )


def _differentiate_digest(session, query) -> tuple:
    ranked = session.differentiate(query, limit=5)
    return tuple((str(r.star_net), round(r.score, 6)) for r in ranked)


@pytest.fixture(scope="module")
def backend_sessions(aw_online):
    sessions = {name: KdapSession(aw_online, backend=name)
                for name in ("memory", "sqlite")}
    yield sessions
    for session in sessions.values():
        session.close()


@pytest.mark.parametrize("query", QUERIES)
def test_explore_identical_across_backends(backend_sessions, query):
    digests = {}
    for name, session in backend_sessions.items():
        ranked = session.differentiate(query, limit=5)
        assert ranked, query
        result = session.explore(ranked[0].star_net)
        digests[name] = (_differentiate_digest(session, query),
                         _summarize(result))
    assert digests["memory"] == digests["sqlite"]


@pytest.mark.parametrize("query", QUERIES)
def test_generous_budget_changes_nothing(backend_sessions, query):
    """A budget far above the workload's needs must not perturb results
    on any backend (per-batch charging is observability, not behavior)."""
    for session in backend_sessions.values():
        ranked = session.differentiate(query, limit=5)
        free = _summarize(session.explore(ranked[0].star_net))
        budget = Budget(max_rows=10_000_000, max_groups=1_000_000,
                        deadline_ms=600_000)
        budgeted = session.explore(ranked[0].star_net, budget=budget)
        assert _summarize(budgeted) == free
        assert budgeted.diagnostics is not None
        assert not budgeted.diagnostics.truncations


def test_expired_deadline_degrades_identically(backend_sessions):
    """An already-expired deadline yields the same empty partial result
    on every backend (subspace truncation recorded, no exception)."""
    digests = {}
    for name, session in backend_sessions.items():
        net = session.differentiate(QUERIES[0], limit=1)[0].star_net
        session.engine.cache.clear()  # force real (deadline-checked) work
        budget = Budget(deadline_ms=-1, clock=lambda: 0.0)
        result = session.explore(net, budget=budget)
        digests[name] = (
            tuple(result.subspace.fact_rows),
            result.interface.facets,
            tuple(t.stage for t in result.diagnostics.truncations),
        )
    assert digests["memory"] == digests["sqlite"]
    assert digests["memory"][0] == ()
    assert "subspace" in digests["memory"][2]
