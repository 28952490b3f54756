"""Pinned row oracle: per-row reference semantics of expression trees.

The product evaluates :mod:`repro.relational.expressions` trees only
through the batch kernels (``evaluate_batch`` / ``select_batch``).  This
oracle is the one-row-at-a-time interpreter those kernels must agree
with: ``None`` propagates through arithmetic, any comparison involving
NULL is False, ``BETWEEN`` is half-open unless ``inclusive_high``.  The
hypothesis parity suite and the join oracle compare against it.  It is
deliberately naive and lives with the tests, not in the product.
"""

from __future__ import annotations

import operator

from repro.relational.expressions import (
    And,
    Arith,
    Between,
    Col,
    Compare,
    Const,
    In,
    IsNull,
    Not,
    Or,
)
from repro.relational.table import Table

# spelled out here, not imported, so the oracle does not share the
# product's operator tables
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}
COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate_row(expr, table: Table, row_id: int):
    """Value of ``expr`` on row ``row_id`` of ``table``."""
    if isinstance(expr, Col):
        return table.value(row_id, expr.name)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Arith):
        lhs = evaluate_row(expr.left, table, row_id)
        rhs = evaluate_row(expr.right, table, row_id)
        if lhs is None or rhs is None:
            return None
        return ARITH[expr.op](lhs, rhs)
    if isinstance(expr, Compare):
        lhs = evaluate_row(expr.left, table, row_id)
        rhs = evaluate_row(expr.right, table, row_id)
        if lhs is None or rhs is None:
            return False
        return COMPARE[expr.op](lhs, rhs)
    if isinstance(expr, In):
        value = evaluate_row(expr.expr, table, row_id)
        return value is not None and value in expr.values
    if isinstance(expr, Between):
        value = evaluate_row(expr.expr, table, row_id)
        if value is None:
            return False
        if expr.inclusive_high:
            return expr.low <= value <= expr.high
        return expr.low <= value < expr.high
    if isinstance(expr, And):
        return all(evaluate_row(p, table, row_id) for p in expr.parts)
    if isinstance(expr, Or):
        return any(evaluate_row(p, table, row_id) for p in expr.parts)
    if isinstance(expr, Not):
        return not evaluate_row(expr.inner, table, row_id)
    if isinstance(expr, IsNull):
        return evaluate_row(expr.expr, table, row_id) is None
    raise TypeError(f"no row semantics for {type(expr).__name__}")
