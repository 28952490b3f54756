"""Predicate and scalar expression trees.

Expressions evaluate against a :class:`~repro.relational.table.Table`
through the batch :meth:`Expression.evaluate_batch` /
:meth:`Predicate.select_batch` kernels, which move whole selection
vectors through :mod:`repro.relational.vector` at C-comprehension speed.
SQL semantics are collapsed to two values: ``None`` propagates through
arithmetic and any comparison involving NULL is False.  The per-row
reference semantics live with the tests (``tests/relational/
row_oracle.py``), and the randomized parity suite pins the kernels to it.

The trees are intentionally tiny — comparisons, boolean combinators,
``IN`` sets, ranges, and arithmetic over columns — which covers
everything KDAP's star joins and measures need, while staying printable
as SQL for the :mod:`repro.relational.sql` generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import vector
from .errors import ExpressionError
from .table import Table


def _resolve_ids(table: Table,
                 row_ids: Sequence[int] | None) -> Sequence[int]:
    """The candidate selection: all rows when ``row_ids`` is None."""
    return range(len(table)) if row_ids is None else row_ids


class Expression:
    """Base class for all expressions."""

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        """Values of this expression over a selection vector."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns this expression reads."""
        raise NotImplementedError

    def validate(self, table: Table) -> None:
        """Raise :class:`ExpressionError` when a referenced column is absent."""
        for name in self.columns():
            if not table.has_column(name):
                raise ExpressionError(
                    f"expression references unknown column {name!r} "
                    f"of table {table.name!r}"
                )


# ----------------------------------------------------------------------
# scalar expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Col(Expression):
    """A column reference."""

    name: str

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        return vector.take(table.column_values(self.name), row_ids)

    def columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: object

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        return [self.value] * len(_resolve_ids(table, row_ids))

    def columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arith(Expression):
    """Binary arithmetic over two scalar expressions (``None`` propagates)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        op = _ARITH_OPS[self.op]
        lhs = self.left.evaluate_batch(table, row_ids)
        rhs = self.right.evaluate_batch(table, row_ids)
        return [None if a is None or b is None else op(a, b)
                for a, b in zip(lhs, rhs)]

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
class Predicate(Expression):
    """An expression evaluating to bool (SQL three-valued logic collapsed:
    NULL comparisons evaluate to False)."""

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        """Selection vector of candidate rows satisfying this predicate.

        The base compresses ``row_ids`` by the :meth:`evaluate_batch`
        mask; concrete predicates override with columnar kernels (``IN``
        probes a set over the raw column, ``AND`` narrows the selection
        one conjunct at a time).
        """
        ids = _resolve_ids(table, row_ids)
        return vector.compress(self.evaluate_batch(table, ids), ids)


_CMP_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Compare(Predicate):
    """Comparison of two scalar expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        op = _CMP_OPS[self.op]
        lhs = self.left.evaluate_batch(table, row_ids)
        rhs = self.right.evaluate_batch(table, row_ids)
        return [a is not None and b is not None and op(a, b)
                for a, b in zip(lhs, rhs)]

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class In(Predicate):
    """Membership of a column in a fixed value set (the workhorse of hit
    groups: ``GroupName IN ('LCD Projectors', 'Flat Panel(LCD)')``)."""

    expr: Expression
    values: frozenset

    @staticmethod
    def of(expr: Expression, values: Iterable) -> "In":
        """Build an ``IN`` predicate from any iterable of values."""
        return In(expr, frozenset(values))

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        wanted = self.values
        return [v is not None and v in wanted
                for v in self.expr.evaluate_batch(table, row_ids)]

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        # the workhorse fast path: IN over a bare column probes the set
        # against the raw vector, skipping the mask materialisation
        if isinstance(self.expr, Col):
            column = table.column_values(self.expr.name)
            return vector.select_in(column, self.values, row_ids)
        ids = _resolve_ids(table, row_ids)
        return vector.compress(self.evaluate_batch(table, ids), ids)

    def columns(self) -> set[str]:
        return self.expr.columns()

    def __str__(self) -> str:
        rendered = ", ".join(sorted(str(Const(v)) for v in self.values))
        return f"{self.expr} IN ({rendered})"


@dataclass(frozen=True)
class Between(Predicate):
    """Closed-open range test ``low <= expr < high`` used by numerical
    bucketization (the last bucket of a domain uses ``inclusive_high``)."""

    expr: Expression
    low: float
    high: float
    inclusive_high: bool = False

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        values = self.expr.evaluate_batch(table, row_ids)
        low, high = self.low, self.high
        if self.inclusive_high:
            return [v is not None and low <= v <= high for v in values]
        return [v is not None and low <= v < high for v in values]

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        if isinstance(self.expr, Col):
            column = table.column_values(self.expr.name)
            return vector.select_range(column, self.low, self.high, row_ids,
                                       inclusive_high=self.inclusive_high)
        ids = _resolve_ids(table, row_ids)
        return vector.compress(self.evaluate_batch(table, ids), ids)

    def columns(self) -> set[str]:
        return self.expr.columns()

    def __str__(self) -> str:
        op = "<=" if self.inclusive_high else "<"
        return f"({self.low!r} <= {self.expr} AND {self.expr} {op} {self.high!r})"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: tuple[Predicate, ...]

    @staticmethod
    def of(*parts: Predicate) -> "Predicate":
        """Conjunction, flattening nested Ands; one part returns itself."""
        flat: list[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if len(flat) == 1:
            return flat[0]
        return And(tuple(flat))

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        ids = _resolve_ids(table, row_ids)
        selected = set(self.select_batch(table, ids))
        return [r in selected for r in ids]

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        # selection-vector refinement: each conjunct only tests the rows
        # that survived the previous one
        selection = _resolve_ids(table, row_ids)
        for part in self.parts:
            if not selection:
                break
            selection = part.select_batch(table, selection)
        return list(selection)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def __str__(self) -> str:
        return "(" + " AND ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    parts: tuple[Predicate, ...]

    @staticmethod
    def of(*parts: Predicate) -> "Predicate":
        """Disjunction, flattening nested Ors; one part returns itself."""
        flat: list[Predicate] = []
        for part in parts:
            if isinstance(part, Or):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if len(flat) == 1:
            return flat[0]
        return Or(tuple(flat))

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        if not self.parts:
            return [False] * len(_resolve_ids(table, row_ids))
        masks = [p.evaluate_batch(table, row_ids) for p in self.parts]
        return [any(hits) for hits in zip(*masks)]

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        # each disjunct selects over the full candidate set; the union is
        # rebuilt in candidate order so the output stays a selection
        ids = _resolve_ids(table, row_ids)
        hit: set[int] = set()
        for part in self.parts:
            hit.update(part.select_batch(table, ids))
        return [r for r in ids if r in hit]

    def columns(self) -> set[str]:
        out: set[str] = set()
        for part in self.parts:
            out |= part.columns()
        return out

    def __str__(self) -> str:
        return "(" + " OR ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation."""

    inner: Predicate

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        return [not hit for hit in self.inner.evaluate_batch(table, row_ids)]

    def select_batch(self, table: Table,
                     row_ids: Sequence[int] | None = None) -> list[int]:
        ids = _resolve_ids(table, row_ids)
        hit = set(self.inner.select_batch(table, ids))
        return [r for r in ids if r not in hit]

    def columns(self) -> set[str]:
        return self.inner.columns()

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


@dataclass(frozen=True)
class IsNull(Predicate):
    """NULL test."""

    expr: Expression

    def evaluate_batch(self, table: Table,
                       row_ids: Sequence[int] | None = None) -> list:
        return [v is None
                for v in self.expr.evaluate_batch(table, row_ids)]

    def columns(self) -> set[str]:
        return self.expr.columns()

    def __str__(self) -> str:
        return f"{self.expr} IS NULL"


TRUE = Compare("=", Const(1), Const(1))
"""A predicate that is always true (useful as a neutral filter)."""


def eq(column: str, value) -> Compare:
    """Shorthand for ``Col(column) = Const(value)``."""
    return Compare("=", Col(column), Const(value))


def isin(column: str, values: Iterable) -> In:
    """Shorthand for ``Col(column) IN values``."""
    return In.of(Col(column), values)
