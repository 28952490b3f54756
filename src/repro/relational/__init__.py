"""In-memory columnar relational engine (substrate for the KDAP warehouse).

Public surface::

    from repro.relational import (
        Database, Table, Column, ColumnType, ForeignKey,
        integer, float_, text, date, boolean,
        Col, Const, Compare, In, Or, Not, IsNull, eq, isin,
        JoinQuery, JoinEdge, AliasFilter, SqliteBackend,
    )
"""

from .catalog import Database, ForeignKey
from .errors import (
    BackendError,
    BackendUnavailableError,
    BudgetExceeded,
    DeadlineExceeded,
    DuplicateTableError,
    ExpressionError,
    IntegrityError,
    RelationalError,
    ResourceExhausted,
    SchemaError,
    TransientBackendError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)
from .expressions import (
    Arith,
    Col,
    Compare,
    Const,
    Expression,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
    TRUE,
    eq,
    isin,
)
from .persistence import dump_database, load_database
from .sql import AliasFilter, JoinEdge, JoinQuery
from .sqlite_backend import SqliteBackend
from .table import Table
from .types import (
    Column,
    ColumnType,
    boolean,
    coerce_value,
    date,
    float_,
    integer,
    text,
)

__all__ = [
    "AliasFilter",
    "Arith",
    "BackendError",
    "BackendUnavailableError",
    "BudgetExceeded",
    "DeadlineExceeded",
    "Col",
    "Column",
    "ColumnType",
    "Compare",
    "Const",
    "Database",
    "DuplicateTableError",
    "Expression",
    "ExpressionError",
    "ForeignKey",
    "In",
    "IntegrityError",
    "IsNull",
    "JoinEdge",
    "JoinQuery",
    "Not",
    "Or",
    "Predicate",
    "RelationalError",
    "ResourceExhausted",
    "SchemaError",
    "SqliteBackend",
    "TransientBackendError",
    "TRUE",
    "Table",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownTableError",
    "boolean",
    "coerce_value",
    "date",
    "dump_database",
    "eq",
    "float_",
    "integer",
    "isin",
    "load_database",
    "text",
]
