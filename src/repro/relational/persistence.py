"""Persist a :class:`Database` to a sqlite file and load it back.

The synthetic warehouses take a few seconds to generate; persisting them
lets downstream tooling (or plain sqlite clients) reuse a build.  Table
data round-trips through :class:`SqliteBackend`; schema metadata that
sqlite cannot express natively — column types, primary keys, and named
foreign keys — is stored in a ``_repro_meta`` side table.
"""

from __future__ import annotations

import json
import sqlite3

from .catalog import Database
from .sqlite_backend import SqliteBackend
from .table import Table
from .types import Column, ColumnType

_META_TABLE = "_repro_meta"


def _schema_payload(database: Database) -> dict:
    return {
        "name": database.name,
        "tables": [
            {
                "name": table.name,
                "primary_key": table.primary_key,
                "columns": [
                    {"name": c.name, "type": c.type.value,
                     "nullable": c.nullable}
                    for c in table.columns
                ],
            }
            for table in database.tables()
        ],
        "foreign_keys": [
            {
                "name": fk.name,
                "child_table": fk.child_table,
                "child_column": fk.child_column,
                "parent_table": fk.parent_table,
                "parent_column": fk.parent_column,
            }
            for fk in database.foreign_keys
        ],
    }


def dump_database(database: Database, path: str) -> None:
    """Write ``database`` (data + schema metadata) to a sqlite file."""
    backend = SqliteBackend(database, path)
    try:
        backend.connection.execute(
            f'CREATE TABLE "{_META_TABLE}" (payload TEXT)')
        backend.connection.execute(
            f'INSERT INTO "{_META_TABLE}" VALUES (?)',
            (json.dumps(_schema_payload(database)),),
        )
        backend.connection.commit()
    finally:
        backend.close()


def load_database(path: str) -> Database:
    """Reconstruct a :class:`Database` from a file written by
    :func:`dump_database`."""
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute(
            f'SELECT payload FROM "{_META_TABLE}"').fetchall()
        if len(rows) != 1:
            raise ValueError(f"{path!r} has no repro schema metadata")
        payload = json.loads(rows[0][0])
        database = Database(payload["name"])
        for spec in payload["tables"]:
            columns = [
                Column(c["name"], ColumnType(c["type"]), c["nullable"])
                for c in spec["columns"]
            ]
            table = Table(spec["name"], columns,
                          primary_key=spec["primary_key"])
            names = ", ".join(f'"{c.name}"' for c in columns)
            for row in connection.execute(
                    f'SELECT {names} FROM "{spec["name"]}"'):
                table.insert({
                    column.name: _from_sqlite(value, column)
                    for column, value in zip(columns, row)
                })
            database.add_table(table)
        for fk in payload["foreign_keys"]:
            database.add_foreign_key(
                fk["name"], fk["child_table"], fk["child_column"],
                fk["parent_table"], fk["parent_column"],
            )
        return database
    finally:
        connection.close()


def _from_sqlite(value, column: Column):
    """Undo the sqlite storage mapping (0/1 back to bool)."""
    if value is None:
        return None
    if column.type is ColumnType.BOOLEAN:
        return bool(value)
    return value

