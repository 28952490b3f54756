"""Execute catalogs and generated SQL against sqlite3.

This backend mirrors a :class:`~repro.relational.catalog.Database` into
sqlite3.  It started as a cross-check for the in-memory engine; the plan
layer (:mod:`repro.plan`) now also runs it as a first-class execution
backend, so **value fidelity** matters: a round trip through sqlite must
hand back the same Python values the columnar engine stores.

Two column types need explicit adaptation:

* ``BOOLEAN`` — stored as 0/1 (sqlite has no boolean affinity) and
  converted back to :class:`bool` on result rows;
* ``DATE`` — the engine stores dates as ISO-8601 strings; they are
  declared ``DATE`` and converted back to the identical string, so
  sqlite's own date machinery never silently reinterprets them.

Both rely on declared column types plus ``detect_types=PARSE_DECLTYPES``
with :func:`sqlite3.register_converter`; expression results (aggregates,
arithmetic) are unaffected because converters only fire for declared
columns.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from typing import Sequence

from .catalog import Database
from .errors import BackendError
from .table import Table
from .types import ColumnType

_SQLITE_TYPES = {
    ColumnType.INTEGER: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.TEXT: "TEXT",
    ColumnType.DATE: "DATE",
    ColumnType.BOOLEAN: "BOOLEAN",
}

sqlite3.register_converter("BOOLEAN", lambda blob: bool(int(blob)))
# the engine stores DATE as ISO-8601 text; keep the round trip exact
sqlite3.register_converter("DATE", lambda blob: blob.decode("utf-8"))


def _create_sql(table: Table) -> str:
    """CREATE TABLE statement for one columnar table."""
    parts = []
    for col in table.columns:
        decl = f'"{col.name}" {_SQLITE_TYPES[col.type]}'
        if not col.nullable:
            decl += " NOT NULL"
        if table.primary_key == col.name:
            decl += " PRIMARY KEY"
        parts.append(decl)
    return f'CREATE TABLE "{table.name}" (' + ", ".join(parts) + ")"


_MEMORY_MIRROR_SEQ = itertools.count()
"""Distinct shared-cache names for concurrently-alive in-memory mirrors."""


class SqliteBackend:
    """A sqlite3 mirror of a :class:`Database`.

    Usage::

        backend = SqliteBackend(db)
        rows = backend.execute("SELECT COUNT(*) FROM DimProduct")

    The mirror is safe to query from worker threads: every thread other
    than the creator transparently gets its **own connection** to the
    same database (sqlite3 connections must not be shared across
    threads).  For the default in-memory mirror this uses a named
    shared-cache database — a plain ``:memory:`` connection would be a
    private, empty database per connection — anchored by the creator's
    connection so it lives exactly as long as the mirror.

    Two misuse modes are enforced as a clear typed
    :class:`~repro.relational.errors.BackendError` rather than a raw
    ``sqlite3.ProgrammingError`` escaping from deep inside a query:

    * querying after :meth:`close` (from the creator *or* a foreign
      thread — per-thread connections all die with the mirror);
    * any residual sqlite-level connection-affinity violation (a
      connection touched by a thread it does not belong to).

    Note the per-thread connections are opened lazily and only released
    at :meth:`close`; callers with **short-lived threads** (a
    thread-per-request server) must route queries through a bounded set
    of long-lived workers — the service layer keeps one session per
    worker thread for exactly this reason.
    """

    def __init__(self, database: Database, path: str = ":memory:"):
        self._closed = False
        if path == ":memory:":
            name = next(_MEMORY_MIRROR_SEQ)
            self._uri = f"file:kdap-mirror-{name}?mode=memory&cache=shared"
            self._is_uri = True
        else:
            self._uri = path
            self._is_uri = False
        self._local = threading.local()
        self._thread_connections: list[sqlite3.Connection] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self.connection = self._connect()
        self._load(database)

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False only relaxes sqlite3's ownership check;
        # each connection is still used by exactly one thread (and closed
        # by whichever thread runs close())
        return sqlite3.connect(self._uri, uri=self._is_uri,
                               detect_types=sqlite3.PARSE_DECLTYPES,
                               check_same_thread=False)

    def connection_for_thread(self) -> sqlite3.Connection:
        """This thread's connection to the mirror (the creator keeps the
        primary; other threads lazily open their own)."""
        if threading.get_ident() == self._owner:
            return self.connection
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connect()
            self._local.connection = connection
            with self._lock:
                self._thread_connections.append(connection)
        return connection

    def _load(self, database: Database) -> None:
        cursor = self.connection.cursor()
        for table in database.tables():
            cursor.execute(_create_sql(table))
            if len(table) == 0:
                continue
            placeholders = ", ".join("?" for _ in table.columns)
            names = ", ".join(f'"{c.name}"' for c in table.columns)
            stmt = f'INSERT INTO "{table.name}" ({names}) VALUES ({placeholders})'
            types = [c.type for c in table.columns]
            stores = [table.column_values(c.name) for c in table.columns]
            rows = zip(*stores)
            cursor.executemany(
                stmt,
                (tuple(to_sqlite(v, t) for v, t in zip(row, types))
                 for row in rows),
            )
        self.connection.commit()

    def execute(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Run a query and fetch all rows (declared-type columns come back
        as engine values: bools as bool, dates as ISO strings).

        Raises :class:`BackendError` — never a raw
        ``sqlite3.ProgrammingError`` — when the mirror is closed or a
        connection is used off its owning thread.
        """
        if self._closed:
            raise BackendError(
                "sqlite mirror is closed; queries after close() are not "
                "served (sessions are per-worker — build a new session "
                "instead of reusing a closed one)")
        try:
            cursor = self.connection_for_thread().execute(sql, params)
            return cursor.fetchall()
        except sqlite3.ProgrammingError as exc:
            raise BackendError(
                f"sqlite connection misuse from thread "
                f"{threading.get_ident()}: {exc} (connections are "
                f"per-thread and die with the mirror; use one session "
                f"per worker thread)") from exc

    def close(self) -> None:
        """Close the primary connection and any per-thread ones
        (idempotent; later queries raise :class:`BackendError`)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            extras, self._thread_connections = self._thread_connections, []
        for connection in extras:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass
        self.connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def to_sqlite(value, column_type: ColumnType | None = None):
    """Map one engine value to its sqlite storage value.

    Booleans become 0/1 (also when a BOOLEAN column holds an int-typed
    truth value); everything else is already storable.  ``column_type``
    is advisory — adaptation is value-driven so untyped call sites keep
    working.
    """
    if isinstance(value, bool):
        return int(value)
    if column_type is ColumnType.BOOLEAN and value is not None:
        return int(value)
    return value


def from_sqlite(value, column_type: ColumnType):
    """Map one sqlite result value back to its engine value.

    ``PARSE_DECLTYPES`` already converts declared columns; this helper is
    for results fetched positionally without declared types (e.g. raw
    expression selects) where the caller knows the column type."""
    if value is None:
        return None
    if column_type is ColumnType.BOOLEAN:
        return bool(value)
    return value
