"""Columnar in-memory tables.

A :class:`Table` keeps one Python list per column — the append-only
*write store*.  Rows are addressed by integer row id (their position),
which lets higher layers (subspaces, join indexes) represent row sets as
plain ``list[int]`` / ``set[int]`` without copying any data.

Tables hold no encoded copy: the star schema's derived store encodes
the fact-aligned columns the read path consumes
(:meth:`~repro.warehouse.schema.StarSchema.fact_chunks`) and rebuilds
them once a table's version counter moves.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IntegrityError, UnknownColumnError
from .types import Column, coerce_value


class Table:
    """A named, columnar, append-only table.

    Parameters
    ----------
    name:
        Table name; must be unique inside a :class:`~repro.relational.catalog.Database`.
    columns:
        Ordered column definitions.
    primary_key:
        Optional name of the primary-key column.  When set, inserts maintain
        a unique index used by :meth:`lookup_pk` and by hash joins on the key.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str | None = None,
    ):
        if not columns:
            raise IntegrityError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise IntegrityError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._col_index: dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self._data: list[list] = [[] for _ in columns]
        self._version = 0
        self.primary_key = primary_key
        self._pk_index: dict[object, int] | None = None
        if primary_key is not None:
            if primary_key not in self._col_index:
                raise UnknownColumnError(name, primary_key)
            self._pk_index = {}

    # ------------------------------------------------------------------
    # schema inspection
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of the columns, in definition order."""
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        """True when the table defines a column called ``name``."""
        return name in self._col_index

    def column(self, name: str) -> Column:
        """The :class:`Column` definition for ``name``."""
        try:
            return self.columns[self._col_index[name]]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data[0])

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return len(self)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every append.

        Caches layered above the table (the schema's derived data, the
        plan cache, the sqlite mirror) stamp their entries with it and
        rebuild once it moves; only materialized views fold the appended
        rows instead, relying on existing rows never mutating.
        """
        return self._version

    def column_values(self, name: str) -> list:
        """The full value list of one column (shared, do not mutate)."""
        try:
            return self._data[self._col_index[name]]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def value(self, row_id: int, column: str):
        """A single cell value."""
        return self.column_values(column)[row_id]

    def row(self, row_id: int) -> dict:
        """One row as a ``{column: value}`` dict (materialised copy)."""
        return {c.name: self._data[i][row_id] for i, c in enumerate(self.columns)}

    def rows(self, row_ids: Iterable[int] | None = None) -> Iterator[dict]:
        """Iterate rows as dicts; all rows when ``row_ids`` is None."""
        ids = range(len(self)) if row_ids is None else row_ids
        for rid in ids:
            yield self.row(rid)

    def distinct(self, column: str, row_ids: Iterable[int] | None = None) -> set:
        """Distinct non-null values of ``column`` over the given rows."""
        values = self.column_values(column)
        if row_ids is None:
            return {v for v in values if v is not None}
        return {values[r] for r in row_ids if values[r] is not None}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, object]) -> int:
        """Append one row given as a mapping; returns the new row id.

        Missing columns are stored as ``None`` (subject to nullability);
        unexpected keys raise :class:`UnknownColumnError`.
        """
        for key in row:
            if key not in self._col_index:
                raise UnknownColumnError(self.name, key)
        row_id = len(self)
        self._version += 1
        for i, col in enumerate(self.columns):
            value = coerce_value(row.get(col.name), col)
            self._data[i].append(value)
        if self._pk_index is not None:
            key = self._data[self._col_index[self.primary_key]][row_id]
            if key in self._pk_index:
                # roll back the partial append so the table stays consistent
                for store in self._data:
                    store.pop()
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index[key] = row_id
        return row_id

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.insert(row)

    def load_columns(self, columns: Mapping[str, Sequence]) -> None:
        """Bulk-append column-oriented data (the scale-generator path).

        Every declared column must be present and all value lists equal
        length; values are validated through :func:`coerce_value` exactly
        as :meth:`insert`, but appended one whole column at a time so
        million-row loads avoid per-row dict handling.
        """
        missing = [c.name for c in self.columns if c.name not in columns]
        if missing:
            raise IntegrityError(
                f"load_columns into {self.name!r} missing {missing}")
        for key in columns:
            if key not in self._col_index:
                raise UnknownColumnError(self.name, key)
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise IntegrityError(
                f"load_columns into {self.name!r}: ragged column lengths")
        base = len(self)
        self._version += 1
        for i, col in enumerate(self.columns):
            self._data[i].extend(
                coerce_value(v, col) for v in columns[col.name])
        if self._pk_index is not None:
            store = self._data[self._col_index[self.primary_key]]
            index = self._pk_index
            seen: set = set()
            for key in store[base:]:
                if key in index or key in seen:
                    for data in self._data:
                        del data[base:]
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table "
                        f"{self.name!r}")
                seen.add(key)
            for rid in range(base, len(store)):
                index[store[rid]] = rid

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup_pk(self, key) -> int | None:
        """Row id for a primary-key value, or None when absent."""
        if self._pk_index is None:
            raise IntegrityError(f"table {self.name!r} has no primary key")
        return self._pk_index.get(key)

    def build_index(self, column: str) -> dict[object, list[int]]:
        """A value → row-ids index over one column (built on demand)."""
        index: dict[object, list[int]] = {}
        for rid, value in enumerate(self.column_values(column)):
            index.setdefault(value, []).append(rid)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {len(self)} rows, {len(self.columns)} cols)"
