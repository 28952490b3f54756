"""Encoded column chunks with zone maps.

The storage layer beneath the vectorized executor.  A column is split
into fixed-width *chunks* of :data:`CHUNK_SIZE` rows; each chunk is
stored in whichever encoding fits its data:

* :class:`DictChunk` — dictionary encoding for low-cardinality columns
  (dimension attributes resolved to the fact grain repeat a handful of
  values millions of times);
* :class:`RLEChunk` — run-length encoding for sorted or repetitive
  columns (facts clustered by date key collapse to a few runs per
  chunk);
* :class:`PlainChunk` — a zero-copy view over the raw value list for
  everything else.

Every chunk carries a :class:`ZoneMap` (min/max over non-null values,
null count, distinct-count hint), so selection kernels can discard a
whole chunk with one comparison before doing any per-row work: scan
cost becomes proportional to *relevant* chunks rather than table rows.

Chunk kernels mirror the plain-array kernels of
:mod:`repro.relational.vector` — same arguments, same results, same
NULL semantics — but exploit the encoding: a dictionary selection
probes the (tiny) dictionary once, translates the codes into a one-byte
match mask in C and compresses the selection with it; an RLE selection
(whole chunk or partial) walks only the runs it touches
(:meth:`RLEChunk.runs`, run ends found by bisection) and keeps or drops
each run's slice of the selection whole.  Selection vectors are
**global** row ids and must be ascending, exactly as everywhere else in
the engine.  Kernels return the selection's own int objects and never
build new ones, so every cached selection over a table shares the ints
of its one full scan.

All chunk boundaries are uniform (``chunk i`` covers rows
``[i * size, (i + 1) * size)``), so chunk lists of different columns of
one table stay index-aligned and multi-column operators can walk them
in lockstep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Iterable, Iterator, Sequence

CHUNK_SIZE = 4096
"""Rows per encoded chunk (matches the executor's batch size, so one
chunk is one unit of budget charging, zone-map pruning, and deadline
checking)."""

DICT_MAX_CARD = 256
"""A chunk is dictionary-encoded only up to this distinct-value count
(past it, the dictionary stops paying for itself).  It must stay at most
256: codes are stored one byte per row."""


class ZoneMap:
    """Per-chunk statistics used to skip chunks before reading them."""

    __slots__ = ("lo", "hi", "null_count", "distinct_hint")

    def __init__(self, lo, hi, null_count: int, distinct_hint: int | None):
        self.lo = lo
        self.hi = hi
        self.null_count = null_count
        self.distinct_hint = distinct_hint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ZoneMap(lo={self.lo!r}, hi={self.hi!r}, "
            f"nulls={self.null_count}, distinct={self.distinct_hint})"
        )


def _zone_bounds(non_null: Iterable):
    """(lo, hi) over an iterable of non-null values; (None, None) when the
    values are not mutually comparable (mixed-type object columns)."""
    values = list(non_null)
    if not values:
        return None, None
    try:
        return min(values), max(values)
    except TypeError:
        return None, None


class ColumnChunk:
    """Base class: one encoded span ``[start, stop)`` of a column."""

    __slots__ = ("start", "stop", "zone")

    encoding = "plain"

    def __init__(self, start: int, stop: int, zone: ZoneMap):
        self.start = start
        self.stop = stop
        self.zone = zone

    def __len__(self) -> int:
        return self.stop - self.start

    # -- zone-map skip tests ------------------------------------------
    def may_match_in(self, wanted, keep_null: bool) -> bool:
        """False only when *no* row of this chunk can satisfy an ``IN``
        over ``wanted`` (conservative: True whenever unsure)."""
        zone = self.zone
        if zone.null_count == len(self):
            return keep_null and None in wanted
        if zone.lo is None:
            return True  # bounds unknown: cannot rule anything out
        if keep_null and zone.null_count and None in wanted:
            return True
        lo, hi = zone.lo, zone.hi
        try:
            return any(v is not None and lo <= v <= hi for v in wanted)
        except TypeError:
            return True

    def may_match_range(self, low, high, inclusive_high: bool) -> bool:
        """False only when no row can fall in ``[low, high)`` (or
        ``[low, high]``); NULLs never match a range."""
        zone = self.zone
        if zone.null_count == len(self):
            return False
        if zone.lo is None:
            return True
        try:
            if zone.hi < low:
                return False
            if inclusive_high:
                return not zone.lo > high
            return not zone.lo >= high
        except TypeError:
            return True

    # -- kernels (implemented per encoding) ---------------------------
    def values(self) -> list:
        """The decoded value slice of this chunk."""
        raise NotImplementedError

    def gather(self, row_ids: Sequence[int]) -> list:
        """Values at the given (ascending, in-chunk) global row ids (an
        RLE chunk has none: its callers walk :meth:`RLEChunk.runs`)."""
        raise NotImplementedError

    def select_in(self, wanted, keep_null: bool, row_ids: Sequence[int]) -> list[int]:
        """The ids of ``row_ids`` (the chunk's ascending sub-selection)
        whose value is in ``wanted``, with the NULL semantics of
        :func:`repro.relational.vector.select_in`.  The result holds the
        selection's own int objects, never fresh ones."""
        raise NotImplementedError

    def select_range(
        self, low, high, inclusive_high: bool, row_ids: Sequence[int]
    ) -> list[int]:
        """The ids of ``row_ids`` with ``low <= value < high`` (or
        ``<= high``); NULLs never match."""
        raise NotImplementedError


class PlainChunk(ColumnChunk):
    """A zero-copy view over ``base[start:stop]`` of the raw value list.

    Kernels index ``base`` with *global* row ids directly, so the plain
    encoding adds no indirection over the pre-chunk array kernels.
    """

    __slots__ = ("base",)

    encoding = "plain"

    def __init__(self, base: Sequence, start: int, stop: int, zone: ZoneMap):
        super().__init__(start, stop, zone)
        self.base = base

    def values(self) -> list:
        return list(self.base[self.start : self.stop])

    def gather(self, row_ids: Sequence[int]) -> list:
        base = self.base
        return [base[r] for r in row_ids]

    def select_in(self, wanted, keep_null: bool, row_ids: Sequence[int]) -> list[int]:
        base = self.base
        if keep_null:
            return [r for r in row_ids if base[r] in wanted]
        return [r for r in row_ids if base[r] is not None and base[r] in wanted]

    def select_range(
        self, low, high, inclusive_high: bool, row_ids: Sequence[int]
    ) -> list[int]:
        base = self.base
        if inclusive_high:
            return [
                r for r in row_ids if base[r] is not None and low <= base[r] <= high
            ]
        return [r for r in row_ids if base[r] is not None and low <= base[r] < high]


class DictChunk(ColumnChunk):
    """Dictionary encoding: per-row one-byte codes into a chunk-local
    value dictionary (built in first-seen order; NULL gets its own code
    when present).  A ``bytes`` code string costs one byte per row where
    a list of ints costs eight."""

    __slots__ = ("codes", "dictionary")

    encoding = "dict"

    def __init__(
        self, codes: bytes, dictionary: list, start: int, stop: int, zone: ZoneMap
    ):
        super().__init__(start, stop, zone)
        self.codes = codes
        self.dictionary = dictionary

    def values(self) -> list:
        dictionary = self.dictionary
        return [dictionary[c] for c in self.codes]

    def gather(self, row_ids: Sequence[int]) -> list:
        dictionary, codes, start = self.dictionary, self.codes, self.start
        return [dictionary[codes[r - start]] for r in row_ids]

    def _wanted_codes(self, wanted, keep_null: bool) -> set[int]:
        out = set()
        for code, value in enumerate(self.dictionary):
            if value is None:
                if keep_null and None in wanted:
                    out.add(code)
            elif value in wanted:
                out.add(code)
        return out

    def _select_codes(self, hits: set[int], row_ids: Sequence[int]) -> list[int]:
        if not hits:
            return []
        table = bytearray(256)
        for code in hits:
            table[code] = 1
        mask = self.codes.translate(table)  # one 0/1 byte per row, in C
        if len(row_ids) == len(mask):
            # the whole chunk: the selection aligns with the mask
            return list(compress(row_ids, mask))
        start = self.start
        return [r for r in row_ids if mask[r - start]]

    def select_in(self, wanted, keep_null: bool, row_ids: Sequence[int]) -> list[int]:
        return self._select_codes(self._wanted_codes(wanted, keep_null), row_ids)

    def select_range(
        self, low, high, inclusive_high: bool, row_ids: Sequence[int]
    ) -> list[int]:
        if inclusive_high:
            hits = {
                code
                for code, v in enumerate(self.dictionary)
                if v is not None and low <= v <= high
            }
        else:
            hits = {
                code
                for code, v in enumerate(self.dictionary)
                if v is not None and low <= v < high
            }
        return self._select_codes(hits, row_ids)


class RLEChunk(ColumnChunk):
    """Run-length encoding: ``run_values[i]`` repeats over local rows
    ``[run_ends[i-1], run_ends[i])`` (with an implicit 0 start)."""

    __slots__ = ("run_values", "run_ends")

    encoding = "rle"

    def __init__(
        self,
        run_values: list,
        run_ends: list[int],
        start: int,
        stop: int,
        zone: ZoneMap,
    ):
        super().__init__(start, stop, zone)
        self.run_values = run_values
        self.run_ends = run_ends

    def values(self) -> list:
        out: list = []
        prev = 0
        for value, end in zip(self.run_values, self.run_ends):
            out.extend([value] * (end - prev))
            prev = end
        return out

    def runs(self, row_ids: Sequence[int] | None = None) -> Iterator[tuple]:
        """``(value, rows)`` for each run the ascending in-chunk selection
        ``row_ids`` touches, in row order: ``rows`` is the run's slice of
        the selection, or a ``range`` of global ids when ``row_ids`` is
        None (the whole chunk).  Run ends are found by bisection, so the
        cost grows with the runs touched, not with rows."""
        start, ends, values = self.start, self.run_ends, self.run_values
        if row_ids is None:
            row_ids = range(start, self.stop)
        i, n, idx = 0, len(row_ids), 0
        while i < n:
            idx = bisect_right(ends, row_ids[i] - start, idx)
            j = bisect_left(row_ids, start + ends[idx], i + 1)
            yield values[idx], row_ids[i:j]
            i = j

    def _select_runs(self, match, row_ids: Sequence[int]) -> list[int]:
        out: list[int] = []
        for value, rows in self.runs(row_ids):
            if match(value):
                out.extend(rows)
        return out

    def select_in(self, wanted, keep_null: bool, row_ids: Sequence[int]) -> list[int]:
        if keep_null:
            return self._select_runs(lambda v: v in wanted, row_ids)
        return self._select_runs(lambda v: v is not None and v in wanted, row_ids)

    def select_range(
        self, low, high, inclusive_high: bool, row_ids: Sequence[int]
    ) -> list[int]:
        if inclusive_high:
            return self._select_runs(
                lambda v: v is not None and low <= v <= high, row_ids
            )
        return self._select_runs(lambda v: v is not None and low <= v < high, row_ids)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_chunk(base: Sequence, start: int, stop: int) -> ColumnChunk:
    """Encode one span of a value list, picking the cheapest encoding.

    One analysis pass collects run structure, (capped) distinct values,
    and null counts; RLE wins when the span collapses to few runs, a
    dictionary wins at low cardinality, and everything else stays a
    plain zero-copy view.
    """
    span = base[start:stop]
    n = len(span)
    null_count = 0
    run_values: list = []
    run_ends: list[int] = []
    distinct: dict = {}
    distinct_overflow = False
    sentinel = object()
    prev = sentinel
    for i, value in enumerate(span):
        if value is None:
            null_count += 1
        if prev is sentinel or (value is not prev and value != prev):
            if prev is not sentinel:
                run_ends.append(i)
            run_values.append(value)
            prev = value
        if not distinct_overflow:
            try:
                distinct[value] = None
            except TypeError:
                distinct_overflow = True
            if len(distinct) > DICT_MAX_CARD:
                distinct_overflow = True
    if prev is not sentinel:
        run_ends.append(n)

    if distinct_overflow:
        distinct_hint = None
        non_null = set()
    else:
        non_null = {v for v in distinct if v is not None}
        distinct_hint = len(non_null)
    num_runs = len(run_values)
    if num_runs and num_runs * 4 <= n:
        lo, hi = _zone_bounds(v for v in run_values if v is not None)
        zone = ZoneMap(lo, hi, null_count, distinct_hint)
        return RLEChunk(run_values, run_ends, start, start + n, zone)
    if distinct_overflow:
        lo, hi = _zone_bounds(v for v in span if v is not None)
    else:
        lo, hi = _zone_bounds(non_null)
    zone = ZoneMap(lo, hi, null_count, distinct_hint)
    if not distinct_overflow and len(distinct) * 4 <= n:
        encoding = {value: code for code, value in enumerate(distinct)}
        codes = bytes(map(encoding.__getitem__, span))
        return DictChunk(codes, list(distinct), start, start + n, zone)
    return PlainChunk(base, start, start + n, zone)


def encode_column(base: Sequence, chunk_size: int = CHUNK_SIZE) -> list[ColumnChunk]:
    """Encode a whole column into uniform-boundary chunks."""
    return [
        encode_chunk(base, start, min(start + chunk_size, len(base)))
        for start in range(0, len(base), chunk_size)
    ]
