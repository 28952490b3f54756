"""Encoded column chunks: roundtrip, encoding choice, kernel parity.

Randomized (hypothesis) checks that the chunk layer is a pure storage
change: the memory backend's chunked ``Filter`` — ``IN`` / ``BETWEEN``
predicates and attribute value sets — and the fused aggregate states
must return exactly what a scalar reference loop over the plain values
returns, for full scans and for arbitrary ascending sub-selections, and
zone maps may only ever *skip* chunks that provably contain no match.
Aggregates are compared exactly: every kernel adds a group's measures
left to right in ascending row order, as the reference does.  Forced-
encoding cases pin each encoding against the selection shapes random
examples seldom reach (a whole chunk, mid-run cuts, NULL-keyed runs).
"""

from functools import partial, reduce
from itertools import groupby
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.plan.backends import InMemoryBackend
from repro.plan.nodes import AttrKey, Filter, RowSet, Scan
from repro.relational import (
    Between,
    Col,
    Database,
    In,
    Table,
    integer,
    text,
    vector,
)
from repro.relational.chunks import (
    DictChunk,
    PlainChunk,
    RLEChunk,
    ZoneMap,
    encode_column,
)
from repro.relational.operators import (
    AGGREGATE_STATES,
    accumulate_chunk,
    chunked_group_states,
    finalize_group_states,
    merge_group_states,
)
from repro.warehouse.graph import EMPTY_PATH
from repro.warehouse.schema import StarSchema

from ..warehouse.subspace_oracle import group_rows

SIZE = 16
"""Tiny chunks so a couple hundred values exercise many boundaries."""

mixed_values = st.lists(
    st.one_of(st.none(), st.integers(-5, 5),
              st.sampled_from(["red", "green", "blue"])),
    max_size=120)
typed_values = st.one_of(
    st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=120)
    .map(lambda values: (integer, values)),
    st.lists(st.one_of(st.none(),
                       st.sampled_from(["red", "green", "blue"])),
             max_size=120)
    .map(lambda values: (text, values)))
"""A typed table column holds one type, so each example draws either an
integer or a text column (both with NULLs)."""
numeric_values = st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                          max_size=120)
measures = st.one_of(st.none(), st.integers(-20, 20),
                     st.floats(-100.0, 100.0, allow_nan=False))


def subset_of(data, n: int) -> list[int]:
    """An ascending selection over ``range(n)`` drawn from ``data``."""
    if n == 0:
        return []
    return sorted(data.draw(
        st.sets(st.integers(0, n - 1), max_size=n), label="subset"))


def run_filter(column, cells, rows=None, **filter_args):
    """Rows a ``Filter(**filter_args)`` plan keeps on the memory backend
    over a one-column fact table ``F.V`` holding ``cells`` in ``SIZE``-row
    chunks,
    plus that Filter's ``(chunks_scanned, chunks_skipped)``.

    Both chunk stores are shrunk to ``SIZE``: the table's own columns (a
    ``predicate=`` Filter) and the schema's fact-aligned attribute
    vectors (an ``attr=`` + ``values=`` Filter)."""
    database = Database("chunks")
    table = Table("F", [column("V")])
    table.load_columns({"V": cells})
    database.add_table(table)
    backend = InMemoryBackend(StarSchema(database, "F", (), (), {}))
    source = Scan("F") if rows is None else RowSet("F", tuple(rows))
    small = partial(encode_column, chunk_size=SIZE)
    with mock.patch("repro.relational.table.encode_column", small), \
            mock.patch("repro.warehouse.schema.encode_column", small):
        kept = backend.materialize(Filter(source, **filter_args))
    stats = backend.counters.as_dict().get("Filter", {})
    return (list(kept), stats.get("chunks_scanned", 0),
            stats.get("chunks_skipped", 0))


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------
class TestEncoding:
    @given(values=mixed_values)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_uniform_boundaries(self, values):
        chunks = encode_column(values, SIZE)
        decoded = []
        for index, chunk in enumerate(chunks):
            assert chunk.start == index * SIZE
            assert chunk.stop == min((index + 1) * SIZE, len(values))
            decoded.extend(chunk.values())
        assert decoded == values

    def test_empty_column(self):
        assert encode_column([], SIZE) == []

    def test_sorted_repetitive_column_is_rle(self):
        values = sorted([v // 40 for v in range(400)])
        chunks = encode_column(values, 100)
        assert all(isinstance(c, RLEChunk) for c in chunks)

    def test_low_cardinality_unsorted_column_is_dict(self):
        values = [("x", "y", "z")[i * 7 % 3] for i in range(300)]
        chunks = encode_column(values, 100)
        assert all(isinstance(c, DictChunk) for c in chunks)

    def test_high_cardinality_column_stays_plain(self):
        values = [(i * 131) % 997 for i in range(300)]
        chunks = encode_column(values, 100)
        assert all(isinstance(c, PlainChunk) for c in chunks)

    @given(values=mixed_values)
    @settings(max_examples=60, deadline=None)
    def test_zone_maps_count_nulls(self, values):
        for chunk in encode_column(values, SIZE):
            segment = values[chunk.start:chunk.stop]
            assert chunk.zone.null_count == segment.count(None)


# ----------------------------------------------------------------------
# chunked Filter on the memory backend
# ----------------------------------------------------------------------
class TestSelectionParity:
    @given(column=typed_values, data=st.data(),
           keep_null=st.booleans(), use_subset=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_select_in_matches_scalar_reference(self, column, data,
                                                keep_null, use_subset):
        kind, values = column
        wanted = set(data.draw(
            st.lists(st.one_of(st.none(), st.integers(-5, 5),
                               st.sampled_from(["red", "green", "gold"])),
                     max_size=4), label="wanted"))
        rows = (subset_of(data, len(values)) if use_subset
                else list(range(len(values))))
        source_rows = rows if use_subset else None
        # keep_null=True is the attribute Filter (slice / dice): plain set
        # membership, so None in wanted selects NULL rows; keep_null=False
        # is the predicate Filter's SQL IN, where NULL never matches
        if keep_null:
            out, scanned, skipped = run_filter(
                kind, values, source_rows,
                attr=AttrKey("F", "V", EMPTY_PATH), values=tuple(wanted))
            expected = [r for r in rows if values[r] in wanted]
        else:
            out, scanned, skipped = run_filter(
                kind, values, source_rows,
                predicate=In.of(Col("V"), wanted))
            expected = [r for r in rows
                        if values[r] is not None and values[r] in wanted]
        assert out == expected
        assert out == vector.select_in(values, wanted, rows, keep_null)
        assert scanned + skipped <= len(encode_column(values, SIZE))

    def test_keep_null_in_every_encoding(self):
        # random examples seldom fill a 16-row chunk with few enough
        # values to dictionary- or run-length-encode it, so pin one chunk
        # of each encoding, each holding NULLs, under the attribute Filter
        values = ([None] * 8 + [1] * 8            # rle
                  + [None, 1, 2, 1] * 4           # dict
                  + [None] + list(range(2, 17)))  # plain
        assert [chunk.encoding for chunk in encode_column(values, SIZE)] \
            == ["rle", "dict", "plain"]
        for rows in (None, list(range(0, len(values), 3))):
            for wanted in ({None, 1}, {None}, {1, 5}):
                out, _, _ = run_filter(
                    integer, values, rows,
                    attr=AttrKey("F", "V", EMPTY_PATH), values=tuple(wanted))
                assert out == [r for r in (rows or range(len(values)))
                               if values[r] in wanted]

    @given(values=numeric_values, data=st.data(),
           low=st.integers(-60, 60), span=st.integers(0, 40),
           inclusive=st.booleans(), use_subset=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_select_range_matches_scalar_reference(
            self, values, data, low, span, inclusive, use_subset):
        high = low + span
        rows = (subset_of(data, len(values)) if use_subset
                else list(range(len(values))))
        out, scanned, skipped = run_filter(
            integer, values, rows if use_subset else None,
            predicate=Between(Col("V"), low, high, inclusive))

        def match(v):
            if v is None:
                return False
            return low <= v <= high if inclusive else low <= v < high

        assert out == [r for r in rows if match(values[r])]
        assert scanned + skipped <= len(encode_column(values, SIZE))

    def test_zone_maps_skip_clustered_range(self):
        values = sorted(v // 10 for v in range(400))
        out, scanned, skipped = run_filter(
            integer, values, predicate=Between(Col("V"), 3, 5))
        assert out == [r for r in range(400) if 3 <= values[r] < 5]
        assert skipped > 0
        assert out    # the window is non-empty, so skipping lost nothing
        # the attribute Filter's value set skips by the same zone maps
        assert run_filter(integer, values,
                          attr=AttrKey("F", "V", EMPTY_PATH),
                          values=(3, 4)) == (out, scanned, skipped)


class TestSharedRowIds:
    def test_filter_returns_the_scan_lists_ints(self):
        # a kept row id is the very int object of the backend's cached
        # full scan, in every encoding: cached selections then cost one
        # pointer per row, not one int each (ids past 256 are not interned)
        size = 512
        values = ([i // 128 for i in range(size)]                  # rle
                  + [10 + (i * 7) % 5 for i in range(size)]        # dict
                  + [1000 + i for i in range(size)])               # plain
        database = Database("shared")
        table = Table("F", [integer("V")])
        table.load_columns({"V": values})
        database.add_table(table)
        schema = StarSchema(database, "F", (), (), {})
        backend = InMemoryBackend(schema)
        small = partial(encode_column, chunk_size=size)
        wanted = (1, 3, 12, 14, 1100, 1400)
        with mock.patch("repro.relational.table.encode_column", small), \
                mock.patch("repro.warehouse.schema.encode_column", small):
            assert [c.encoding for c in schema.fact_chunks(EMPTY_PATH, "V")] \
                == ["rle", "dict", "plain"]
            for plan in (
                    Filter(Scan("F"), attr=AttrKey("F", "V", EMPTY_PATH),
                           values=wanted),
                    Filter(Scan("F"), predicate=In.of(Col("V"), wanted))):
                kept = backend.materialize(plan)
                scan = backend._scan_rows["F"][1]
                assert list(kept) == [r for r in range(len(values))
                                      if values[r] in wanted]
                assert {r // size for r in kept} == {0, 1, 2}
                assert all(r is scan[r] for r in kept)


# ----------------------------------------------------------------------
# grouping and aggregate states
# ----------------------------------------------------------------------
class TestGroupingParity:
    @given(values=mixed_values, data=st.data(), use_subset=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_group_states_match_group_rows(self, values, data,
                                           use_subset):
        # the grouped kernel creates exactly group_rows' groups, in the
        # same first-seen order, each counting its rows
        rows = (subset_of(data, len(values)) if use_subset
                else list(range(len(values))))
        chunks = encode_column(values, SIZE)
        (states,) = chunked_group_states(
            [chunks], [1] * len(values), "count",
            rows if use_subset else None)
        groups = group_rows(values, rows)
        assert list(states) == list(groups)
        assert finalize_group_states("count", states) == {
            value: len(ids) for value, ids in groups.items()}

    @given(keys=mixed_values, data=st.data(),
           aggregate=st.sampled_from(["sum", "count", "avg", "min",
                                      "max"]),
           use_subset=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_states_match_scalar_reference(self, keys, data, aggregate,
                                           use_subset):
        measure = data.draw(
            st.lists(measures, min_size=len(keys), max_size=len(keys)),
            label="measure")
        rows = (subset_of(data, len(keys)) if use_subset
                else list(range(len(keys))))
        chunks = encode_column(keys, SIZE)
        states = chunked_group_states(
            [chunks], measure, aggregate,
            rows if use_subset else None)
        result = finalize_group_states(aggregate, states[0])
        # exact: the kernels and the reference add in the same order
        assert result == self.reference(keys, measure, rows, aggregate)

    @given(keys=mixed_values, data=st.data(),
           aggregate=st.sampled_from(["sum", "count", "avg", "min",
                                      "max"]))
    @settings(max_examples=60, deadline=None)
    def test_split_accumulate_then_merge_matches_serial(self, keys, data,
                                                        aggregate):
        measure = data.draw(
            st.lists(measures, min_size=len(keys), max_size=len(keys)),
            label="measure")
        chunks = encode_column(keys, SIZE)
        cut = data.draw(st.integers(0, len(keys)), label="cut")
        first, second = list(range(cut)), list(range(cut, len(keys)))
        partials = [
            chunked_group_states([chunks], measure, aggregate, part)[0]
            for part in (first, second) if part
        ]
        merged: dict = {}
        for partial in partials:
            merge_group_states(aggregate, merged, partial)
        result = finalize_group_states(aggregate, merged)
        # approximate: merging partial states re-associates additions
        assert result == pytest.approx(self.reference(
            keys, measure, list(range(len(keys))), aggregate))

    @staticmethod
    def reference(keys, measure, rows, aggregate):
        """Each group folded left to right in ascending row order (no
        ``sum()``: it re-associates on Python 3.12)."""
        groups: dict = {}
        for r in rows:
            if keys[r] is not None:
                groups.setdefault(keys[r], []).append(measure[r])
        folds = {
            "sum": lambda ms: reduce(add, ms, 0),
            "count": lambda ms: len(ms),
            "avg": lambda ms: reduce(add, ms, 0.0) / len(ms) if ms else None,
            "min": lambda ms: min(ms) if ms else None,
            "max": lambda ms: max(ms) if ms else None,
        }
        fold = folds[aggregate]
        return {value: fold([m for m in ms if m is not None])
                for value, ms in groups.items()}


class TestFoldOrder:
    def test_rle_group_sum_ignores_other_groups_rows(self):
        # one RLE chunk of four runs; dropping the last row (a 'b' row)
        # must not move group 'a' by a single bit
        keys = ["a"] * 8 + ["b"] * 8 + ["a"] * 8 + ["b"] * 8
        measure = [0.1] * 8 + [0.7] * 8 + [0.3] * 8 + [0.7] * 8
        chunks = encode_column(keys, chunk_size=32)
        assert [chunk.encoding for chunk in chunks] == ["rle"]
        for aggregate in ("sum", "avg"):
            whole, cut = (
                finalize_group_states(aggregate, chunked_group_states(
                    [chunks], measure, aggregate, rows)[0])["a"]
                for rows in (None, list(range(31))))
            assert whole == cut

    def test_rle_run_adds_in_row_order(self):
        # sum() of forty 0.1s is 4.0 on Python 3.12 (compensated) but
        # 4.000000000000002 added one by one; a run must give the latter
        chunks = encode_column(["a"] * 40, chunk_size=40)
        assert [chunk.encoding for chunk in chunks] == ["rle"]
        (states,) = chunked_group_states([chunks], [0.1] * 40, "sum")
        assert finalize_group_states("sum", states) == {
            "a": reduce(add, [0.1] * 40, 0)}


# ----------------------------------------------------------------------
# forced encodings
# ----------------------------------------------------------------------
OFFSET = 64 * SIZE
"""Forced chunks start here, so every row id is past the small-int
cache and ``is`` tells the selection's own ints from fresh ones."""

FORCED_KEYS = [v for v in (1, None, 2, 3, 3, 1, None, 2, 2, 5, 1, None)
               for _ in range(4)]
"""Three chunks of four-row runs: NULL-keyed runs, a run of 3s that
crosses the first chunk boundary, and repeated values."""

FORCED_MEASURE = [None if i % 7 == 3 else (0.1, 0.7, 0.3, 1.9)[i % 4]
                  for i in range(len(FORCED_KEYS))]
"""Float measures with a NULL inside several runs."""

FORCED_SELECTIONS = {
    "empty": [],
    "one row": [5],
    "whole chunk": list(range(SIZE, 2 * SIZE)),
    "whole column": list(range(len(FORCED_KEYS))),
    "crosses a boundary": list(range(SIZE - 3, SIZE + 4)),
    "mid-run to mid-run": list(range(2, 11)),
    "sparse": list(range(1, len(FORCED_KEYS), 3)),
}
"""Local positions; the tests shift them by ``OFFSET``."""


def forced_chunks(values: list, encoding: str) -> list:
    """``SIZE``-row chunks of ``values`` (placed at ``OFFSET``) all in
    one ``encoding``, whatever :func:`encode_chunk` would pick."""
    base = [None] * OFFSET + values
    chunks = []
    for start in range(OFFSET, len(base), SIZE):
        stop = min(start + SIZE, len(base))
        span = base[start:stop]
        zone = ZoneMap(None, None, span.count(None), None)
        if encoding == "plain":
            chunks.append(PlainChunk(base, start, stop, zone))
        elif encoding == "dict":
            dictionary = list(dict.fromkeys(span))
            codes = bytes(map(dictionary.index, span))
            chunks.append(DictChunk(codes, dictionary, start, stop, zone))
        else:
            run_values, run_ends = [], []
            for value, run in groupby(span):
                run_values.append(value)
                run_ends.append((run_ends[-1] if run_ends else 0)
                                + len(list(run)))
            chunks.append(RLEChunk(run_values, run_ends, start, stop, zone))
    return chunks


def walk(chunks: list, rows: list):
    """``(chunk, sub)`` for each chunk the ascending selection hits."""
    for chunk in chunks:
        sub = [r for r in rows if chunk.start <= r < chunk.stop]
        if sub:
            yield chunk, sub


ENCODINGS = ("dict", "rle", "plain")


class TestForcedEncodings:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("selection", FORCED_SELECTIONS)
    def test_selections_return_reference_rows(self, encoding, selection):
        chunks = forced_chunks(FORCED_KEYS, encoding)
        assert {chunk.encoding for chunk in chunks} == {encoding}
        rows = [OFFSET + i for i in FORCED_SELECTIONS[selection]]
        own = {id(r) for r in rows}
        value = {r: FORCED_KEYS[r - OFFSET] for r in rows}

        def check(select, match):
            out = [r for chunk, sub in walk(chunks, rows)
                   for r in select(chunk, sub)]
            assert out == [r for r in rows if match(value[r])]
            assert all(id(r) in own for r in out)

        for wanted in ({1}, {None, 3}, {None}, {2, 5, 7}, set()):
            for keep_null in (True, False):
                check(lambda c, sub: c.select_in(wanted, keep_null, sub),
                      lambda v: v in wanted
                      and (keep_null or v is not None))
        for low, high in ((1, 3), (2, 2), (3, 9)):
            for inclusive in (True, False):
                check(lambda c, sub: c.select_range(low, high, inclusive,
                                                    sub),
                      lambda v: v is not None and (
                          low <= v <= high if inclusive
                          else low <= v < high))

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("selection", FORCED_SELECTIONS)
    @pytest.mark.parametrize("aggregate", sorted(AGGREGATE_STATES))
    def test_states_match_reference_exactly(self, encoding, selection,
                                            aggregate):
        keys = [None] * OFFSET + FORCED_KEYS
        measure = [None] * OFFSET + FORCED_MEASURE
        rows = [OFFSET + i for i in FORCED_SELECTIONS[selection]]
        acc, states = AGGREGATE_STATES[aggregate], {}
        for chunk, sub in walk(forced_chunks(FORCED_KEYS, encoding), rows):
            # a chunk the selection covers whole takes the fast loop
            accumulate_chunk(acc, states, chunk, measure,
                             None if len(sub) == len(chunk) else sub)
        result = finalize_group_states(aggregate, states)
        expected = TestGroupingParity.reference(keys, measure, rows,
                                                aggregate)
        assert result == expected
        assert list(result) == list(expected)   # first-seen group order
