"""Relational operators over columnar tables.

Operators work on *sets of row ids* rather than materialised intermediate
tables.  That is precisely the shape KDAP needs — a subspace is a set of
fact rows.

Execution is columnar: every grouping of the plan layer's one aggregate
node — a 1-key partition, a 2-key pivot's cells and the 0-key G(DS′)
alike — folds into the mergeable states of :data:`AGGREGATE_STATES`
(grouped over encoded chunks by :func:`chunked_group_states`, key
tuples by :meth:`AggregateStates.add_pairs`, one group by
:func:`fold_rows`), so one fold rule decides every aggregate and no
operator dispatches per row.
"""

from __future__ import annotations

from functools import reduce
from operator import add, countOf
from typing import Callable, Iterable, Sequence

from . import vector
from .chunks import ColumnChunk, DictChunk, RLEChunk


# ----------------------------------------------------------------------
# mergeable aggregate states over encoded chunks
# ----------------------------------------------------------------------
class AggregateStates:
    """Mergeable partial states for one aggregate function.

    Each group's state is a small mutable list, so partial states (a
    materialized view and its append delta, or finer views rolled up)
    merge afterwards.  One fold rule: every accumulation loop adds
    measure values into the group's state one by one *in ascending row
    order* (an RLE run is folded in one C-level pass that starts from
    the state), so a group's aggregate never depends on which other
    rows are selected, on the encoding, or on the Python version, and a
    scan and a materialized view agree bit for bit.  Only :meth:`merge`
    re-associates additions.

    Group-existence semantics match a row-by-row grouping + fold
    exactly: a group exists whenever its (non-NULL) key occurs in the
    selection, and NULL measures are ignored inside the group.
    """

    name: str = ""

    def new(self) -> list:
        raise NotImplementedError

    def add_pairs(self, states: dict, keys: Sequence,
                  rows: Sequence[int], measure: Sequence) -> None:
        """Accumulate (key, measure[row]) pairs (the generic loop)."""
        raise NotImplementedError

    def add_dict(self, states: dict, chunk: DictChunk,
                 measure: Sequence) -> None:
        """Accumulate one full dictionary chunk: per-code state slots
        replace per-row hashing."""
        raise NotImplementedError

    def add_rle(self, states: dict, runs: Iterable[tuple],
                measure: Sequence) -> None:
        """Accumulate the ``(value, rows)`` runs of an RLE chunk
        (:meth:`RLEChunk.runs`): one state lookup per run."""
        raise NotImplementedError

    def merge(self, into: list, other: list) -> None:
        raise NotImplementedError

    def final(self, state: list):
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------
    def _dict_slots(self, states: dict, chunk: DictChunk) -> list:
        """Code-indexed state slots (None for the NULL code), creating
        missing groups in the dictionary's first-seen order."""
        get = states.get
        slots: list = []
        for value in chunk.dictionary:
            if value is None:
                slots.append(None)
                continue
            state = get(value)
            if state is None:
                state = states[value] = self.new()
            slots.append(state)
        return slots


class _SumStates(AggregateStates):
    name = "sum"

    def new(self) -> list:
        return [0]

    def add_pairs(self, states, keys, rows, measure) -> None:
        get = states.get
        for value, r in zip(keys, rows):
            if value is None:
                continue
            state = get(value)
            if state is None:
                state = states[value] = [0]
            m = measure[r]
            if m is not None:
                state[0] += m

    def add_dict(self, states, chunk, measure) -> None:
        slots = self._dict_slots(states, chunk)
        for state, m in zip(map(slots.__getitem__, chunk.codes),
                            measure[chunk.start:chunk.stop]):
            if state is not None and m is not None:
                state[0] += m

    def add_rle(self, states, runs, measure) -> None:
        get = states.get
        for value, rows in runs:
            if value is not None:
                state = get(value)
                if state is None:
                    state = states[value] = [0]
                state[0] = _fold(state[0], measure, rows)[0]

    def merge(self, into, other) -> None:
        into[0] += other[0]

    def final(self, state):
        return state[0]


class _CountStates(AggregateStates):
    name = "count"

    def new(self) -> list:
        return [0]

    def add_pairs(self, states, keys, rows, measure) -> None:
        get = states.get
        for value, r in zip(keys, rows):
            if value is None:
                continue
            state = get(value)
            if state is None:
                state = states[value] = [0]
            if measure[r] is not None:
                state[0] += 1

    def add_dict(self, states, chunk, measure) -> None:
        slots = self._dict_slots(states, chunk)
        for state, m in zip(map(slots.__getitem__, chunk.codes),
                            measure[chunk.start:chunk.stop]):
            if state is not None and m is not None:
                state[0] += 1

    def add_rle(self, states, runs, measure) -> None:
        get = states.get
        for value, rows in runs:
            if value is not None:
                state = get(value)
                if state is None:
                    state = states[value] = [0]
                state[0] += len(rows) - countOf(
                    _run_measures(measure, rows), None)

    def merge(self, into, other) -> None:
        into[0] += other[0]

    def final(self, state):
        return state[0]


class _AvgStates(AggregateStates):
    name = "avg"

    def new(self) -> list:
        return [0.0, 0]

    def add_pairs(self, states, keys, rows, measure) -> None:
        get = states.get
        for value, r in zip(keys, rows):
            if value is None:
                continue
            state = get(value)
            if state is None:
                state = states[value] = [0.0, 0]
            m = measure[r]
            if m is not None:
                state[0] += m
                state[1] += 1

    def add_dict(self, states, chunk, measure) -> None:
        slots = self._dict_slots(states, chunk)
        for state, m in zip(map(slots.__getitem__, chunk.codes),
                            measure[chunk.start:chunk.stop]):
            if state is not None and m is not None:
                state[0] += m
                state[1] += 1

    def add_rle(self, states, runs, measure) -> None:
        get = states.get
        for value, rows in runs:
            if value is not None:
                state = get(value)
                if state is None:
                    state = states[value] = [0.0, 0]
                state[0], count = _fold(state[0], measure, rows)
                state[1] += count

    def merge(self, into, other) -> None:
        into[0] += other[0]
        into[1] += other[1]

    def final(self, state):
        if not state[1]:
            return None
        return state[0] / state[1]


class _MinStates(AggregateStates):
    name = "min"

    def new(self) -> list:
        return [None]

    def add_pairs(self, states, keys, rows, measure) -> None:
        get = states.get
        for value, r in zip(keys, rows):
            if value is None:
                continue
            state = get(value)
            if state is None:
                state = states[value] = [None]
            m = measure[r]
            if m is not None and (state[0] is None or m < state[0]):
                state[0] = m

    def add_dict(self, states, chunk, measure) -> None:
        slots = self._dict_slots(states, chunk)
        for state, m in zip(map(slots.__getitem__, chunk.codes),
                            measure[chunk.start:chunk.stop]):
            if (state is not None and m is not None
                    and (state[0] is None or m < state[0])):
                state[0] = m

    def add_rle(self, states, runs, measure) -> None:
        get = states.get
        for value, rows in runs:
            if value is not None:
                state = get(value)
                if state is None:
                    state = states[value] = [None]
                try:
                    low = min(_run_measures(measure, rows))
                except TypeError:   # a None in the run: filter first
                    low = min((m for m in _run_measures(measure, rows)
                               if m is not None), default=None)
                if low is not None and (state[0] is None
                                        or low < state[0]):
                    state[0] = low

    def merge(self, into, other) -> None:
        if other[0] is not None and (into[0] is None
                                     or other[0] < into[0]):
            into[0] = other[0]

    def final(self, state):
        return state[0]


class _MaxStates(AggregateStates):
    name = "max"

    def new(self) -> list:
        return [None]

    def add_pairs(self, states, keys, rows, measure) -> None:
        get = states.get
        for value, r in zip(keys, rows):
            if value is None:
                continue
            state = get(value)
            if state is None:
                state = states[value] = [None]
            m = measure[r]
            if m is not None and (state[0] is None or m > state[0]):
                state[0] = m

    def add_dict(self, states, chunk, measure) -> None:
        slots = self._dict_slots(states, chunk)
        for state, m in zip(map(slots.__getitem__, chunk.codes),
                            measure[chunk.start:chunk.stop]):
            if (state is not None and m is not None
                    and (state[0] is None or m > state[0])):
                state[0] = m

    def add_rle(self, states, runs, measure) -> None:
        get = states.get
        for value, rows in runs:
            if value is not None:
                state = get(value)
                if state is None:
                    state = states[value] = [None]
                try:
                    high = max(_run_measures(measure, rows))
                except TypeError:   # a None in the run: filter first
                    high = max((m for m in _run_measures(measure, rows)
                                if m is not None), default=None)
                if high is not None and (state[0] is None
                                         or high > state[0]):
                    state[0] = high

    def merge(self, into, other) -> None:
        if other[0] is not None and (into[0] is None
                                     or other[0] > into[0]):
            into[0] = other[0]

    def final(self, state):
        return state[0]


def _run_measures(measure: Sequence, rows: Sequence[int]) -> Iterable:
    """The measures at one run's ``rows`` in row order: a slice for a
    whole-chunk ``range``, else a lazy C-level gather."""
    if type(rows) is range:
        return measure[rows.start:rows.stop]
    return map(measure.__getitem__, rows)


def _fold(start, measure: Sequence, rows: Sequence[int]) -> tuple:
    """``(start + m + m + ..., n)`` over the ``n`` non-NULL measures at
    ``rows``, added one by one in row order in one C-level pass: a run
    joins its group's state exactly as the per-row loop would add it."""
    try:
        return reduce(add, _run_measures(measure, rows), start), len(rows)
    except TypeError:   # a None in the run: per-row guard
        values = [m for m in _run_measures(measure, rows) if m is not None]
        return reduce(add, values, start), len(values)


AGGREGATE_STATES: dict[str, AggregateStates] = {
    acc.name: acc for acc in (_SumStates(), _CountStates(), _AvgStates(),
                              _MinStates(), _MaxStates())
}
"""Mergeable-state accumulators addressable by aggregate name (the
measures' ``aggregate`` and the SQL compiler's function names)."""


def fold_rows(aggregate: str, measure: Sequence,
              rows: Sequence[int]):
    """The aggregate of ``measure`` at ``rows`` (ascending) folded as
    one group: the value a keyed partition gives a group holding exactly
    these rows, or the empty-input value (0 for sum/count, None for
    avg/min/max) when ``rows`` is empty."""
    acc = AGGREGATE_STATES[aggregate]
    if not rows:
        return acc.final(acc.new())
    states: dict = {}
    acc.add_rle(states, (((), rows),), measure)
    return acc.final(states[()])


def accumulate_chunk(acc: AggregateStates, states: dict,
                     chunk: ColumnChunk, measure: Sequence,
                     row_ids: Sequence[int] | None) -> None:
    """Accumulate one key chunk into ``states`` (``row_ids=None`` means
    the whole chunk), dispatching to the encoding's fast loop."""
    if isinstance(chunk, RLEChunk):
        acc.add_rle(states, chunk.runs(row_ids), measure)
    elif row_ids is None:
        if isinstance(chunk, DictChunk):
            acc.add_dict(states, chunk, measure)
        else:
            acc.add_pairs(states, chunk.values(),
                          range(chunk.start, chunk.stop), measure)
    else:
        acc.add_pairs(states, chunk.gather(row_ids), row_ids, measure)


def chunked_group_states(
    key_chunk_lists: Sequence[Sequence[ColumnChunk]],
    measure: Sequence,
    aggregate: str,
    row_ids: Sequence[int] | None = None,
    on_chunk: Callable[[int], None] | None = None,
) -> list[dict]:
    """Fused group-aggregate states for N key columns over one shared
    selection, walking index-aligned encoded chunks in a single pass.

    The one grouped-aggregate kernel: instead of materialising per-group
    row-id lists and folding them, every chunk accumulates directly into
    fresh per-key ``value → state`` dicts.  ``row_ids`` must be ascending
    (None means every row); a chunk the selection covers whole takes the
    encoding's fast loop.  ``on_chunk`` receives each chunk's
    candidate-row count before it is processed — the caller's deadline
    hook.
    """
    acc = AGGREGATE_STATES[aggregate]
    states: list[dict] = [{} for _ in key_chunk_lists]
    first = key_chunk_lists[0]
    if row_ids is not None and first and len(row_ids) == first[-1].stop:
        row_ids = None      # ascending and complete: skip the split
    if row_ids is None:
        for index, chunk in enumerate(first):
            if on_chunk is not None:
                on_chunk(len(chunk))
            for chunks, target in zip(key_chunk_lists, states):
                accumulate_chunk(acc, target, chunks[index], measure, None)
    else:
        size = first[0].stop if first else 0
        for index, sub in vector.split_selection(row_ids, size):
            if on_chunk is not None:
                on_chunk(len(sub))
            full = len(sub) == len(first[index])
            for chunks, target in zip(key_chunk_lists, states):
                accumulate_chunk(acc, target, chunks[index], measure,
                                 None if full else sub)
    return states


def merge_group_states(aggregate: str, into: dict, other: dict) -> None:
    """Merge one partial ``value → state`` dict into another (insertion
    order of ``into`` is preserved, new keys append in ``other``'s
    order)."""
    acc = AGGREGATE_STATES[aggregate]
    merge = acc.merge
    get = into.get
    for value, state in other.items():
        known = get(value)
        if known is None:
            into[value] = state
        else:
            merge(known, state)


def finalize_group_states(aggregate: str, states: dict) -> dict:
    """Turn a state dict into the ``value → aggregate`` result."""
    final = AGGREGATE_STATES[aggregate].final
    return {value: final(state) for value, state in states.items()}
