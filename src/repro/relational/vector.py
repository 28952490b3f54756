"""Columnar batch kernels: gathers and selections.

This module is the vocabulary of the vectorized execution path.  All
kernels operate on *column vectors* (one Python list per column, as
stored by :class:`~repro.relational.table.Table`) and *selection
vectors* (ordered ``list[int]`` of qualifying row ids).  Instead of one
interpreted :meth:`Expression.evaluate` dispatch per row, operators move
whole batches through these kernels, so the per-row work is a C-level
list comprehension / ``zip`` step rather than a Python method call.

Two kernel families live here:

* **gathers** — :func:`take`: a column's values for a selection vector;
* **selections** — :func:`compress` (mask compaction, the one selection
  of :meth:`~repro.relational.expressions.Predicate.select_batch`) and
  :func:`select_range` (the range test of a numeric facet interval,
  :func:`repro.core.facets.expand_interval`).

Attribute ``IN`` filters are not kernels here: they run on encoded
chunks (:mod:`repro.relational.chunks`).  Grouping is not a kernel here
either: every aggregate folds into the mergeable states of
:mod:`repro.relational.operators`.

This file is written in (and CI-checked against) the ``ruff`` formatter
style; the rest of the tree keeps its original continuation-aligned
style and is lint-checked only.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence


def batches(row_ids: Sequence[int], size: int) -> Iterator[Sequence[int]]:
    """Split a selection vector into successive batches of ``size`` rows
    (order kept)."""
    if not isinstance(row_ids, (list, tuple, range)):
        row_ids = list(row_ids)
    for start in range(0, len(row_ids), size):
        yield row_ids[start : start + size]


# ----------------------------------------------------------------------
# gathers
# ----------------------------------------------------------------------
def take(values: Sequence, row_ids: Iterable[int] | None) -> list:
    """Gather ``values`` at ``row_ids`` (the whole column when None)."""
    if row_ids is None:
        return list(values)
    return [values[r] for r in row_ids]


# ----------------------------------------------------------------------
# selections
# ----------------------------------------------------------------------
def compress(mask: Sequence, row_ids: Sequence[int]) -> list[int]:
    """Row ids whose aligned ``mask`` entry is truthy (mask compaction)."""
    return [r for r, keep in zip(row_ids, mask) if keep]


def select_range(
    values: Sequence,
    low,
    high,
    row_ids: Iterable[int] | None = None,
    inclusive_high: bool = False,
) -> list[int]:
    """Selection vector for ``low <= value < high`` (or ``<= high``)."""
    ids = range(len(values)) if row_ids is None else row_ids
    if inclusive_high:
        return [r for r in ids if values[r] is not None and low <= values[r] <= high]
    return [r for r in ids if values[r] is not None and low <= values[r] < high]


# ----------------------------------------------------------------------
# chunk boundaries
# ----------------------------------------------------------------------
def split_selection(
    row_ids: Sequence[int], chunk_size: int
) -> Iterator[tuple[int, Sequence[int]]]:
    """Split an ascending selection vector at uniform chunk boundaries.

    Yields ``(chunk_index, sub_selection)`` pairs in chunk order; only
    chunks actually hit by the selection appear, so downstream kernels
    touch no chunk without at least one candidate row.
    """
    i, n = 0, len(row_ids)
    while i < n:
        index = row_ids[i] // chunk_size
        j = bisect_left(row_ids, (index + 1) * chunk_size, i)
        yield index, row_ids[i:j]
        i = j
