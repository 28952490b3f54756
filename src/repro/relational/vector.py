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
* **selections** — :func:`select_in`, :func:`select_range`,
  :func:`compress`: build or refine selection vectors (vectorized ``IN``
  via set membership over a whole column, range tests for bucketized
  partitioning, mask compaction for arbitrary predicates).

Grouping is not a kernel here: every aggregate folds into the mergeable
states of :mod:`repro.relational.operators`.

Sorted-set algebra (:func:`intersect_sorted`, :func:`union_sorted`,
:func:`is_subset_sorted`) supports subspace membership checks without
materialising throwaway ``set`` copies of already-sorted row tuples.

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


def select_in(
    values: Sequence,
    wanted,
    row_ids: Iterable[int] | None = None,
    keep_null: bool = False,
) -> list[int]:
    """Selection vector of rows whose value is in ``wanted``.

    The vectorized ``IN``: one set-membership probe per row over the raw
    column, with no expression-tree dispatch.  By default ``None`` never
    matches (even when present in ``wanted``), matching SQL semantics;
    ``keep_null=True`` restores plain set membership, where a ``None``
    in ``wanted`` selects NULL rows (the attribute-filter convention).
    """
    if not isinstance(wanted, (set, frozenset)):
        wanted = set(wanted)
    if keep_null:
        if row_ids is None:
            return [r for r, v in enumerate(values) if v in wanted]
        return [r for r in row_ids if values[r] in wanted]
    if row_ids is None:
        return [r for r, v in enumerate(values) if v is not None and v in wanted]
    return [r for r in row_ids if values[r] is not None and values[r] in wanted]


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
# sorted-set algebra over selection vectors
# ----------------------------------------------------------------------
def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two sorted duplicate-free selections (merge scan)."""
    if len(a) > len(b):
        a, b = b, a
    if len(b) > 8 * max(len(a), 1):
        members = set(b)
        return [r for r in a if r in members]
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def union_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Union of two sorted duplicate-free selections (merge scan)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    if i < len(a):
        out.extend(a[i:])
    if j < len(b):
        out.extend(b[j:])
    return out


def is_subset_sorted(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """True when sorted selection ``inner`` is contained in ``outer``."""
    if len(inner) > len(outer):
        return False
    j = 0
    n = len(outer)
    for x in inner:
        while j < n and outer[j] < x:
            j += 1
        if j >= n or outer[j] != x:
            return False
        j += 1
    return True


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
