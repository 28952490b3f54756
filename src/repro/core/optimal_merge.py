"""Alternative interval-merge algorithms (the paper's §7 extension).

"Our simulated annealing solution for merging numerical intervals has
been shown to be effective, but we hypothesize the existence of more
efficient algorithms for finding partitions."  This module supplies
:func:`exhaustive_splits`: the exact optimum by enumerating every valid
splitting (with skew-constraint pruning).  Feasible for the basic
interval counts the system actually produces (m ≲ 25, K ≲ 7); it is the
gold standard the ablation benchmark measures annealing against, and it
returns the same :class:`~repro.core.annealing.AnnealingResult` shape.
"""

from __future__ import annotations

from typing import Sequence

from .annealing import AnnealingResult, merged_correlation
from .interestingness import pearson_correlation


def _result(x: Sequence[float], y: Sequence[float], splits: tuple[int, ...],
            basic: float, evaluations: int) -> AnnealingResult:
    merged = merged_correlation(x, y, splits)
    return AnnealingResult(
        splits=splits,
        merged_correlation=merged,
        basic_correlation=basic,
        error_history=[abs(merged - basic)] * max(evaluations, 1),
    )


def exhaustive_splits(
    x: Sequence[float],
    y: Sequence[float],
    num_intervals: int,
    skew_limit: float = 4.0,
    max_states: int = 2_000_000,
) -> AnnealingResult:
    """The exact optimal splitting under the L-skew constraint.

    Enumerates split positions recursively, carrying the longest and
    shortest finished segment down the recursion and pruning a prefix as
    soon as ``longest > skew_limit * shortest`` (exact: the final max can
    only grow and the final min only shrink).  Raises :class:`ValueError`
    when the search visits more than ``max_states`` states (anneal
    instead: :func:`~repro.core.annealing.anneal_splits`).
    """
    m = len(x)
    if m != len(y):
        raise ValueError(f"series length mismatch: {m} vs {len(y)}")
    k = num_intervals
    if k < 1 or k > m:
        raise ValueError(f"cannot split {m} basic intervals into {k}")
    basic = pearson_correlation(x, y)
    if k == 1:
        return _result(x, y, (), basic, 1)

    best_splits: tuple[int, ...] | None = None
    best_error = float("inf")
    evaluations = 0
    states = 0
    current: list[int] = []

    def recurse(position: int, segments_left: int, longest: int,
                shortest: float) -> None:
        nonlocal best_splits, best_error, evaluations, states
        states += 1
        if states > max_states:
            raise ValueError(
                f"exhaustive search exceeds {max_states} states; "
                "use anneal_splits for this size"
            )
        if segments_left == 1:
            last = m - position
            if max(longest, last) > skew_limit * min(shortest, last):
                return
            splits = tuple(current)
            evaluations += 1
            error = abs(merged_correlation(x, y, splits) - basic)
            if error < best_error:
                best_error = error
                best_splits = splits
            return
        # the remaining segments each need at least one basic interval
        for split in range(position + 1, m - segments_left + 2):
            length = split - position
            wide, narrow = max(longest, length), min(shortest, length)
            if wide > skew_limit * narrow:
                continue
            current.append(split)
            recurse(split, segments_left - 1, wide, narrow)
            current.pop()

    recurse(0, k, 0, float("inf"))
    if best_splits is None:
        raise ValueError(
            f"no valid splitting of {m} intervals into {k} segments "
            f"with skew limit {skew_limit}"
        )
    return _result(x, y, best_splits, basic, evaluations)
