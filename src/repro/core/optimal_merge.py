"""Alternative interval-merge algorithms (the paper's §7 extension).

"Our simulated annealing solution for merging numerical intervals has
been shown to be effective, but we hypothesize the existence of more
efficient algorithms for finding partitions."  This module supplies two:

* :func:`exhaustive_splits` — the exact optimum by enumerating every
  valid splitting (with skew-constraint pruning).  Feasible for the basic
  interval counts the system actually produces (m ≲ 25, K ≲ 7); used as
  the gold standard in the ablation benchmark.
* :func:`beam_splits` — a left-to-right beam search over splitting
  points, scoring partial states by the objective over the segments
  formed so far plus the unsplit remainder.  Near-optimal at a fraction
  of the annealing iterations.

Both return the same :class:`~repro.core.annealing.AnnealingResult`
shape so they are drop-in comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .annealing import (
    AnnealingResult,
    is_valid_splitting,
    merged_correlation,
)
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
    when the search visits more than ``max_states`` states (use
    :func:`beam_splits` there instead).
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
                "use beam_splits for this size"
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


@dataclass(frozen=True)
class _BeamState:
    splits: tuple[int, ...]
    score: float


def beam_splits(
    x: Sequence[float],
    y: Sequence[float],
    num_intervals: int,
    skew_limit: float = 4.0,
    beam_width: int = 64,
) -> AnnealingResult:
    """Beam search over splitting points, left to right.

    Each level fixes the next split position; partial states are scored by
    the objective computed over the closed segments plus the open
    remainder as one segment — an admissible-enough heuristic in practice
    (the ablation benchmark quantifies it against the exact optimum).
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

    def partial_score(splits: tuple[int, ...]) -> float:
        return abs(merged_correlation(x, y, splits) - basic)

    beam = [_BeamState((), 0.0)]
    evaluations = 0
    for level in range(1, k):
        segments_after = k - level
        candidates: list[_BeamState] = []
        for state in beam:
            start = state.splits[-1] if state.splits else 0
            for split in range(start + 1, m - segments_after + 1):
                splits = state.splits + (split,)
                evaluations += 1
                candidates.append(_BeamState(splits,
                                             partial_score(splits)))
        if not candidates:
            raise ValueError("beam search found no extension")
        candidates.sort(key=lambda s: (s.score, s.splits))
        beam = candidates[:beam_width]

    valid = [s for s in beam if is_valid_splitting(s.splits, m, skew_limit)]
    if not valid:
        # fall back to the best beam state repaired towards equal width
        raise ValueError(
            f"beam search found no valid splitting for skew limit "
            f"{skew_limit}; widen the beam"
        )
    final = [(abs(merged_correlation(x, y, s.splits) - basic), s.splits)
             for s in valid]
    final.sort()
    _error, best = final[0]
    return _result(x, y, best, basic, evaluations)
