"""Splitting-point assignment by simulated annealing (paper §5.3.2, Alg. 2).

Given the m basic-interval aggregate series (X from DS', Y from RUP(DS'))
computed during attribute ranking, merge adjacent basic intervals into K
display categories such that

* the correlation over the merged series stays as close as possible to the
  correlation over the basic intervals (exploration objective), and
* no merged range spans more than L times the basic intervals of the
  smallest range (navigational skew constraint).

The search starts from equal-width splitting points and repeatedly proposes
a neighbour (one splitting point moved by one basic-interval unit).  A
better neighbour is recorded as the best-so-far; the *current* state also
jumps to the neighbour with a fixed probability, which lets the walk escape
local optima — exactly the structure of the paper's Algorithm 2.  The whole
search runs on in-memory arrays and never touches the database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .interestingness import ordered_sum, pearson_correlation


@dataclass(frozen=True)
class AnnealingConfig:
    """Knobs of Algorithm 2."""

    num_intervals: int = 6
    """K: target number of merged display intervals."""

    skew_limit: float = 4.0
    """L: the largest range may span at most L x the smallest range."""

    iterations: int = 500
    """N: neighbour proposals."""

    accept_probability: float = 0.3
    """Chance of moving the current state to a non-improving neighbour."""

    seed: int = 7
    """RNG seed (annealing is deterministic given the seed)."""


@dataclass
class AnnealingResult:
    """Outcome of one splitting-point search."""

    splits: tuple[int, ...]
    """Best splitting points found (indices into the basic intervals;
    strictly increasing, in (0, m))."""

    merged_correlation: float
    """Correlation over the merged series at the best splits."""

    basic_correlation: float
    """Ground objective: correlation over the basic intervals."""

    error_history: list[float]
    """|merged - basic| of the best-so-far after each iteration — the
    series plotted in Figure 7."""

    @property
    def error(self) -> float:
        """Final |merged correlation - basic correlation|."""
        return abs(self.merged_correlation - self.basic_correlation)


def merge_series(series: Sequence[float], splits: Sequence[int]) -> list[float]:
    """Sum ``series`` into the segments delimited by ``splits``.

    ``splits`` are interior cut positions; segment i covers
    ``[boundaries[i], boundaries[i+1])`` with implicit 0 and len(series)
    boundaries at the ends.
    """
    boundaries = [0, *splits, len(series)]
    return [
        ordered_sum(series[boundaries[i]: boundaries[i + 1]])
        for i in range(len(boundaries) - 1)
    ]


def segment_lengths(splits: Sequence[int], m: int) -> list[int]:
    """Basic-interval counts of each merged segment."""
    boundaries = [0, *splits, m]
    return [boundaries[i + 1] - boundaries[i] for i in range(len(boundaries) - 1)]


def is_valid_splitting(splits: Sequence[int], m: int, skew_limit: float) -> bool:
    """Check strict monotonicity, range, and the L-skew constraint."""
    previous = 0
    for split in splits:
        if split <= previous or split >= m:
            return False
        previous = split
    lengths = segment_lengths(splits, m)
    return max(lengths) <= skew_limit * min(lengths)


def equal_width_splits(m: int, k: int) -> tuple[int, ...]:
    """The paper's starting point: equal-width splitting of m basic
    intervals into k segments."""
    if k < 1 or k > m:
        raise ValueError(f"cannot split {m} basic intervals into {k} segments")
    return tuple(round(i * m / k) for i in range(1, k))


def merged_correlation(
    x: Sequence[float], y: Sequence[float], splits: Sequence[int]
) -> float:
    """Correlation of the two series after merging by ``splits``."""
    return pearson_correlation(merge_series(x, splits), merge_series(y, splits))


def anneal_splits(
    x: Sequence[float],
    y: Sequence[float],
    config: AnnealingConfig = AnnealingConfig(),
) -> AnnealingResult:
    """Algorithm 2: find display splitting points for basic series X, Y."""
    m = len(x)
    if m != len(y):
        raise ValueError(f"series length mismatch: {m} vs {len(y)}")
    k = config.num_intervals
    if k > m:
        raise ValueError(
            f"cannot display {k} intervals from only {m} basic intervals"
        )
    rng = random.Random(config.seed)
    basic = pearson_correlation(x, y)

    current = list(equal_width_splits(m, k))
    best = tuple(current)
    best_error = abs(merged_correlation(x, y, best) - basic)
    history: list[float] = []

    for _ in range(config.iterations):
        neighbour = _propose_neighbour(current, m, config.skew_limit, rng)
        if neighbour is not None:
            error = abs(merged_correlation(x, y, neighbour) - basic)
            if error < best_error:
                best = tuple(neighbour)
                best_error = error
                current = list(neighbour)
            elif rng.random() < config.accept_probability:
                current = list(neighbour)
        history.append(best_error)

    return AnnealingResult(
        splits=best,
        merged_correlation=merged_correlation(x, y, best),
        basic_correlation=basic,
        error_history=history,
    )


def _propose_neighbour(
    splits: list[int], m: int, skew_limit: float, rng: random.Random,
    max_tries: int = 8,
) -> list[int] | None:
    """One valid neighbour: a random splitting point moved +-1 unit.

    Retries a few times when the sampled move is invalid; None when no
    valid neighbour was found (the caller just skips the iteration).
    """
    if not splits:
        return None
    for _ in range(max_tries):
        idx = rng.randrange(len(splits))
        delta = 1 if rng.random() < 0.5 else -1
        candidate = list(splits)
        candidate[idx] += delta
        if is_valid_splitting(candidate, m, skew_limit):
            return candidate
    return None
