"""Interestingness measures over (subspace, roll-up) aggregate series.

The paper evaluates a candidate partition by comparing two aggregation
series over the same categories: X from the sub-dataspace DS' and Y from
the roll-up space RUP(DS').  Application-specific measures map the pair to
a single interestingness score (higher = more interesting):

* :class:`SurpriseMeasure`  — Eq. (1): the *negated* Pearson correlation.
  Partitions whose local distribution deviates from the roll-up trend are
  surprising (exception finding, Sarawagi-style).
* :class:`BellwetherMeasure` — the positive correlation.  Partitions whose
  local aggregates track the larger region hint at bellwethers (Chen et
  al., VLDB 2006).

Both are thin wrappers over :func:`pearson_correlation`, which fixes a
documented convention for degenerate (constant) series.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable, Protocol, Sequence


def ordered_sum(values: Iterable[float]) -> float:
    """``0 + v1 + v2 + ...``, added left to right.  The built-in
    ``sum()`` compensates float rounding from Python 3.12 on, so scores
    summed with it would depend on the Python version."""
    return reduce(add, values, 0)


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation with explicit degenerate-case conventions.

    * series shorter than 2 → 0.0 (no trend to compare);
    * either series constant → 1.0 when both are constant (identical
      shape), else 0.0 (no linear relationship measurable).

    These conventions keep the surprise score bounded and deterministic on
    the tiny partitions keyword subspaces routinely produce.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"series length mismatch: {len(x)} vs {len(y)}")
    if n < 2:
        return 0.0
    # constancy is a property of the values, not of the variance: the
    # mean of a repeated value need not round-trip to it, which leaves a
    # constant series with a tiny non-zero variance
    constant_x = min(x) == max(x)
    constant_y = min(y) == max(y)
    if constant_x or constant_y:
        return 1.0 if constant_x and constant_y else 0.0
    mean_x = ordered_sum(x) / n
    mean_y = ordered_sum(y) / n
    var_x = ordered_sum((v - mean_x) ** 2 for v in x)
    var_y = ordered_sum((v - mean_y) ** 2 for v in y)
    if var_x == 0.0 or var_y == 0.0:
        # not constant, but the squared deviations underflowed
        return 1.0 if var_x == var_y == 0.0 else 0.0
    cov = ordered_sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    # take the roots separately: var_x * var_y can underflow to 0.0 for
    # tiny variances even though both factors are positive
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if denominator == 0.0:
        return 0.0
    return max(-1.0, min(1.0, cov / denominator))


def quantize_score(score: float) -> float:
    """``score`` rounded to 12 significant digits, for sort keys.

    The same aggregate reaches the ranking through a scan, a plan-cache
    entry or a tier roll-up, which sum floats in different orders; exact
    score ties (e.g. correlation ±1 against a roll-up to ALL) must not
    be broken by that last-bit noise, so rankings compare quantised
    scores and let their deterministic tie-breaks decide.
    """
    return float(f"{score:.11e}")


class InterestingnessMeasure(Protocol):
    """Scores an (X, Y) aggregate-series pair; higher = more interesting."""

    name: str

    def score_series(self, x: Sequence[float], y: Sequence[float]) -> float:
        """Interestingness of partition series X against roll-up series Y."""
        ...


class SurpriseMeasure:
    """Eq. (1): SCORE = -corr(X, Y).  High when DS' deviates from RUP(DS')."""

    name = "surprise"

    def score_series(self, x: Sequence[float], y: Sequence[float]) -> float:
        return -pearson_correlation(x, y)


class BellwetherMeasure:
    """SCORE = +corr(X, Y).  High when local aggregates track the roll-up."""

    name = "bellwether"

    def score_series(self, x: Sequence[float], y: Sequence[float]) -> float:
        return pearson_correlation(x, y)


class MaxShareDeviationMeasure:
    """An alternative exception measure: the largest absolute difference
    between the subspace's and the roll-up's *share* of any category.

    Where :class:`SurpriseMeasure` reacts to the overall trend shape
    (correlation), this reacts to a single strongly deviating category —
    closer in spirit to Sarawagi's cell-level surprise.  Included to
    demonstrate the framework's pluggability (§3: "Our framework
    accommodates such interestingness measures").
    """

    name = "max-share-deviation"

    def score_series(self, x: Sequence[float], y: Sequence[float]) -> float:
        if len(x) != len(y):
            raise ValueError(f"series length mismatch: {len(x)} vs {len(y)}")
        if not x:
            return 0.0
        total_x = ordered_sum(x)
        total_y = ordered_sum(y)
        if total_x == 0.0 or total_y == 0.0:
            return 0.0
        return max(abs(a / total_x - b / total_y) for a, b in zip(x, y))


SURPRISE = SurpriseMeasure()
BELLWETHER = BellwetherMeasure()
MAX_SHARE_DEVIATION = MaxShareDeviationMeasure()
