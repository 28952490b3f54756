"""Deterministic generation helpers.

Every dataset builder threads an explicit :class:`random.Random` instance
through these helpers — no global RNG state, so two builds with the same
seed are identical bit for bit.
"""

from __future__ import annotations

import random


def make_rng(seed: int) -> random.Random:
    """A fresh, isolated RNG."""
    return random.Random(seed)


def zipf_weights(n: int, skew: float = 1.0) -> list[float]:
    """Zipf-like weights for ``n`` ranks (rank 1 most likely).

    Real sales data is heavy-tailed: a few products/customers dominate.
    ``skew=0`` degenerates to uniform.
    """
    return [1.0 / (rank ** skew) for rank in range(1, n + 1)]


def lognormal_income(rng: random.Random, base: float = 60000.0,
                     sigma: float = 0.5, step: float = 10000.0) -> float:
    """An income-like positive value, rounded to ``step`` (AdventureWorks
    stores yearly income in 10k steps)."""
    value = rng.lognormvariate(0.0, sigma) * base
    value = max(step, min(value, 200000.0))
    return round(value / step) * step
