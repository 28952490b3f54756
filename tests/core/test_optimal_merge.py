"""Exact interval merging (the §7 algorithms extension)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnnealingConfig,
    anneal_splits,
    is_valid_splitting,
    merged_correlation,
    pearson_correlation,
)
from repro.core.optimal_merge import exhaustive_splits


def series(m=14, seed=3):
    rng = random.Random(seed)
    x = [rng.uniform(0, 100) for _ in range(m)]
    y = [xi * 0.4 + rng.uniform(0, 40) for xi in x]
    return x, y


class TestExhaustive:
    def test_valid_result(self):
        x, y = series()
        result = exhaustive_splits(x, y, 5)
        assert is_valid_splitting(result.splits, len(x), 4.0)

    def test_k_one_no_splits(self):
        x, y = series()
        assert exhaustive_splits(x, y, 1).splits == ()

    def test_k_equals_m_zero_error(self):
        x, y = series(m=6)
        result = exhaustive_splits(x, y, 6)
        assert result.error == pytest.approx(0.0)

    def test_optimal_beats_or_ties_annealing(self):
        x, y = series()
        exact = exhaustive_splits(x, y, 5)
        annealed = anneal_splits(
            x, y, AnnealingConfig(num_intervals=5, iterations=500))
        assert exact.error <= annealed.error + 1e-12

    def test_state_space_guard(self):
        x, y = series(m=60, seed=1)
        with pytest.raises(ValueError):
            exhaustive_splits(x, y, 8, max_states=100)

    @pytest.mark.parametrize("skew_limit", [1.0, 1.5, 2.0, 4.0, 100.0])
    def test_prune_is_exact(self, skew_limit):
        """The skew prune drops only invalid prefixes: every valid
        splitting is still scored, and the winner matches brute force."""
        m, k = 12, 4
        x, y = series(m=m, seed=5)
        basic = pearson_correlation(x, y)
        valid = [s for s in combinations(range(1, m), k - 1)
                 if is_valid_splitting(s, m, skew_limit)]
        best = min(valid,
                   key=lambda s: abs(merged_correlation(x, y, s) - basic))
        result = exhaustive_splits(x, y, k, skew_limit=skew_limit)
        assert result.splits == best
        assert len(result.error_history) == len(valid)

    def test_mismatched_series(self):
        with pytest.raises(ValueError):
            exhaustive_splits([1.0, 2.0], [1.0], 2)

    def test_infeasible_constraint(self):
        x, y = series(m=10)
        # splitting 10 intervals into 2 with skew limit < 1 is impossible
        with pytest.raises(ValueError):
            exhaustive_splits(x, y, 2, skew_limit=0.5)


class TestProperties:
    @given(seed=st.integers(0, 500), k=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_worse_than_heuristics(self, seed, k):
        x, y = series(m=12, seed=seed)
        exact = exhaustive_splits(x, y, k)
        annealed = anneal_splits(
            x, y, AnnealingConfig(num_intervals=k, iterations=200,
                                  seed=seed))
        assert exact.error <= annealed.error + 1e-12
