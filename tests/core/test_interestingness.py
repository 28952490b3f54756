"""Interestingness measures and the Pearson correlation conventions."""


import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    BELLWETHER,
    SURPRISE,
    BellwetherMeasure,
    SurpriseMeasure,
    pearson_correlation,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == \
            pytest.approx(-1.0)

    def test_shift_invariant(self):
        a = [1.0, 5.0, 2.0, 8.0]
        b = [2.0, 3.0, 9.0, 1.0]
        assert pearson_correlation(a, b) == pytest.approx(
            pearson_correlation([x + 10 for x in a], b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    def test_short_series_is_zero(self):
        assert pearson_correlation([1], [1]) == 0.0
        assert pearson_correlation([], []) == 0.0

    def test_one_constant_series_is_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_both_constant_is_one(self):
        assert pearson_correlation([2, 2], [5, 5]) == 1.0


class TestMeasures:
    def test_surprise_negates(self):
        x, y = [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]
        assert SURPRISE.score_series(x, y) == pytest.approx(-1.0)

    def test_bellwether_follows(self):
        x, y = [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]
        assert BELLWETHER.score_series(x, y) == pytest.approx(1.0)

    def test_opposites(self):
        x, y = [1.0, 5.0, 2.0], [4.0, 1.0, 9.0]
        assert SurpriseMeasure().score_series(x, y) == \
            pytest.approx(-BellwetherMeasure().score_series(x, y))

    def test_names(self):
        assert SURPRISE.name == "surprise"
        assert BELLWETHER.name == "bellwether"


series = st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=20)


class TestProperties:
    @given(x=series, y=series)
    @settings(max_examples=150, deadline=None)
    def test_bounded(self, x, y):
        n = min(len(x), len(y))
        value = pearson_correlation(x[:n], y[:n])
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @given(x=series)
    @example(x=[2.1751516250606668e-110] * 5)  # mean does not round-trip
    @settings(max_examples=100, deadline=None)
    def test_self_correlation(self, x):
        value = pearson_correlation(x, x)
        if len(set(x)) > 1:
            assert value == pytest.approx(1.0)
        else:
            assert value == 1.0

    @given(x=series, y=series)
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, x, y):
        n = min(len(x), len(y))
        assert pearson_correlation(x[:n], y[:n]) == pytest.approx(
            pearson_correlation(y[:n], x[:n]))


class TestMaxShareDeviation:
    def test_identical_shares_zero(self):
        from repro.core import MAX_SHARE_DEVIATION
        assert MAX_SHARE_DEVIATION.score_series([1, 2, 3],
                                                [10, 20, 30]) == 0.0

    def test_single_spike_detected(self):
        from repro.core import MAX_SHARE_DEVIATION
        x = [8.0, 1.0, 1.0]   # 80% in the first category
        y = [1.0, 1.0, 1.0]   # 33% expected
        score = MAX_SHARE_DEVIATION.score_series(x, y)
        assert score == pytest.approx(0.8 - 1 / 3)

    def test_bounded_by_one(self):
        from repro.core import MAX_SHARE_DEVIATION
        assert 0.0 <= MAX_SHARE_DEVIATION.score_series(
            [1.0, 0.0], [0.0, 1.0]) <= 1.0

    def test_empty_series(self):
        from repro.core import MAX_SHARE_DEVIATION
        assert MAX_SHARE_DEVIATION.score_series([], []) == 0.0

    def test_zero_mass(self):
        from repro.core import MAX_SHARE_DEVIATION
        assert MAX_SHARE_DEVIATION.score_series([0.0], [1.0]) == 0.0

    def test_length_mismatch(self):
        from repro.core import MAX_SHARE_DEVIATION
        with pytest.raises(ValueError):
            MAX_SHARE_DEVIATION.score_series([1.0], [1.0, 2.0])
