"""Star-net ranking: the SCORE formula and its Figure 4 variants."""

import math

import pytest

from repro.core import (
    HitGroup,
    Interpretation,
    RankingMethod,
    Ray,
    StarNet,
    rank_interpretations,
    score_star_net,
)
from repro.textindex import SearchHit
from repro.warehouse import EMPTY_PATH


def make_net(*groups):
    """A star net over fact 'F' with the given (scores, raw_scores) groups."""
    rays = []
    for i, (scores, raws) in enumerate(groups):
        hits = tuple(
            SearchHit("T", f"A{i}", f"v{j}", s, retrieval_score=r)
            for j, (s, r) in enumerate(zip(scores, raws))
        )
        rays.append(Ray(HitGroup("T", f"A{i}", hits, (f"k{i}",)),
                        EMPTY_PATH, None))
    return StarNet("F", tuple(rays))


class TestStandardFormula:
    def test_single_group_single_hit(self):
        net = make_net(([2.0], [1.0]))
        # avg / (1 + ln 1) / |SN|^2 = 2.0
        assert score_star_net(net) == pytest.approx(2.0)

    def test_group_size_normalization(self):
        many = make_net(([2.0] * 5, [1.0] * 5))
        one = make_net(([2.0], [1.0]))
        assert score_star_net(many) == pytest.approx(
            2.0 / (1 + math.log(5)))
        assert score_star_net(one) > score_star_net(many)

    def test_group_number_normalization(self):
        """One merged group beats two groups of the same per-hit score."""
        merged = make_net(([2.0], [1.0]))
        split = make_net(([2.0], [1.0]), ([2.0], [1.0]))
        assert score_star_net(merged) > score_star_net(split)

    def test_empty_net(self):
        assert score_star_net(StarNet("F", ())) == 0.0


class TestVariants:
    def test_no_size_norm_ignores_group_size(self):
        many = make_net(([2.0] * 5, [1.0] * 5))
        one = make_net(([2.0], [1.0]))
        method = RankingMethod.NO_GROUP_SIZE_NORM
        assert score_star_net(many, method) == \
            pytest.approx(score_star_net(one, method))

    def test_no_number_norm_prefers_more_groups(self):
        merged = make_net(([2.0], [1.0]))
        split = make_net(([2.0], [1.0]), ([2.0], [1.0]))
        method = RankingMethod.NO_GROUP_NUMBER_NORM
        assert score_star_net(split, method) > \
            score_star_net(merged, method)

    def test_baseline_uses_raw_scores(self):
        net = make_net(([10.0], [1.0]))
        assert score_star_net(net, RankingMethod.BASELINE) == 1.0

    def test_baseline_ignores_groups(self):
        one_group = make_net(([1.0, 3.0], [1.0, 3.0]))
        two_groups = make_net(([1.0], [1.0]), ([3.0], [3.0]))
        method = RankingMethod.BASELINE
        assert score_star_net(one_group, method) == \
            pytest.approx(score_star_net(two_groups, method))


class TestRankCandidates:
    def test_sorted_best_first(self):
        nets = [make_net(([1.0], [1.0])), make_net(([5.0], [5.0]))]
        ranked = rank_interpretations([Interpretation(n) for n in nets])
        assert ranked[0].score >= ranked[1].score
        assert ranked[0].star_net is nets[1]

    def test_deterministic_tie_break(self):
        interps = [Interpretation(make_net(([1.0], [1.0])))
                   for _ in range(3)]
        first = rank_interpretations(interps)
        second = rank_interpretations(list(reversed(interps)))
        assert [s.score for s in first] == [s.score for s in second]


class TestOnRealQueries:
    def test_san_jose_beats_san_antonio_jose(self, online_session):
        """§4.4's canonical example: the phrase-merged city outranks the
        San-Antonio-city + Jose-first-name combination."""
        ranked = online_session.differentiate("San Jose", limit=10)
        top_values = ranked[0].star_net.rays[0].hit_group.values
        assert top_values == ("San Jose",)
        assert ranked[0].star_net.size == 1


class TestJoinSizeMethod:
    """The DISCOVER-style related-work heuristic."""

    def test_smaller_network_wins(self):
        small = make_net(([0.1], [0.1]))
        big = make_net(([9.0], [9.0]), ([9.0], [9.0]))
        method = RankingMethod.JOIN_SIZE
        assert score_star_net(small, method) > score_star_net(big, method)

    def test_ignores_text_scores_entirely(self):
        low = make_net(([0.01], [0.01]))
        high = make_net(([99.0], [99.0]))
        method = RankingMethod.JOIN_SIZE
        assert score_star_net(low, method) == \
            pytest.approx(score_star_net(high, method))

    def test_usable_in_evaluation(self, online_session):
        from repro.datasets import AW_ONLINE_QUERIES
        from repro.evalkit import evaluate_ranking

        evaluation = evaluate_ranking(
            online_session, AW_ONLINE_QUERIES[:10],
            methods=[RankingMethod.STANDARD, RankingMethod.JOIN_SIZE])
        standard = evaluation.satisfied_at(RankingMethod.STANDARD, 1)
        join_size = evaluation.satisfied_at(RankingMethod.JOIN_SIZE, 1)
        assert standard >= join_size
