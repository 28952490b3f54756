"""Figure 4 evaluation harness, including the headline shape assertions."""

import pytest

from repro.core import DEFAULT_CONFIG, GenerationConfig, RankingMethod
from repro.evalkit import ALL_METHODS
from repro.datasets import AW_ONLINE_QUERIES, AW_RESELLER_QUERIES
from repro.datasets.queries import relevant_rank
from repro.evalkit import evaluate_ranking
from repro.evalkit.robustness_eval import evaluate_robustness

from ..core.enumeration_oracle import oracle_front_end


@pytest.fixture(scope="module")
def evaluation(online_session):
    return evaluate_ranking(online_session, AW_ONLINE_QUERIES)


class TestMechanics:
    def test_one_outcome_per_query(self, evaluation):
        assert evaluation.num_queries == 50

    def test_curves_monotone(self, evaluation):
        for method in ALL_METHODS:
            curve = evaluation.curve(method, 10)
            assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_curves_bounded(self, evaluation):
        for method in ALL_METHODS:
            for value in evaluation.curve(method, 10):
                assert 0.0 <= value <= 1.0

    def test_unsatisfied_listing(self, evaluation):
        missed = evaluation.unsatisfied(RankingMethod.BASELINE, within=1)
        for outcome in missed:
            rank = outcome.ranks[RankingMethod.BASELINE]
            assert rank is None or rank > 1


class TestPaperShape:
    """Figure 4's qualitative findings, asserted as inequalities."""

    def test_standard_top1_strong(self, evaluation):
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 1) >= 0.80

    def test_standard_all_within_top5(self, evaluation):
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 5) >= 0.95

    def test_standard_beats_no_number_norm(self, evaluation):
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 1) > \
            evaluation.satisfied_at(RankingMethod.NO_GROUP_NUMBER_NORM, 1)

    def test_standard_beats_baseline(self, evaluation):
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 1) > \
            evaluation.satisfied_at(RankingMethod.BASELINE, 1)

    def test_size_norm_not_critical(self, evaluation):
        """'The group size normalization does not play an important
        role': disabling it stays within a few points of standard."""
        standard = evaluation.satisfied_at(RankingMethod.STANDARD, 1)
        no_size = evaluation.satisfied_at(RankingMethod.NO_GROUP_SIZE_NORM,
                                          1)
        assert abs(standard - no_size) <= 0.10

    def test_number_norm_is_significant(self, evaluation):
        standard = evaluation.satisfied_at(RankingMethod.STANDARD, 1)
        no_number = evaluation.satisfied_at(
            RankingMethod.NO_GROUP_NUMBER_NORM, 1)
        assert standard - no_number >= 0.20


class TestResellerReplication:
    """§6.3: 'The results are almost identical' on AW_RESELLER."""

    def test_standard_strong_on_reseller(self, reseller_session):
        evaluation = evaluate_ranking(reseller_session,
                                      AW_RESELLER_QUERIES)
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 1) >= 0.8
        assert evaluation.satisfied_at(RankingMethod.STANDARD, 5) >= 0.9


class TestKeywordCountBreakdown:
    def test_buckets_cover_all_queries(self, evaluation):
        breakdown = evaluation.by_keyword_count(RankingMethod.STANDARD)
        assert sum(total for _hits, total in breakdown.values()) == 50

    def test_hits_bounded_by_totals(self, evaluation):
        breakdown = evaluation.by_keyword_count(RankingMethod.STANDARD,
                                                top_x=5)
        for hits, total in breakdown.values():
            assert 0 <= hits <= total

    def test_counts_sorted(self, evaluation):
        breakdown = evaluation.by_keyword_count(RankingMethod.STANDARD)
        counts = list(breakdown)
        assert counts == sorted(counts)


def assert_matches_reference(session, evaluation, config=DEFAULT_CONFIG):
    """Every outcome's ranks and candidate count equal the pinned
    value-only front end's (``oracle_front_end``)."""
    for outcome in evaluation.outcomes:
        for method, rank in outcome.ranks.items():
            ranked = oracle_front_end(session.schema, session.index,
                                      outcome.query.text, config, method)
            assert (rank, outcome.num_candidates) == \
                (relevant_rank(ranked, outcome.query), len(ranked)), \
                (outcome.query.text, method)


class TestMatchesReference:
    """Figure 4 and the typo-robustness ablation run on the product
    front end; their numbers must be the paper front end's exactly."""

    def test_online(self, online_session):
        evaluation = evaluate_ranking(online_session, AW_ONLINE_QUERIES,
                                      methods=list(RankingMethod))
        assert_matches_reference(online_session, evaluation)

    def test_reseller(self, reseller_session):
        evaluation = evaluate_ranking(reseller_session, AW_RESELLER_QUERIES,
                                      methods=list(RankingMethod))
        assert_matches_reference(reseller_session, evaluation)

    def test_robustness_fuzzy_off_and_on(self, online_session):
        result = evaluate_robustness(online_session, AW_ONLINE_QUERIES)
        assert_matches_reference(online_session, result.without_fuzzy,
                                 GenerationConfig(fuzzy_matching=False))
        assert_matches_reference(online_session, result.with_fuzzy,
                                 GenerationConfig(fuzzy_matching=True))
