"""Figure 4: evaluation of the four star-net ranking methods.

For each benchmark query we interpret it once with the paper's value-only
front end, rank the interpretations under each method, and record the
1-based rank of the first *relevant* star net (ground truth from
:mod:`repro.datasets.queries`).  The figure's curves
plot, for each method, the fraction of queries whose relevant star net
appears within the top-x results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.interpret import (
    DEFAULT_CONFIG,
    GenerationConfig,
    interpret_query,
    rank_interpretations,
)
from ..core.ranking import RankingMethod
from ..core.session import KdapSession
from ..datasets.queries import BenchmarkQuery, relevant_rank

ALL_METHODS: tuple[RankingMethod, ...] = (
    RankingMethod.STANDARD,
    RankingMethod.NO_GROUP_SIZE_NORM,
    RankingMethod.NO_GROUP_NUMBER_NORM,
    RankingMethod.BASELINE,
)


@dataclass
class QueryOutcome:
    """Per-query ranks of the first relevant star net, per method."""

    query: BenchmarkQuery
    ranks: dict[RankingMethod, int | None]
    num_candidates: int


@dataclass
class RankingEvaluation:
    """The full Figure 4 dataset."""

    outcomes: list[QueryOutcome]

    @property
    def num_queries(self) -> int:
        return len(self.outcomes)

    def satisfied_at(self, method: RankingMethod, top_x: int) -> float:
        """Fraction of queries whose relevant star net is in the top-x."""
        hits = sum(
            1 for outcome in self.outcomes
            if outcome.ranks[method] is not None
            and outcome.ranks[method] <= top_x
        )
        return hits / max(self.num_queries, 1)

    def curve(self, method: RankingMethod,
              max_rank: int = 10) -> list[float]:
        """The Figure 4 series: satisfied fraction at ranks 1..max_rank."""
        return [self.satisfied_at(method, x) for x in range(1, max_rank + 1)]

    def unsatisfied(self, method: RankingMethod,
                    within: int = 10) -> list[QueryOutcome]:
        """Queries whose relevant star net is missing or ranked too low."""
        return [
            o for o in self.outcomes
            if o.ranks[method] is None or o.ranks[method] > within
        ]

    def by_keyword_count(self, method: RankingMethod,
                         top_x: int = 1) -> dict[int, tuple[int, int]]:
        """Satisfaction broken down by query length.

        Table 3's queries are "evenly distributed in terms of the number
        of keywords contained"; this view shows how ranking quality moves
        with query length.  Returns keyword count → (satisfied, total).
        """
        buckets: dict[int, list[int]] = {}
        for outcome in self.outcomes:
            count = len(outcome.query.text.split())
            rank = outcome.ranks[method]
            hit = 1 if rank is not None and rank <= top_x else 0
            buckets.setdefault(count, []).append(hit)
        return {
            count: (sum(hits), len(hits))
            for count, hits in sorted(buckets.items())
        }


def evaluate_ranking(
    session: KdapSession,
    queries: Sequence[BenchmarkQuery],
    methods: Sequence[RankingMethod] = ALL_METHODS,
    config: GenerationConfig = DEFAULT_CONFIG,
) -> RankingEvaluation:
    """Run the Figure 4 protocol: one value-only interpretation per
    query, one ranking per method."""
    outcomes: list[QueryOutcome] = []
    for query in queries:
        interpretations, _report = interpret_query(
            session.schema, session.index, query.text, config,
            matchers=("value",), chain=session.chain)
        ranks: dict[RankingMethod, int | None] = {}
        for method in methods:
            ranked = rank_interpretations(interpretations, method)
            ranks[method] = relevant_rank(ranked, query)
        outcomes.append(QueryOutcome(query, ranks, len(interpretations)))
    return RankingEvaluation(outcomes)
