"""Typo-robustness experiment (ablation of the fuzzy-matching extension).

Protocol: corrupt each Table 3 query by misspelling its longest keyword
(one random adjacent-character transposition or substitution), then run
the Figure 4 evaluation on the corrupted workload twice — with fuzzy
matching off (the paper's configuration: stemming + prefix only) and on.
The fuzzy index recovers interpretations the exact index loses entirely.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Sequence

from ..core.interpret import GenerationConfig
from ..core.ranking import RankingMethod
from ..core.session import KdapSession
from ..datasets.queries import BenchmarkQuery
from .ranking_eval import RankingEvaluation, evaluate_ranking


def misspell_keyword(keyword: str, rng: random.Random) -> str:
    """One edit: transpose two adjacent letters or substitute one.

    Keywords shorter than 5 characters and non-alphabetic keywords are
    returned unchanged (a single edit on a short code changes too much).
    """
    letters = [i for i, ch in enumerate(keyword) if ch.isalpha()]
    if len(letters) < 5:
        return keyword
    if rng.random() < 0.5:
        # transpose two adjacent alphabetic positions
        idx = rng.randrange(len(letters) - 1)
        i, j = letters[idx], letters[idx + 1]
        if j == i + 1 and keyword[i] != keyword[j]:
            chars = list(keyword)
            chars[i], chars[j] = chars[j], chars[i]
            return "".join(chars)
    # substitute one letter with a different one, resampling until the
    # keyword actually changes (case-restoring the replacement could
    # otherwise reproduce the original character)
    i = rng.choice(letters)
    original = keyword[i]
    chars = list(keyword)
    while True:
        replacement = rng.choice(string.ascii_lowercase)
        candidate = replacement.upper() if original.isupper() else replacement
        if candidate != original:
            chars[i] = candidate
            return "".join(chars)


def corrupt_query(query: BenchmarkQuery,
                  rng: random.Random) -> BenchmarkQuery:
    """Misspell the longest keyword of one query (ground truth kept)."""
    keywords = query.text.split()
    target = max(range(len(keywords)), key=lambda i: len(keywords[i]))
    corrupted = list(keywords)
    corrupted[target] = misspell_keyword(keywords[target], rng)
    return BenchmarkQuery(query.qid, " ".join(corrupted),
                          query.interpretations,
                          note=f"corrupted from {query.text!r}")


@dataclass
class RobustnessResult:
    """Satisfaction on the corrupted workload, fuzzy off vs on."""

    corrupted: list[BenchmarkQuery]
    without_fuzzy: RankingEvaluation
    with_fuzzy: RankingEvaluation

    def satisfied(self, fuzzy: bool, top_x: int = 5) -> float:
        evaluation = self.with_fuzzy if fuzzy else self.without_fuzzy
        return evaluation.satisfied_at(RankingMethod.STANDARD, top_x)


def evaluate_robustness(
    session: KdapSession,
    queries: Sequence[BenchmarkQuery],
    seed: int = 17,
) -> RobustnessResult:
    """Run the corrupted workload with and without fuzzy matching."""
    rng = random.Random(seed)
    corrupted = [corrupt_query(q, rng) for q in queries]
    methods = [RankingMethod.STANDARD]
    without = evaluate_ranking(
        session, corrupted, methods=methods,
        config=GenerationConfig(fuzzy_matching=False))
    with_fuzzy = evaluate_ranking(
        session, corrupted, methods=methods,
        config=GenerationConfig(fuzzy_matching=True))
    return RobustnessResult(corrupted, without, with_fuzzy)
