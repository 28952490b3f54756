"""Star-net ranking (paper §4.4).

The standard score is

    SCORE(SN, q) =
        sum_over_hit_groups( avg_hit_sim / (1 + ln|HG|) ) / |SN|^2

where each hit's similarity is Sim(h.val, q) against the *full* query.
Two normalisations act on top of the raw IR scores:

* **group size** — dividing a group's average similarity by
  ``1 + ln|HG|`` penalises domains where the keyword sprays across many
  instances ("California Street" addresses);
* **group number** — dividing by ``|SN|^2`` prioritises star nets where
  several keywords land in the *same* attribute instance ("San Jose" as a
  city beats "San Antonio" + "Jose").

Figure 4 of the paper ablates each normalisation and compares against a
baseline that simply averages the raw engine scores; all four methods are
implemented here.
"""

from __future__ import annotations

import enum
import math

from .starnet import StarNet


class RankingMethod(enum.Enum):
    """The four ranking methods evaluated in Figure 4, plus the
    DISCOVER/DBXplorer-style size heuristic mentioned as related work
    ("rank tuples simply based on the size of the corresponding join
    networks") for additional comparison."""

    STANDARD = "standard"
    NO_GROUP_NUMBER_NORM = "no-group-number-norm"
    NO_GROUP_SIZE_NORM = "no-group-size-norm"
    BASELINE = "baseline"
    JOIN_SIZE = "join-size"


def _group_term(mean_sim: float, group_size: int, use_size_norm: bool) -> float:
    if use_size_norm:
        return mean_sim / (1.0 + math.log(group_size))
    return mean_sim


def score_star_net(star_net: StarNet,
                   method: RankingMethod = RankingMethod.STANDARD) -> float:
    """SCORE(SN, q) under one of the four ranking methods.

    Hits are assumed to already carry Sim(h.val, q) against the full query
    (as produced by :func:`repro.core.interpret.rescore_group`).
    """
    if star_net.size == 0:
        return 0.0

    if method is RankingMethod.JOIN_SIZE:
        # DISCOVER-style: smaller join networks first, no IR scores at
        # all.  Size = number of join edges + number of hit groups.
        edges = sum(len(r.path_to_fact.steps) for r in star_net.rays)
        return 1.0 / (1.0 + edges + star_net.size)

    if method is RankingMethod.BASELINE:
        # Hristidis et al.-style baseline: the raw per-keyword engine
        # scores averaged over all hits, ignoring the group structure and
        # the full-query rescoring entirely.
        all_hits = [h for g in star_net.hit_groups for h in g.hits]
        return sum(h.raw_score for h in all_hits) / len(all_hits)

    use_size_norm = method is not RankingMethod.NO_GROUP_SIZE_NORM
    total = sum(
        _group_term(group.mean_score(), group.size, use_size_norm)
        for group in star_net.hit_groups
    )
    if method is RankingMethod.NO_GROUP_NUMBER_NORM:
        return total
    return total / (star_net.size ** 2)
