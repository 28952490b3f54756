"""Attribute-instance ranking inside a chosen facet (paper §5.3.1, Eq. 2).

For a categorical attribute value ``cat_p`` the intra-attribute score is

    SCORE(cat_p, DS') =   G(DS'|cat_p)       / G(DS')
                        - G(RUP(DS')|cat_p)  / G(RUP(DS'))

— the deviation of the category's *share* of the subspace aggregate from
its share of the roll-up aggregate.  With several hitted dimensions the
scores of the roll-up partitionings must be combined; we keep the score of
largest magnitude (the most deviating case), consistent with the
worst-case combination used for attribute ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..warehouse.schema import GroupByAttribute
from ..warehouse.subspace import Subspace
from .attribute_ranking import subspace_domain


@dataclass(frozen=True)
class RankedInstance:
    """One attribute value with its aggregate and deviation score."""

    value: object
    aggregate: float
    score: float


def rank_instances(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    gb: GroupByAttribute,
    measure_name: str,
    top_k: int | None = None,
) -> list[RankedInstance]:
    """Rank the categories of one attribute, most deviating first.

    The per-category score combines multiple roll-ups by maximum absolute
    deviation.  Ordering is by |score| descending (both surprisingly high
    and surprisingly low shares are interesting), ties broken by aggregate
    then value for determinism.
    """
    return rank_instances_batch(subspace, rollups, [gb], measure_name,
                                top_k=top_k)[gb]


def rank_instances_batch(
    subspace: Subspace,
    rollups: Sequence[Subspace],
    gbs: Sequence[GroupByAttribute],
    measure_name: str,
    top_k: int | None = None,
) -> dict[GroupByAttribute, list[RankedInstance]]:
    """:func:`rank_instances` for several attributes with fused queries.

    Result-identical to ranking each attribute separately, but each space
    (DS' and every roll-up) is partitioned by all attributes in one
    multi-partition query, so facet construction touches every space once
    per dimension instead of once per selected attribute.
    """
    gbs = list(gbs)
    if not gbs:
        return {}
    total_sub = subspace.aggregate(measure_name)
    sub_parts = subspace.multi_partition_aggregates(gbs, measure_name)
    domains = [subspace_domain(part) for part in sub_parts]

    # per roll-up: one fused partitioning, projected onto each domain as
    # per-gb share maps (a value the roll-up lacks has no share)
    shares_roll: list[list[dict]] = [[] for _ in gbs]
    for rollup in rollups:
        total_roll = rollup.aggregate(measure_name)
        roll_parts = rollup.multi_partition_aggregates(gbs, measure_name)
        for index, (domain, roll_part) in enumerate(zip(domains, roll_parts)):
            shares_roll[index].append(
                {
                    value: ((roll_part.get(value) or 0.0) / total_roll
                            if total_roll else 0.0)
                    for value in domain
                }
            )

    out: dict[GroupByAttribute, list[RankedInstance]] = {}
    for gb, domain, sub_part, gb_shares in zip(gbs, domains, sub_parts,
                                               shares_roll):
        ranked: list[RankedInstance] = []
        for value in domain:
            aggregate = float(sub_part[value] or 0.0)
            share_sub = aggregate / total_sub if total_sub else 0.0
            scores = [share_sub - shares[value] for shares in gb_shares]
            best = max(scores, key=abs) if scores else 0.0
            ranked.append(RankedInstance(value, aggregate, best))
        ranked.sort(key=lambda r: (-abs(r.score), -r.aggregate, str(r.value)))
        if top_k is not None:
            ranked = ranked[:top_k]
        out[gb] = ranked
    return out
