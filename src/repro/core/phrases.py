"""Phrase-query handling (paper §4.3).

Within a candidate star seed, two hit groups drawn from *different* hit
sets merge when (a) they come from the same attribute domain and (b) their
hit intersection is non-empty.  The merged group is replaced by the
intersection, and its hits are re-scored against the merged phrase query —
so ``San Jose`` (the city) ends up with a much higher score than the noise
hits ``San Antonio`` and ``Jose`` (the first name).

The non-empty-intersection condition deliberately keeps side-by-side
slices apart: "Software Electronics" stays two independent product-group
selections.
"""

from __future__ import annotations

from ..textindex.index import AttributeTextIndex, SearchHit
from .hits import HitGroup


def try_merge(
    left: HitGroup,
    right: HitGroup,
    index: AttributeTextIndex,
) -> HitGroup | None:
    """Merge two hit groups per the §4.3 conditions, or return None.

    The merged group keeps only hits present in both groups (the
    intersection), re-scored with the concatenated keyword phrase.
    """
    if left.domain != right.domain:
        return None
    shared_values = set(left.values) & set(right.values)
    if not shared_values:
        return None
    keywords = left.keywords + right.keywords
    phrase = " ".join(keywords)
    raw_left = {h.value: h.raw_score for h in left.hits}
    raw_right = {h.value: h.raw_score for h in right.hits}
    values = sorted(shared_values)
    scores = index.score_values(left.table, left.attribute, values, phrase)
    merged_hits = []
    for value, score in zip(values, scores):
        # the retrieval score stays a per-keyword engine score (mean of the
        # two constituents) — the Figure 4 baseline must not benefit from
        # phrase re-scoring, which Hristidis et al. do not perform
        raw = (raw_left[value] + raw_right[value]) / 2.0
        merged_hits.append(
            SearchHit(left.table, left.attribute, value, score,
                      retrieval_score=raw)
        )
    merged_hits.sort(key=lambda h: (-h.score, h.value))
    return HitGroup(left.table, left.attribute, tuple(merged_hits), keywords)


def merge_seed_groups(
    groups: tuple[HitGroup, ...],
    index: AttributeTextIndex,
    pairs: dict[tuple[int, int], tuple] | None = None,
) -> tuple[HitGroup, ...]:
    """Apply phrase merging exhaustively across a star seed's hit groups.

    Generalises pairwise merging to phrases of more than two keywords by
    iterating to a fixed point (the paper: "the above merge process can be
    easily generalized to cases beyond two hit groups").

    ``pairs`` memoises :func:`try_merge` by the two operands' identities,
    so a caller merging many seeds that share groups tries each pair
    once.  Each entry holds both operands as well as the result: a merged
    intermediate group lives on in the memo, so its ``id`` cannot be
    reused by a later group while the memo is alive.  Without ``pairs``
    the memo lives for this call only.
    """
    if pairs is None:
        pairs = {}
    current = list(groups)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                left, right = current[i], current[j]
                key = (id(left), id(right))
                entry = pairs.get(key)
                if entry is None:
                    entry = pairs[key] = (left, right,
                                          try_merge(left, right, index))
                merged = entry[2]
                if merged is not None:
                    current[i] = merged
                    del current[j]
                    changed = True
                    break
            if changed:
                break
    return tuple(current)
