"""Hits and hit groups (paper §4.2).

For each keyword the system probes the full-text index and obtains a *hit
set*; hits drawn from the same attribute domain form a *hit group*.  A hit
group is the unit star nets are assembled from: it stands for the predicate
``table.attribute IN {matched values}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..textindex.index import AttributeTextIndex, SearchHit
from .interestingness import ordered_sum


@dataclass(frozen=True)
class HitGroup:
    """All hits of one or more keywords inside one attribute domain.

    ``keywords`` records which query keywords produced this group; phrase
    merging (§4.3) produces groups carrying several keywords.

    The group is immutable, so what is derived from its hits is computed
    once per object: ``domain`` and ``values`` when it is built (every
    dedup and memo key reads them), the label and the mean score on
    first use.  None of them takes part in equality or hashing.
    """

    table: str
    attribute: str
    hits: tuple[SearchHit, ...]
    keywords: tuple[str, ...]
    domain: tuple[str, str] = field(init=False, repr=False, compare=False)
    """The attribute domain (table, attribute)."""
    values: tuple[str, ...] = field(init=False, repr=False, compare=False)
    """The matched attribute instance values, in hit order."""

    def __post_init__(self) -> None:
        if not self.hits:
            raise ValueError("a hit group must contain at least one hit")
        for hit in self.hits:
            if hit.table != self.table or hit.attribute != self.attribute:
                raise ValueError(
                    f"hit {hit} does not belong to domain "
                    f"{self.table}/{self.attribute}"
                )
        object.__setattr__(self, "domain", (self.table, self.attribute))
        object.__setattr__(self, "values",
                           tuple(h.value for h in self.hits))

    @property
    def size(self) -> int:
        """|HG|: number of hits in the group."""
        return len(self.hits)

    @cached_property
    def _mean_score(self) -> float:
        return ordered_sum(h.score for h in self.hits) / len(self.hits)

    def mean_score(self) -> float:
        """Average full-text relevance over the group's hits."""
        return self._mean_score

    @cached_property
    def label(self) -> str:
        """The group as one line: its domain and first three values."""
        values = " OR ".join(repr(v) for v in self.values[:3])
        if len(self.hits) > 3:
            values += f" OR ... ({len(self.hits)} values)"
        return f"{self.table}/{self.attribute}/{{{values}}}"

    def __str__(self) -> str:
        return self.label


def retrieve_hit_set(
    index: AttributeTextIndex,
    keyword: str,
    max_hits: int = 200,
    min_score: float = 0.0,
    fuzzy: bool = False,
) -> list[SearchHit]:
    """H_i: the ranked hits of one keyword (capped at ``max_hits``)."""
    return index.search(keyword, limit=max_hits, min_score=min_score,
                        fuzzy=fuzzy)


def group_hits(keyword: str, hits: list[SearchHit]) -> list[HitGroup]:
    """Partition a hit set into hit groups by attribute domain.

    Groups are ordered by their best hit score so downstream candidate caps
    keep the most relevant domains.
    """
    by_domain: dict[tuple[str, str], list[SearchHit]] = {}
    for hit in hits:
        by_domain.setdefault(hit.domain, []).append(hit)
    groups = [
        HitGroup(table, attribute, tuple(domain_hits), (keyword,))
        for (table, attribute), domain_hits in by_domain.items()
    ]
    groups.sort(key=lambda g: (-max(h.score for h in g.hits), g.table, g.attribute))
    return groups


def retrieve_hit_groups(
    index: AttributeTextIndex,
    keyword: str,
    max_hits: int = 200,
    max_groups: int | None = None,
    fuzzy: bool = False,
) -> list[HitGroup]:
    """Probe the index for one keyword and return its hit groups."""
    hits = retrieve_hit_set(index, keyword, max_hits=max_hits, fuzzy=fuzzy)
    groups = group_hits(keyword, hits)
    if max_groups is not None:
        groups = groups[:max_groups]
    return groups
