"""The keyword front end (paper §4.2–4.4): tokenize → match →
enumerate → rank.

The stages:

1. **tokenize** — whitespace keyword split + measure-predicate peeling
   (:func:`split_query`);
2. **match** — the :class:`~repro.core.matching.MatcherChain` turns the
   keyword list into ordered :class:`~repro.core.matching.MatchSlot`\\ s
   of typed candidates (predicate hit groups, attribute/measure
   references, modifier hints) plus per-keyword diagnostics;
3. **enumerate** — the cross product over slots generalises the
   paper's hit-group cross product (Algorithm 1): value candidates
   phrase-merge (§4.3), rescore against the full query, and fan out
   over OLAP-valid join paths, while attribute/measure/modifier
   candidates ride along as hints on the :class:`Interpretation`;
4. **rank** — the paper's star-net score, multiplied by the combined
   match confidence.  Value candidates carry confidence 1.0, so a
   query whose keywords all hit cell values ranks by the paper's
   SCORE(SN, q) alone (pinned against ``tests/core/enumeration_oracle``).

An interpretation whose slots produced no hit group at all ("revenue
by month top 3" on a warehouse with no such cell values) yields an
empty-ray star net — the whole dataspace — plus hints; the explore
phase promotes the hinted group-bys and applies order/limit.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from ..obs.tracer import current_tracer
from ..relational.errors import ResourceExhausted
from ..resilience.budget import current_budget
from ..textindex.index import AttributeTextIndex, SearchHit
from ..warehouse.graph import EMPTY_PATH, JoinPath
from ..warehouse.schema import GroupByAttribute, StarSchema
from .hits import HitGroup
from .matching import (
    DEFAULT_MATCHERS,
    EMPTY_MODIFIER,
    MatchCandidate,
    MatcherChain,
    MatchKind,
    Modifier,
)
from .measure_hits import parse_measure_keyword
from .phrases import merge_seed_groups
from .ranking import RankingMethod, score_star_net
from .starnet import Ray, StarNet


@dataclass(frozen=True)
class Interpretation:
    """One candidate reading of a keyword query.

    Generalises the bare :class:`~repro.core.starnet.StarNet`: besides
    the predicate structure (rays + measure predicates) it carries the
    *hints* non-value matchers contributed — group-by attributes,
    measure references, and presentation modifiers — plus the match
    provenance and combined confidence.
    """

    star_net: StarNet
    attributes: tuple[GroupByAttribute, ...] = ()
    measures: tuple[str, ...] = ()
    modifier: Modifier = EMPTY_MODIFIER
    matches: tuple[MatchCandidate, ...] = ()
    confidence: float = 1.0

    @property
    def group_by_hints(self) -> tuple[GroupByAttribute, ...]:
        """Attribute hints + modifier group-bys, deduplicated in order."""
        out: list[GroupByAttribute] = []
        for gb in (*self.attributes, *self.modifier.group_by):
            if gb not in out:
                out.append(gb)
        return tuple(out)

    @property
    def measure_hint(self) -> str | None:
        """The first matched measure name, if any."""
        return self.measures[0] if self.measures else None

    @property
    def has_hints(self) -> bool:
        return bool(self.attributes or self.measures
                    or self.modifier.active)

    def fingerprint(self) -> str:
        """Stable digest of the interpretation's full shape (star net,
        hints, modifiers) — the cache/slow-log analogue of a plan
        fingerprint for the widened interpretation space."""
        return hashlib.sha1(
            self.describe().encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        parts = [str(self.star_net)] if self.star_net.rays \
            or self.star_net.measure_predicates else []
        if self.attributes:
            parts.append("attrs[" + ", ".join(
                str(gb.ref) for gb in self.attributes) + "]")
        if self.measures:
            parts.append("measures[" + ", ".join(self.measures) + "]")
        if self.modifier.active:
            parts.append(f"modifier[{self.modifier}]")
        if not parts:
            return str(self.star_net)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ScoredInterpretation:
    """An interpretation with its ranking score.

    ``subspace_size`` is an optional fact-row-count preview attached when
    the caller asks for it — how much data the interpretation covers,
    shown before committing to the (more expensive) explore phase.
    """

    interpretation: Interpretation
    score: float
    subspace_size: int | None = None

    @property
    def star_net(self) -> StarNet:
        return self.interpretation.star_net

    def __str__(self) -> str:
        size = "" if self.subspace_size is None \
            else f" ({self.subspace_size} facts)"
        return f"{self.interpretation}  [{self.score:.6f}]{size}"


@dataclass
class MatchReport:
    """Per-query diagnostics of the match stage.

    ``counters`` holds ``<matcher>.candidates`` / ``<matcher>.accepted``
    for every enabled matcher; ``unmatched`` lists keywords no matcher
    accepted (each becomes a diagnostics note instead of being silently
    dropped, as the seed front end did).
    """

    query: str = ""
    keywords: tuple[str, ...] = ()
    matchers: tuple[str, ...] = DEFAULT_MATCHERS
    unmatched: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    interpretations: int = 0

    def notes(self) -> list[str]:
        return [f"keyword {kw!r} matched no enabled matcher "
                f"({', '.join(self.matchers)})"
                for kw in self.unmatched]

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "keywords": list(self.keywords),
            "matchers": list(self.matchers),
            "unmatched": list(self.unmatched),
            "skipped": list(self.skipped),
            "counters": dict(sorted(self.counters.items())),
            "interpretations": self.interpretations,
        }


# ----------------------------------------------------------------------
# stage 1: tokenize, and the ray-path helpers of stage 3
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GenerationConfig:
    """Caps and knobs for candidate generation."""

    max_hits_per_keyword: int = 200
    max_groups_per_keyword: int = 8
    max_path_length: int = 5
    max_seeds: int = 200
    max_candidates: int = 400
    fuzzy_matching: bool = False
    """Also match keywords within one Levenshtein edit (typo
    tolerance), on top of stemming and prefix expansion."""


DEFAULT_CONFIG = GenerationConfig()


def split_keywords(query: str) -> list[str]:
    """Whitespace keyword split (the paper's q = {k1, ..., kn})."""
    return [k for k in query.split() if k]


def split_query(schema: StarSchema,
                query: str) -> tuple[list[str], list]:
    """Separate text keywords from measure predicates (§7 extension:
    ``revenue>5000``-style keywords become fact-level filters)."""
    keywords: list[str] = []
    predicates: list = []
    for keyword in split_keywords(query):
        predicate = parse_measure_keyword(schema, keyword)
        if predicate is not None:
            predicates.append(predicate)
        else:
            keywords.append(keyword)
    return keywords, predicates


def ray_dimension(schema: StarSchema, path: JoinPath) -> str | None:
    """The dimension a ray's path runs through.

    A valid OLAP ray stays inside one dimension: every non-fact table on
    the path must belong to it.  Returns the dimension name, or None for
    the empty path (fact-table hit).  Paths not containable in any single
    dimension are invalid interpretations → raises ValueError.
    """
    if not path.steps:
        return None
    tables = [t for t in path.tables if t not in schema.fact_complex]
    candidates = [
        dim.name
        for dim in schema.dimensions
        if all(t in dim.tables for t in tables)
    ]
    if not candidates:
        raise ValueError(f"path {path} crosses dimension boundaries")
    return candidates[0]


def valid_ray_paths(
    schema: StarSchema,
    hit_table: str,
    max_path_length: int,
) -> list[tuple[JoinPath, str | None]]:
    """All OLAP-valid (path, dimension) options from a hit table to the fact.

    * a hit on the fact table itself yields the empty path;
    * every other path must end at the fact table with its final step
      arriving as a child (dimensions are parents of the fact) and stay
      within one dimension.
    """
    if hit_table == schema.fact_table:
        return [(EMPTY_PATH, None)]
    options: list[tuple[JoinPath, str | None]] = []
    for path in schema.graph.join_paths(hit_table, schema.fact_table,
                                        max_length=max_path_length):
        try:
            dimension = ray_dimension(schema, path)
        except ValueError:
            continue
        options.append((path, dimension))
    return options


def rescore_group(group: HitGroup, index: AttributeTextIndex,
                  query: str) -> HitGroup:
    """Re-score every hit of a group against the full query string.

    §4.4 defines Sim(h.val, q) against the whole query, which is what lets
    multi-keyword instances dominate; retrieval-time scores were per
    keyword only.
    """
    scores = index.score_values(group.table, group.attribute, group.values,
                                query)
    hits = tuple(
        SearchHit(h.table, h.attribute, h.value, score,
                  retrieval_score=h.raw_score)
        for h, score in zip(group.hits, scores)
    )
    return HitGroup(group.table, group.attribute, hits, group.keywords)


# ----------------------------------------------------------------------
# stage 3: enumeration
# ----------------------------------------------------------------------
def _combine(combo) -> tuple[tuple, tuple[GroupByAttribute, ...],
                             tuple[str, ...], Modifier, float]:
    """Split one slot-candidate combo into its typed parts."""
    groups = tuple(c.hit_group for c in combo
                   if c.kind is MatchKind.VALUE)
    attributes: list[GroupByAttribute] = []
    measures: list[str] = []
    modifier = EMPTY_MODIFIER
    confidence = 1.0
    for cand in combo:
        confidence *= cand.confidence
        if cand.kind is MatchKind.ATTRIBUTE:
            if cand.attribute not in attributes:
                attributes.append(cand.attribute)
        elif cand.kind is MatchKind.MEASURE:
            if cand.measure not in measures:
                measures.append(cand.measure)
        elif cand.kind is MatchKind.MODIFIER:
            modifier = modifier.merged(cand.modifier)
    return groups, tuple(attributes), tuple(measures), modifier, \
        confidence


def _hint_key(attributes, measures, modifier) -> tuple:
    return (tuple(str(gb.ref) for gb in attributes), measures,
            str(modifier))


def enumerate_interpretations(
    schema: StarSchema,
    index: AttributeTextIndex,
    query: str,
    slots,
    measure_predicates: tuple,
    config: GenerationConfig,
) -> list[Interpretation]:
    """Cross product over slots → deduplicated interpretations.

    Two levels, as in Algorithm 1: the seed cross product (phrase
    merging inside each seed), then each seed's join-path cross product,
    both capped by ``config`` and charged to the ambient budget.  With no
    slots the one empty combo yields the ray-less star net: the whole
    dataspace, narrowed only by the measure predicates.

    Each hit is scored against the query once per call.  Four memos
    live only for the call: the rescored group per (domain, values,
    keywords); the merged, rescored seed per set of value hit groups,
    keyed by the groups' identities (the slots keep them alive for the
    whole call, and hashing a :class:`HitGroup` would hash every hit);
    the phrase merge per pair of groups, keyed the same way (see
    :func:`~repro.core.phrases.merge_seed_groups`); and the OLAP-valid
    ray paths per hit table.
    """
    rescored: dict[tuple, HitGroup] = {}
    merged_of: dict[tuple[int, ...], tuple] = {}
    pairs: dict[tuple[int, int], tuple] = {}

    def rescore(group: HitGroup) -> HitGroup:
        key = (group.domain, group.values, group.keywords)
        out = rescored.get(key)
        if out is None:
            out = rescored[key] = rescore_group(group, index, query)
        return out

    with current_tracer().span("starnet.enumerate") as span:
        budget = current_budget()
        seeds: list[tuple] = []
        seen_seeds: set[tuple] = set()
        combos = 0
        for combo in itertools.islice(
            itertools.product(*[slot.candidates for slot in slots]),
            config.max_seeds * 4,
        ):
            if budget is not None:
                try:
                    budget.check_deadline("generation")
                except ResourceExhausted as exc:
                    budget.record_truncation(
                        "generation", exc.reason,
                        f"seed enumeration stopped after {len(seeds)} seeds")
                    break
            combos += 1
            groups, attributes, measures, modifier, confidence = \
                _combine(combo)
            group_ids = tuple(map(id, groups))
            entry = merged_of.get(group_ids)
            if entry is None:
                merged = tuple(rescore(g) for g in
                               merge_seed_groups(groups, index, pairs))
                entry = merged_of[group_ids] = (
                    merged, tuple(sorted((g.domain, g.values)
                                         for g in merged)))
            merged, shape = entry
            key = (shape, _hint_key(attributes, measures, modifier))
            if key in seen_seeds:
                continue
            seen_seeds.add(key)
            seeds.append((merged, attributes, measures, modifier,
                          confidence, combo))
            if len(seeds) >= config.max_seeds:
                break

        interpretations = _star_nets(schema, seeds, measure_predicates,
                                     config, budget)
        span.set_tag("combos", combos)
        span.set_tag("seeds", len(seeds))
        span.set_tag("rescored", len(rescored))
        span.set_tag("merges", len(merged_of))
        span.set_tag("pair_merges", len(pairs))
        span.set_tag("candidates", len(interpretations))
    return interpretations


def _star_nets(schema: StarSchema, seeds: list[tuple],
               measure_predicates: tuple, config: GenerationConfig,
               budget) -> list[Interpretation]:
    """The join-path cross product of each seed, deduplicated and capped,
    with :func:`valid_ray_paths` asked once per hit table."""
    ray_paths: dict[str, list] = {}
    interpretations: list[Interpretation] = []
    seen: set[tuple] = set()
    for merged, attributes, measures, modifier, confidence, combo \
            in seeds:
        path_options = []
        feasible = True
        for group in merged:
            options = ray_paths.get(group.table)
            if options is None:
                options = ray_paths[group.table] = valid_ray_paths(
                    schema, group.table, config.max_path_length)
            if not options:
                feasible = False
                break
            path_options.append(
                [(group, path, dim) for path, dim in options])
        if not feasible:
            continue
        for path_combo in itertools.product(*path_options):
            rays = tuple(Ray(group, path, dim)
                         for group, path, dim in path_combo)
            key = (tuple(sorted((r.hit_group.domain, r.hit_group.values,
                                 r.path_to_fact.fk_names)
                                for r in rays)),
                   _hint_key(attributes, measures, modifier))
            if key in seen:
                continue
            seen.add(key)
            if budget is not None:
                try:
                    budget.check_deadline("generation")
                    budget.charge_interpretations(1)
                except ResourceExhausted as exc:
                    budget.record_truncation(
                        "generation", exc.reason,
                        f"star-net enumeration stopped after "
                        f"{len(interpretations)} candidates")
                    return interpretations
            interpretations.append(Interpretation(
                star_net=StarNet(schema.fact_table, rays,
                                 measure_predicates=measure_predicates),
                attributes=attributes,
                measures=measures,
                modifier=modifier,
                matches=tuple(combo),
                confidence=confidence,
            ))
            if len(interpretations) >= config.max_candidates:
                return interpretations
    return interpretations


# ----------------------------------------------------------------------
# the pipeline end to end
# ----------------------------------------------------------------------
def interpret_query(
    schema: StarSchema,
    index: AttributeTextIndex,
    query: str,
    config: GenerationConfig = DEFAULT_CONFIG,
    matchers: tuple[str, ...] = DEFAULT_MATCHERS,
    chain: MatcherChain | None = None,
) -> tuple[list[Interpretation], MatchReport]:
    """Stages 1–3: tokenize, match, enumerate.

    Returns the candidate interpretations plus the match-stage report.
    ``chain`` lets a session reuse its prebuilt matcher chain (the
    metadata name table is schema-derived and query-independent).
    """
    if chain is None:
        chain = MatcherChain(schema, index)
    keywords, predicates = split_query(schema, query)
    measure_predicates = tuple(predicates)
    tracer = current_tracer()

    with tracer.span("interpret.match", query=query):
        outcome = chain.match(keywords, config, matchers)
    report = MatchReport(
        query=query,
        keywords=tuple(keywords),
        matchers=tuple(matchers),
        unmatched=outcome.unmatched,
        skipped=outcome.skipped,
        counters=outcome.counters,
    )

    # every keyword must match; stopwords match nothing and say nothing,
    # so a query left with only measure predicates selects a subspace
    # of the whole dataspace
    if outcome.unmatched or not (outcome.slots or measure_predicates):
        return [], report

    interpretations = enumerate_interpretations(
        schema, index, query, outcome.slots, measure_predicates, config)
    report.interpretations = len(interpretations)
    return interpretations, report


def score_interpretation(
    interpretation: Interpretation,
    method: RankingMethod = RankingMethod.STANDARD,
) -> float:
    """The star-net score with match confidence folded in.

    Interpretations with rays keep the paper's SCORE(SN, q) as the
    base — all-value interpretations have confidence 1.0, so their
    scores are the paper's exactly.  A ray-less
    interpretation that still says something (hints or measure
    predicates from non-value matchers) gets base 1.0 scaled by its
    confidence; a ray-less one without hints (pure measure-predicate
    queries) scores 0.0, as :func:`score_star_net` does.
    """
    net = interpretation.star_net
    if net.rays:
        base = score_star_net(net, method)
    elif interpretation.has_hints:
        base = 1.0
    else:
        base = 0.0
    return base * interpretation.confidence


def rank_interpretations(
    interpretations: list[Interpretation],
    method: RankingMethod = RankingMethod.STANDARD,
) -> list[ScoredInterpretation]:
    """Score and sort, best first; ties break on textual form (star
    net first, hints second)."""
    scored = [
        ScoredInterpretation(interp, score_interpretation(interp, method))
        for interp in interpretations
    ]
    scored.sort(key=lambda s: (-s.score, str(s.star_net),
                               s.interpretation.describe()))
    return scored
