"""Candidate star-net generation (paper §4.2, Algorithm 1).

Pipeline:

1. split the query into keywords and probe the full-text index per keyword;
2. organise each hit set into hit groups (one per attribute domain);
3. take the cross product of hit groups across keywords → star seeds;
4. apply phrase merging inside each seed (§4.3) and deduplicate;
5. for each hit group, enumerate join paths from its table to the fact
   table, keeping only paths that stay inside a single dimension (the
   OLAP-validity restriction of §4.2);
6. take the cross product of path choices → star nets, with alias/merge
   semantics applied by :class:`~repro.core.starnet.StarNet`.

All fan-outs are capped by :class:`GenerationConfig` so pathological
queries degrade gracefully instead of exploding.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from ..obs.tracer import current_tracer
from ..relational.errors import ResourceExhausted
from ..resilience.budget import current_budget
from ..textindex.index import AttributeTextIndex, SearchHit
from ..warehouse.graph import EMPTY_PATH, JoinPath
from ..warehouse.schema import StarSchema
from .hits import HitGroup, retrieve_hit_groups
from .phrases import merge_seed_groups
from .starnet import Ray, StarNet, StarSeed


@dataclass(frozen=True)
class GenerationConfig:
    """Caps and knobs for candidate generation."""

    max_hits_per_keyword: int = 200
    max_groups_per_keyword: int = 8
    max_path_length: int = 5
    max_seeds: int = 200
    max_candidates: int = 400
    require_all_keywords: bool = True
    enable_measure_predicates: bool = True
    """Recognise ``revenue>5000``-style keywords as fact-level filters
    (the paper's §7 measure-attribute extension)."""
    fuzzy_matching: bool = False
    """Also match keywords within one Levenshtein edit (typo
    tolerance), on top of stemming and prefix expansion."""


logger = logging.getLogger(__name__)

DEFAULT_CONFIG = GenerationConfig()


def split_keywords(query: str) -> list[str]:
    """Whitespace keyword split (the paper's q = {k1, ..., kn})."""
    return [k for k in query.split() if k]


def split_query(schema: StarSchema, query: str,
                config: GenerationConfig) -> tuple[list[str], list]:
    """Separate text keywords from measure predicates (§7 extension)."""
    from .measure_hits import parse_measure_keyword

    keywords: list[str] = []
    predicates: list = []
    for keyword in split_keywords(query):
        predicate = (parse_measure_keyword(schema, keyword)
                     if config.enable_measure_predicates else None)
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


def generate_star_seeds(
    schema: StarSchema,
    index: AttributeTextIndex,
    query: str,
    config: GenerationConfig = DEFAULT_CONFIG,
) -> list[StarSeed]:
    """Steps 1-4: keyword probing, hit grouping, cross product, phrase merge."""
    keywords, _predicates = split_query(schema, query, config)
    per_keyword: list[list[HitGroup]] = []
    for keyword in keywords:
        if not index.analyzer.analyze(keyword):
            # stopword-only keyword ("for", "or") — carries no selection
            continue
        groups = retrieve_hit_groups(
            index,
            keyword,
            max_hits=config.max_hits_per_keyword,
            max_groups=config.max_groups_per_keyword,
            fuzzy=config.fuzzy_matching,
        )
        if groups:
            per_keyword.append(groups)
        elif config.require_all_keywords:
            return []
    if not per_keyword:
        return []

    budget = current_budget()
    seeds: list[StarSeed] = []
    seen: set[tuple] = set()
    for combo in itertools.islice(
        itertools.product(*per_keyword), config.max_seeds * 4
    ):
        if budget is not None:
            try:
                budget.check_deadline("generation")
            except ResourceExhausted as exc:
                budget.record_truncation(
                    "generation", exc.reason,
                    f"seed enumeration stopped after {len(seeds)} seeds")
                break
        merged = merge_seed_groups(tuple(combo), index)
        merged = tuple(rescore_group(g, index, query) for g in merged)
        key = tuple(sorted((g.domain, g.values) for g in merged))
        if key in seen:
            continue
        seen.add(key)
        seeds.append(StarSeed(merged))
        if len(seeds) >= config.max_seeds:
            break
    return seeds


def generate_candidates(
    schema: StarSchema,
    index: AttributeTextIndex,
    query: str,
    config: GenerationConfig = DEFAULT_CONFIG,
) -> list[StarNet]:
    """Algorithm 1 end to end: all candidate star nets for a keyword query."""
    with current_tracer().span("starnet.enumerate") as span:
        candidates = _generate_candidates(schema, index, query, config)
        span.set_tag("candidates", len(candidates))
    return candidates


def _generate_candidates(
    schema: StarSchema,
    index: AttributeTextIndex,
    query: str,
    config: GenerationConfig,
) -> list[StarNet]:
    keywords, predicates = split_query(schema, query, config)
    measure_predicates = tuple(predicates)
    if not keywords and measure_predicates:
        # pure measure queries select a subspace of the whole dataspace
        return [StarNet(schema.fact_table, (),
                        measure_predicates=measure_predicates)]
    seeds = generate_star_seeds(schema, index, query, config)
    budget = current_budget()
    candidates: list[StarNet] = []
    seen: set[tuple] = set()
    for seed in seeds:
        path_options = []
        feasible = True
        for group in seed.hit_groups:
            options = valid_ray_paths(schema, group.table,
                                      config.max_path_length)
            if not options:
                feasible = False
                break
            path_options.append([(group, path, dim) for path, dim in options])
        if not feasible:
            continue
        for combo in itertools.product(*path_options):
            rays = tuple(
                Ray(group, path, dim) for group, path, dim in combo
            )
            key = tuple(
                sorted((r.hit_group.domain, r.hit_group.values,
                        r.path_to_fact.fk_names) for r in rays)
            )
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
                        f"{len(candidates)} candidates")
                    return candidates
            candidates.append(
                StarNet(schema.fact_table, rays,
                        measure_predicates=measure_predicates)
            )
            if len(candidates) >= config.max_candidates:
                logger.debug(
                    "candidate cap reached for %r (%d candidates)",
                    query, len(candidates))
                return candidates
    logger.debug("%r: %d seeds -> %d candidate star nets",
                 query, len(seeds), len(candidates))
    return candidates
