"""Pinned oracles: the unmemoised interpretation walk and the paper's
value-only front end built on it.

``oracle_enumerate_interpretations`` is the body
``enumerate_interpretations`` had before it memoised rescored groups,
merged seeds and ray paths within one call: every combo phrase-merges its
value groups again and rescores every hit against the query with one
``score_value`` call per hit, and every seed asks ``valid_ray_paths``
again.  It shares no memo and no batch scorer with the production walk,
which is what makes it an oracle for the memoised path.

``oracle_front_end`` is Algorithm 1 + §4.4 end to end without the
matcher chain or ``rank_interpretations``: one slot of cell-value hit
groups per keyword straight from the text index, the walk above, and the
paper's score.
"""

import itertools

from repro.core.hits import HitGroup, retrieve_hit_groups
from repro.core.interpret import (
    Interpretation,
    ScoredInterpretation,
    _combine,
    _hint_key,
    split_query,
    valid_ray_paths,
)
from repro.core.matching import MatchCandidate, MatchKind, MatchSlot
from repro.core.ranking import score_star_net
from repro.core.starnet import Ray, StarNet
from repro.relational.errors import ResourceExhausted
from repro.resilience.budget import current_budget
from repro.textindex.index import SearchHit


def _rescore(group, index, query):
    hits = tuple(
        SearchHit(h.table, h.attribute, h.value,
                  index.score_value(h.table, h.attribute, h.value, query),
                  retrieval_score=h.raw_score)
        for h in group.hits
    )
    return HitGroup(group.table, group.attribute, hits, group.keywords)


def _try_merge(left, right, index):
    if left.domain != right.domain:
        return None
    shared_values = set(left.values) & set(right.values)
    if not shared_values:
        return None
    keywords = left.keywords + right.keywords
    phrase = " ".join(keywords)
    raw_left = {h.value: h.raw_score for h in left.hits}
    raw_right = {h.value: h.raw_score for h in right.hits}
    merged_hits = []
    for value in sorted(shared_values):
        score = index.score_value(left.table, left.attribute, value, phrase)
        raw = (raw_left[value] + raw_right[value]) / 2.0
        merged_hits.append(
            SearchHit(left.table, left.attribute, value, score,
                      retrieval_score=raw))
    merged_hits.sort(key=lambda h: (-h.score, h.value))
    return HitGroup(left.table, left.attribute, tuple(merged_hits), keywords)


def _merge_seed_groups(groups, index):
    current = list(groups)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                merged = _try_merge(current[i], current[j], index)
                if merged is not None:
                    current[i] = merged
                    del current[j]
                    changed = True
                    break
            if changed:
                break
    return tuple(current)


def oracle_enumerate_interpretations(schema, index, query, slots,
                                     measure_predicates, config):
    """Cross product over slots → deduplicated interpretations, with no
    memo: same caps, dedup keys, budget charging and truncation notes."""
    budget = current_budget()
    seeds = []
    seen_seeds = set()
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
        groups, attributes, measures, modifier, confidence = \
            _combine(combo)
        merged = _merge_seed_groups(groups, index) if groups else ()
        merged = tuple(_rescore(g, index, query) for g in merged)
        key = (tuple(sorted((g.domain, g.values) for g in merged)),
               _hint_key(attributes, measures, modifier))
        if key in seen_seeds:
            continue
        seen_seeds.add(key)
        seeds.append((merged, attributes, measures, modifier,
                      confidence, combo))
        if len(seeds) >= config.max_seeds:
            break

    interpretations = []
    seen = set()
    for merged, attributes, measures, modifier, confidence, combo \
            in seeds:
        path_options = []
        feasible = True
        for group in merged:
            options = valid_ray_paths(schema, group.table,
                                      config.max_path_length)
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


def oracle_front_end(schema, index, query, config, method):
    """The paper's value-only front end: every keyword must hit cell
    values, stopword-only keywords are skipped, and a query left with
    only measure predicates selects the whole dataspace.  Ranked best
    first, ties broken on the star net's text."""
    keywords, predicates = split_query(schema, query)
    slots = []
    for keyword in keywords:
        if not index.analyzer.analyze(keyword):
            continue
        groups = retrieve_hit_groups(
            index, keyword,
            max_hits=config.max_hits_per_keyword,
            max_groups=config.max_groups_per_keyword,
            fuzzy=config.fuzzy_matching)
        if not groups:
            return []
        slots.append(MatchSlot((keyword,), tuple(
            MatchCandidate(kind=MatchKind.VALUE, keywords=(keyword,),
                           matcher="value", confidence=1.0, hit_group=g)
            for g in groups), "value"))
    if not slots and not predicates:
        return []
    interpretations = oracle_enumerate_interpretations(
        schema, index, query, slots, tuple(predicates), config)
    scored = [ScoredInterpretation(i, score_star_net(i.star_net, method))
              for i in interpretations]
    scored.sort(key=lambda s: (-s.score, str(s.star_net)))
    return scored
