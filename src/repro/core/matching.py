"""The pluggable keyword-matcher chain (interpretation stage 2).

The seed front end assumed every keyword resolves to a
:class:`~repro.core.hits.HitGroup` — a set of *cell values* the text
index found.  SODA-style keyword interpretation widens that: a keyword
may instead name a piece of *schema metadata* ("month" →
``DimDate.MonthName``), a *measure* ("revenue"), or take part in a
*business pattern* ("top 3", "by month") that compiles into
group-by/order/limit hints rather than predicates.

This module defines the typed :class:`MatchCandidate` the whole
pipeline speaks, and the three concrete matchers:

* :class:`ValueMatcher` — the existing text-index probe, emitting
  ``VALUE`` candidates with confidence 1.0 (an exact cell hit is the
  strongest evidence there is);
* :class:`MetadataMatcher` — table/attribute/measure names (CamelCase
  split + Porter stem) and the schema's
  :class:`~repro.core.synonyms.SynonymRegistry`;
* :class:`PatternMatcher` — multi-token business phrases, scanned
  *before* per-keyword matching so "top 3" is never mistaken for two
  independent keywords.

:class:`MatcherChain` runs them with fallback semantics: pattern spans
claim their tokens first, then each remaining keyword tries the value
matcher and falls back to metadata only when no cell value matched.
A query whose keywords all value-match therefore gets exactly the
paper's hit-group candidates.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Sequence

from ..textindex.index import AttributeTextIndex
from ..textindex.stemmer import stem
from ..warehouse.schema import GroupByAttribute, StarSchema
from .hits import HitGroup, retrieve_hit_groups
from .synonyms import SynonymRegistry

#: Matcher names in their default chain order.
DEFAULT_MATCHERS: tuple[str, ...] = ("value", "metadata", "pattern")

#: Comparatives that compile into an ordering hint without a count.
_DESC_WORDS = frozenset(
    {"highest", "largest", "biggest", "best", "most"})
_ASC_WORDS = frozenset(
    {"lowest", "smallest", "cheapest", "least", "worst", "fewest"})


class MatchKind(enum.Enum):
    """What a candidate contributes to an interpretation."""

    VALUE = "value"          # predicate group (table.attr IN values)
    ATTRIBUTE = "attribute"  # group-by attribute reference
    MEASURE = "measure"      # measure reference
    MODIFIER = "modifier"    # group-by/order/limit hints


@dataclass(frozen=True)
class Modifier:
    """Presentation hints a pattern compiles into (never predicates)."""

    group_by: tuple[GroupByAttribute, ...] = ()
    order: str | None = None  # "desc" | "asc"
    limit: int | None = None

    @property
    def active(self) -> bool:
        return bool(self.group_by or self.order or self.limit)

    def merged(self, other: "Modifier") -> "Modifier":
        """Combine two modifiers; the first one wins on conflicts."""
        group_by = list(self.group_by)
        for gb in other.group_by:
            if gb not in group_by:
                group_by.append(gb)
        return Modifier(
            group_by=tuple(group_by),
            order=self.order or other.order,
            limit=self.limit if self.limit is not None else other.limit,
        )

    def __str__(self) -> str:
        parts = []
        if self.group_by:
            parts.append("by " + ", ".join(str(gb.ref)
                                           for gb in self.group_by))
        if self.order:
            parts.append(f"order {self.order}")
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        return "; ".join(parts)


EMPTY_MODIFIER = Modifier()


@dataclass(frozen=True)
class MatchCandidate:
    """One way a keyword (or token span) can be interpreted.

    Exactly one payload field is set, per ``kind``; ``matcher`` records
    provenance (which chain stage produced it) and ``confidence`` is
    folded into the interpretation score downstream.
    """

    kind: MatchKind
    keywords: tuple[str, ...]
    matcher: str
    confidence: float
    hit_group: HitGroup | None = None
    attribute: GroupByAttribute | None = None
    measure: str | None = None
    modifier: Modifier | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in (0, 1], got {self.confidence}")

    @property
    def target(self) -> str:
        """A stable textual label of what was matched (for dedup/sort)."""
        if self.kind is MatchKind.VALUE:
            return f"{self.hit_group.table}.{self.hit_group.attribute}"
        if self.kind is MatchKind.ATTRIBUTE:
            return str(self.attribute.ref)
        if self.kind is MatchKind.MEASURE:
            return f"measure:{self.measure}"
        return str(self.modifier)

    def __str__(self) -> str:
        words = " ".join(self.keywords)
        return (f"{words!r} -> {self.kind.value} {self.target} "
                f"[{self.matcher} {self.confidence:.2f}]")


@dataclass(frozen=True)
class MatchSlot:
    """One consumed token span with its alternative candidates.

    Enumeration takes the cross product over slots, picking one
    candidate per slot — exactly the per-keyword hit-group cross
    product of the paper's Algorithm 1, generalised to mixed kinds.
    """

    keywords: tuple[str, ...]
    candidates: tuple[MatchCandidate, ...]
    matcher: str


@dataclass(frozen=True)
class PatternSpan:
    """A pattern match over ``tokens[start:stop]``."""

    start: int
    stop: int
    candidates: tuple[MatchCandidate, ...]


@dataclass
class MatchOutcome:
    """Everything the match stage hands to enumeration + diagnostics."""

    slots: list[MatchSlot] = field(default_factory=list)
    unmatched: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)


def camel_words(name: str) -> list[str]:
    """Lowercased word split of an identifier: CamelCase, digits, and
    separators all break words (``"CalendarYearName"`` → ``["calendar",
    "year", "name"]``)."""
    parts = re.findall(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|\d+", name)
    return [p.lower() for p in parts]


# ----------------------------------------------------------------------
# concrete matchers
# ----------------------------------------------------------------------
class ValueMatcher:
    """The paper's matcher: probe the text index per keyword."""

    name = "value"

    def __init__(self, index: AttributeTextIndex):
        self.index = index

    def match_keyword(self, keyword: str,
                      config) -> list[MatchCandidate]:
        groups = retrieve_hit_groups(
            self.index, keyword,
            max_hits=config.max_hits_per_keyword,
            max_groups=config.max_groups_per_keyword,
            fuzzy=config.fuzzy_matching,
        )
        return [
            MatchCandidate(
                kind=MatchKind.VALUE, keywords=(keyword,),
                matcher=self.name, confidence=1.0, hit_group=group,
                detail=f"{group.size} hits in {group.table}."
                       f"{group.attribute}",
            )
            for group in groups
        ]


class MetadataMatcher:
    """Schema metadata + synonym registry lookups.

    The name table is built once per schema: every declared group-by
    attribute contributes its full column name (confidence 0.9) and
    each CamelCase word of it (0.7); measures contribute their names
    (0.9); a dimension-table name match expands to that table's first
    few group-bys (0.5, the vaguest evidence); synonym targets land in
    between (0.8 attributes, 0.85 measures).  All keys are Porter
    stems, matching the text index's analysis.
    """

    name = "metadata"

    _CONF_FULL_NAME = 0.9
    _CONF_MEASURE = 0.9
    _CONF_SYN_MEASURE = 0.85
    _CONF_SYNONYM = 0.8
    _CONF_NAME_WORD = 0.7
    _CONF_TABLE = 0.5
    _TABLE_EXPANSION_CAP = 3

    def __init__(self, schema: StarSchema,
                 synonyms: SynonymRegistry | None = None):
        self.schema = schema
        if synonyms is None:
            synonyms = SynonymRegistry(getattr(schema, "synonyms", None))
        self.synonyms = synonyms
        # stem -> {(kind, target-label): (confidence, candidate fields)}
        self._attrs: dict[str, dict[str, tuple[float, GroupByAttribute,
                                               str]]] = {}
        self._measures: dict[str, dict[str, tuple[float, str, str]]] = {}
        self._build_tables()

    # -- name-table construction ---------------------------------------
    def _add_attr(self, key: str, conf: float, gb: GroupByAttribute,
                  detail: str) -> None:
        bucket = self._attrs.setdefault(key, {})
        label = str(gb.ref)
        if label not in bucket or bucket[label][0] < conf:
            bucket[label] = (conf, gb, detail)

    def _add_measure(self, key: str, conf: float, measure: str,
                     detail: str) -> None:
        bucket = self._measures.setdefault(key, {})
        if measure not in bucket or bucket[measure][0] < conf:
            bucket[measure] = (conf, measure, detail)

    def _build_tables(self) -> None:
        schema = self.schema
        by_table: dict[str, list[GroupByAttribute]] = {}
        for dim in schema.dimensions:
            for gb in dim.groupbys:
                by_table.setdefault(gb.ref.table, []).append(gb)
                words = camel_words(gb.ref.column)
                full = stem("".join(words))
                self._add_attr(full, self._CONF_FULL_NAME, gb,
                               f"attribute name {gb.ref}")
                for word in words:
                    key = stem(word)
                    if key == full:
                        continue
                    self._add_attr(key, self._CONF_NAME_WORD, gb,
                                   f"word of {gb.ref}")
        for table, groupbys in by_table.items():
            bare = re.sub(r"^(Dim|Fact)", "", table)
            for word in camel_words(bare):
                for gb in groupbys[:self._TABLE_EXPANSION_CAP]:
                    self._add_attr(stem(word), self._CONF_TABLE, gb,
                                   f"table name {table}")
        for name in schema.measures:
            for word in camel_words(name):
                self._add_measure(stem(word), self._CONF_MEASURE, name,
                                  f"measure name {name}")
        for term in self.synonyms:
            for target in self.synonyms.lookup(term):
                if target.kind == "measure":
                    if target.measure in schema.measures:
                        self._add_measure(
                            stem(term.lower()), self._CONF_SYN_MEASURE,
                            target.measure, f"synonym {term!r}")
                    continue
                gb = self._declared_groupby(target.table, target.column)
                if gb is not None:
                    self._add_attr(stem(term.lower()),
                                   self._CONF_SYNONYM, gb,
                                   f"synonym {term!r}")

    def _declared_groupby(self, table: str,
                          column: str) -> GroupByAttribute | None:
        for dim in self.schema.dimensions:
            for gb in dim.groupbys:
                if gb.ref.table == table and gb.ref.column == column:
                    return gb
        return None

    # -- matching -------------------------------------------------------
    def resolve_attributes(self, token: str,
                           cap: int = 3) -> list[tuple[float,
                                                       GroupByAttribute,
                                                       str]]:
        """Attribute resolutions of one token, best first (for the
        pattern matcher's "by <attribute>" clause)."""
        key = stem(token.lower())
        found = sorted(self._attrs.get(key, {}).values(),
                       key=lambda t: (-t[0], str(t[1].ref)))
        return found[:cap]

    def match_keyword(self, keyword: str,
                      config) -> list[MatchCandidate]:
        key = stem(keyword.lower())
        out: list[MatchCandidate] = []
        for conf, name, detail in self._measures.get(key, {}).values():
            out.append(MatchCandidate(
                kind=MatchKind.MEASURE, keywords=(keyword,),
                matcher=self.name, confidence=conf, measure=name,
                detail=detail))
        for conf, gb, detail in self._attrs.get(key, {}).values():
            out.append(MatchCandidate(
                kind=MatchKind.ATTRIBUTE, keywords=(keyword,),
                matcher=self.name, confidence=conf, attribute=gb,
                detail=detail))
        out.sort(key=lambda c: (-c.confidence, c.kind.value, c.target))
        return out[:config.max_groups_per_keyword]


class PatternMatcher:
    """Multi-token business phrases → :class:`Modifier` hints.

    Recognised patterns (scanned left to right, longest first):

    * ``top <K>`` / ``bottom <K>`` — order desc/asc + limit K;
    * comparatives (``highest``, ``lowest``, ...) — order only;
    * ``by <attr>`` / ``per <attr>`` — group-by hint, accepted only
      when ``<attr>`` metadata-resolves (otherwise the tokens stay
      available to the rest of the chain).
    """

    name = "pattern"

    _CONF_TOP_K = 0.9
    _CONF_GROUP_BY = 0.85
    _CONF_COMPARATIVE = 0.8
    _MAX_LIMIT = 1000

    def __init__(self, metadata: MetadataMatcher):
        self.metadata = metadata

    def scan(self, keywords: Sequence[str]) -> list[PatternSpan]:
        tokens = [k.lower() for k in keywords]
        spans: list[PatternSpan] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if tok in ("top", "bottom") and nxt is not None \
                    and nxt.isdigit() and 0 < int(nxt) <= self._MAX_LIMIT:
                order = "desc" if tok == "top" else "asc"
                spans.append(PatternSpan(i, i + 2, (MatchCandidate(
                    kind=MatchKind.MODIFIER,
                    keywords=(keywords[i], keywords[i + 1]),
                    matcher=self.name, confidence=self._CONF_TOP_K,
                    modifier=Modifier(order=order, limit=int(nxt)),
                    detail=f"{tok} {nxt}"),)))
                i += 2
                continue
            if tok in _DESC_WORDS or tok in _ASC_WORDS:
                order = "desc" if tok in _DESC_WORDS else "asc"
                spans.append(PatternSpan(i, i + 1, (MatchCandidate(
                    kind=MatchKind.MODIFIER, keywords=(keywords[i],),
                    matcher=self.name,
                    confidence=self._CONF_COMPARATIVE,
                    modifier=Modifier(order=order),
                    detail=f"comparative {tok!r}"),)))
                i += 1
                continue
            if tok in ("by", "per") and nxt is not None:
                resolved = self.metadata.resolve_attributes(nxt)
                if resolved:
                    candidates = tuple(MatchCandidate(
                        kind=MatchKind.MODIFIER,
                        keywords=(keywords[i], keywords[i + 1]),
                        matcher=self.name,
                        confidence=self._CONF_GROUP_BY,
                        modifier=Modifier(group_by=(gb,)),
                        detail=f"{tok} {nxt} -> {gb.ref} ({why})")
                        for _conf, gb, why in resolved)
                    spans.append(PatternSpan(i, i + 2, candidates))
                    i += 2
                    continue
            i += 1
        return spans


# ----------------------------------------------------------------------
# the chain
# ----------------------------------------------------------------------
def validate_matchers(names: Sequence[str]) -> tuple[str, ...]:
    """Normalise a matcher selection; raises ValueError on junk."""
    out: list[str] = []
    for name in names:
        if name not in DEFAULT_MATCHERS:
            raise ValueError(
                f"unknown matcher {name!r}; choose from "
                f"{', '.join(DEFAULT_MATCHERS)}")
        if name not in out:
            out.append(name)
    if not out:
        raise ValueError("matcher chain must not be empty")
    return tuple(out)


class MatcherChain:
    """Ordered matcher chain bound to one schema + index.

    Built once per session — the metadata name table is derived from
    the schema eagerly so per-query matching is dictionary lookups.
    """

    def __init__(self, schema: StarSchema, index: AttributeTextIndex,
                 synonyms: SynonymRegistry | None = None):
        self.schema = schema
        self.index = index
        self.value = ValueMatcher(index)
        self.metadata = MetadataMatcher(schema, synonyms)
        self.pattern = PatternMatcher(self.metadata)

    def match(self, keywords: Sequence[str], config,
              matchers: Sequence[str] = DEFAULT_MATCHERS
              ) -> MatchOutcome:
        """Run the chain over a keyword list.

        Fallback semantics: pattern spans consume their tokens first;
        each remaining keyword is offered to the value matcher, then to
        the metadata matcher only when no cell value hit.  Stopword-only
        keywords are skipped (they carry no selection, as before); a
        keyword no enabled matcher accepts lands in ``unmatched``.
        """
        enabled = validate_matchers(matchers)
        outcome = MatchOutcome()
        counters = outcome.counters
        for name in enabled:
            counters.setdefault(f"{name}.candidates", 0)
            counters.setdefault(f"{name}.accepted", 0)
        consumed = [False] * len(keywords)
        positioned: list[tuple[int, MatchSlot]] = []

        if "pattern" in enabled:
            for span in self.pattern.scan(keywords):
                if any(consumed[span.start:span.stop]):
                    continue
                for i in range(span.start, span.stop):
                    consumed[i] = True
                counters["pattern.candidates"] += len(span.candidates)
                counters["pattern.accepted"] += 1
                positioned.append((span.start, MatchSlot(
                    tuple(keywords[span.start:span.stop]),
                    span.candidates, "pattern")))

        skipped: list[str] = []
        unmatched: list[str] = []
        for i, keyword in enumerate(keywords):
            if consumed[i]:
                continue
            if not self.index.analyzer.analyze(keyword):
                skipped.append(keyword)
                continue
            matched = False
            for name in enabled:
                if name == "pattern":
                    continue
                matcher = self.value if name == "value" else self.metadata
                candidates = matcher.match_keyword(keyword, config)
                counters[f"{name}.candidates"] += len(candidates)
                if candidates:
                    counters[f"{name}.accepted"] += 1
                    positioned.append((i, MatchSlot(
                        (keyword,), tuple(candidates), name)))
                    matched = True
                    break
            if not matched:
                unmatched.append(keyword)

        positioned.sort(key=lambda pair: pair[0])
        outcome.slots = [slot for _, slot in positioned]
        outcome.unmatched = tuple(unmatched)
        outcome.skipped = tuple(skipped)
        return outcome
