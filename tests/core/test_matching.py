"""Unit tests per matcher: value, metadata, pattern, and the chain."""

import pytest

from repro.core import (
    DEFAULT_CONFIG,
    DEFAULT_MATCHERS,
    MatchKind,
    MatcherChain,
    MetadataMatcher,
    Modifier,
    SynonymRegistry,
    ValueMatcher,
    validate_matchers,
)
from repro.core.matching import PatternMatcher, camel_words
from repro.datasets.scale import build_scale
from repro.textindex.index import AttributeTextIndex


@pytest.fixture(scope="module")
def scale():
    return build_scale(num_facts=2000, seed=7)


@pytest.fixture(scope="module")
def scale_index(scale):
    index = AttributeTextIndex()
    index.index_database(scale.database, scale.searchable)
    return index


@pytest.fixture(scope="module")
def chain(scale, scale_index):
    return MatcherChain(scale, scale_index)


class TestCamelWords:
    @pytest.mark.parametrize("name,want", [
        ("CalendarYearName", ["calendar", "year", "name"]),
        ("MonthName", ["month", "name"]),
        ("ListPrice", ["list", "price"]),
        ("DimProduct", ["dim", "product"]),
        ("Fact2Sales", ["fact", "2", "sales"]),
        ("YEARLYIncome", ["yearly", "income"]),
    ])
    def test_split(self, name, want):
        assert camel_words(name) == want


class TestValueMatcher:
    def test_cell_value_hits_with_confidence_one(self, scale_index):
        matcher = ValueMatcher(scale_index)
        candidates = matcher.match_keyword("December", DEFAULT_CONFIG)
        assert candidates
        for cand in candidates:
            assert cand.kind is MatchKind.VALUE
            assert cand.confidence == 1.0
            assert cand.matcher == "value"
            assert cand.hit_group is not None
        assert any(c.hit_group.attribute == "MonthName"
                   for c in candidates)

    def test_unknown_keyword_matches_nothing(self, scale_index):
        matcher = ValueMatcher(scale_index)
        assert matcher.match_keyword("qqqzz", DEFAULT_CONFIG) == []


class TestMetadataMatcher:
    def test_full_attribute_name(self, scale):
        matcher = MetadataMatcher(scale)
        candidates = matcher.match_keyword("monthname", DEFAULT_CONFIG)
        best = candidates[0]
        assert best.kind is MatchKind.ATTRIBUTE
        assert str(best.attribute.ref) == "DimDate.MonthName"
        assert best.confidence == 0.9

    def test_measure_name(self, scale):
        matcher = MetadataMatcher(scale)
        candidates = matcher.match_keyword("revenue", DEFAULT_CONFIG)
        assert candidates[0].kind is MatchKind.MEASURE
        assert candidates[0].measure == "revenue"
        assert candidates[0].confidence == 0.9

    def test_schema_synonyms_resolve(self, scale):
        # SCALE_SYNONYMS maps "month" -> DimDate.MonthName and
        # "sales" -> measure:revenue; both must outrank weaker evidence
        matcher = MetadataMatcher(scale)
        month = matcher.match_keyword("month", DEFAULT_CONFIG)
        assert str(month[0].attribute.ref) == "DimDate.MonthName"
        sales = matcher.match_keyword("sales", DEFAULT_CONFIG)
        assert sales[0].kind is MatchKind.MEASURE
        assert sales[0].measure == "revenue"

    def test_explicit_registry_overrides_schema(self, scale):
        registry = SynonymRegistry({"widget": ["DimProduct.ProductName"]})
        matcher = MetadataMatcher(scale, synonyms=registry)
        candidates = matcher.match_keyword("widget", DEFAULT_CONFIG)
        assert str(candidates[0].attribute.ref) == \
            "DimProduct.ProductName"
        # schema synonyms were replaced, not merged
        assert not any(c.detail.startswith("synonym")
                       for c in matcher.match_keyword("month",
                                                      DEFAULT_CONFIG))

    def test_synonym_to_undeclared_target_is_dropped(self, scale):
        registry = SynonymRegistry({"ghost": ["NoTable.NoColumn"],
                                    "void": ["measure:nope"]})
        matcher = MetadataMatcher(scale, synonyms=registry)
        assert matcher.match_keyword("ghost", DEFAULT_CONFIG) == []
        assert matcher.match_keyword("void", DEFAULT_CONFIG) == []

    def test_table_name_expands_with_low_confidence(self, scale):
        matcher = MetadataMatcher(scale)
        candidates = matcher.match_keyword("product", DEFAULT_CONFIG)
        assert candidates
        # the synonym (0.8) outranks the table expansion (0.5)
        assert candidates[0].confidence > 0.5
        assert any(c.confidence == 0.5 for c in candidates)

    def test_resolve_attributes_best_first(self, scale):
        matcher = MetadataMatcher(scale)
        resolved = matcher.resolve_attributes("month")
        assert resolved
        conf, gb, _why = resolved[0]
        assert str(gb.ref) == "DimDate.MonthName"
        assert conf == max(r[0] for r in resolved)

    def test_unknown_token_resolves_nothing(self, scale):
        matcher = MetadataMatcher(scale)
        assert matcher.resolve_attributes("qqqzz") == []
        assert matcher.match_keyword("qqqzz", DEFAULT_CONFIG) == []


class TestPatternMatcher:
    @pytest.fixture(scope="class")
    def pattern(self, scale):
        return PatternMatcher(MetadataMatcher(scale))

    def test_top_k(self, pattern):
        spans = pattern.scan(["top", "3"])
        assert len(spans) == 1
        assert (spans[0].start, spans[0].stop) == (0, 2)
        modifier = spans[0].candidates[0].modifier
        assert modifier == Modifier(order="desc", limit=3)

    def test_bottom_k(self, pattern):
        spans = pattern.scan(["bottom", "5"])
        assert spans[0].candidates[0].modifier == \
            Modifier(order="asc", limit=5)

    def test_absurd_limit_rejected(self, pattern):
        assert pattern.scan(["top", "100000"]) == []
        assert pattern.scan(["top", "0"]) == []

    @pytest.mark.parametrize("word,order", [
        ("highest", "desc"), ("best", "desc"),
        ("lowest", "asc"), ("cheapest", "asc"),
    ])
    def test_comparatives(self, pattern, word, order):
        spans = pattern.scan([word])
        assert spans[0].candidates[0].modifier.order == order
        assert spans[0].candidates[0].modifier.limit is None

    def test_by_attribute_group_by_hint(self, pattern):
        spans = pattern.scan(["by", "month"])
        assert len(spans) == 1
        gbs = [c.modifier.group_by[0] for c in spans[0].candidates]
        assert any(str(gb.ref) == "DimDate.MonthName" for gb in gbs)

    def test_by_unresolvable_token_not_consumed(self, pattern):
        # "by qqqzz" leaves both tokens to the rest of the chain
        assert pattern.scan(["by", "qqqzz"]) == []

    def test_modifier_merge_first_wins(self):
        first = Modifier(order="desc", limit=3)
        second = Modifier(order="asc", limit=10)
        merged = first.merged(second)
        assert merged.order == "desc"
        assert merged.limit == 3


class TestValidateMatchers:
    def test_default_order_preserved(self):
        assert validate_matchers(["value", "metadata", "pattern"]) == \
            DEFAULT_MATCHERS

    def test_deduplicates(self):
        assert validate_matchers(["value", "value"]) == ("value",)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown matcher"):
            validate_matchers(["value", "bogus"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            validate_matchers([])


class TestMatcherChain:
    def test_value_match_shadows_metadata(self, chain):
        # "December" is a cell value: metadata must not even be probed
        outcome = chain.match(["December"], DEFAULT_CONFIG)
        assert len(outcome.slots) == 1
        assert outcome.slots[0].matcher == "value"
        assert outcome.counters["metadata.candidates"] == 0

    def test_metadata_fallback_when_no_cell_hit(self, chain):
        outcome = chain.match(["month"], DEFAULT_CONFIG)
        assert outcome.slots[0].matcher == "metadata"
        assert outcome.counters["value.candidates"] == 0
        assert outcome.counters["metadata.accepted"] == 1

    def test_pattern_claims_tokens_first(self, chain):
        outcome = chain.match(["top", "3", "December"], DEFAULT_CONFIG)
        assert [slot.matcher for slot in outcome.slots] == \
            ["pattern", "value"]
        assert outcome.slots[0].keywords == ("top", "3")

    def test_slots_keep_token_order(self, chain):
        outcome = chain.match(["December", "by", "month"],
                              DEFAULT_CONFIG)
        assert [slot.matcher for slot in outcome.slots] == \
            ["value", "pattern"]

    def test_unmatched_keyword_reported(self, chain):
        outcome = chain.match(["qqqzz"], DEFAULT_CONFIG)
        assert outcome.slots == []
        assert outcome.unmatched == ("qqqzz",)

    def test_stopword_skipped_not_unmatched(self, chain):
        outcome = chain.match(["the", "December"], DEFAULT_CONFIG)
        assert outcome.skipped == ("the",)
        assert outcome.unmatched == ()

    def test_disabled_matchers_do_not_run(self, chain):
        outcome = chain.match(["month", "top", "3"], DEFAULT_CONFIG,
                              matchers=("value",))
        assert outcome.slots == []
        assert set(outcome.unmatched) == {"month", "top", "3"}
        assert "metadata.candidates" not in outcome.counters
