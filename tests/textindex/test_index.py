"""Attribute-level text index: search, phrases, value scoring."""

import pytest

from repro.relational import Database, Table, integer, text
from repro.textindex import AttributeTextIndex, TupleTextIndex


@pytest.fixture
def index():
    idx = AttributeTextIndex()
    idx.add_value("Loc", "City", "Columbus")
    idx.add_value("Loc", "City", "San Jose")
    idx.add_value("Loc", "City", "San Antonio")
    idx.add_value("Holiday", "Event", "Columbus Day")
    idx.add_value("PGroup", "GroupName", "LCD Projectors")
    idx.add_value("PGroup", "GroupName", "Flat Panel(LCD)")
    idx.add_value("PGroup", "GroupName", "Plasma TVs")
    idx.add_value("Product", "Name", "Mountain Bikes Deluxe")
    return idx


class TestSearch:
    def test_ambiguous_keyword_hits_multiple_domains(self, index):
        hits = index.search("Columbus")
        domains = {h.domain for h in hits}
        assert ("Loc", "City") in domains
        assert ("Holiday", "Event") in domains

    def test_exact_match_outscores_longer(self, index):
        hits = index.search("Columbus")
        assert hits[0].value == "Columbus"  # shorter doc, same idf

    def test_substring_token_matches(self, index):
        values = {h.value for h in index.search("LCD")}
        assert values == {"LCD Projectors", "Flat Panel(LCD)"}

    def test_stemming(self, index):
        values = {h.value for h in index.search("bike")}
        assert "Mountain Bikes Deluxe" in values

    def test_prefix_expansion(self, index):
        values = {h.value for h in index.search("Colum")}
        assert "Columbus" in values

    def test_prefix_expansion_disabled(self, index):
        assert index.search("Colum", prefix_expansion=False) == []

    def test_limit(self, index):
        assert len(index.search("san", limit=1)) == 1

    def test_no_hits(self, index):
        assert index.search("zzzz") == []

    def test_empty_query(self, index):
        assert index.search("") == []

    def test_deterministic_order(self, index):
        assert index.search("san") == index.search("san")


class TestPhraseSearch:
    def test_phrase_filters_non_contiguous(self, index):
        values = {h.value for h in index.search_phrase("San Jose")}
        assert values == {"San Jose"}

    def test_phrase_no_match(self, index):
        assert index.search_phrase("Jose San") == []


class TestScoreValue:
    def test_full_query_scoring(self, index):
        both = index.score_value("Loc", "City", "San Jose", "San Jose")
        one = index.score_value("Loc", "City", "San Antonio", "San Jose")
        assert both > one > 0.0

    def test_unknown_value_is_zero(self, index):
        assert index.score_value("Loc", "City", "Atlantis", "San") == 0.0

    def test_no_overlap_is_zero(self, index):
        assert index.score_value("Loc", "City", "Columbus", "plasma") == 0.0

    def test_repeated_query_term_doubles_the_score(self, index):
        once = index.score_value("Product", "Name", "Mountain Bikes Deluxe",
                                 "Bikes")
        twice = index.score_value("Product", "Name",
                                  "Mountain Bikes Deluxe", "Bikes Bikes")
        assert twice == 2 * once > 0.0


class TestScoreValues:
    VALUES = ["San Jose", "San Antonio", "Atlantis", "Columbus", "San Jose"]

    @pytest.mark.parametrize("query", [
        "San Jose", "san", "Columbus Day San", "plasma", "the of", "",
    ])
    def test_equals_one_value_form(self, index, query):
        assert index.score_values("Loc", "City", self.VALUES, query) == [
            index.score_value("Loc", "City", v, query) for v in self.VALUES]

    def test_unknown_values_score_zero(self, index):
        assert index.score_values("Loc", "City", ["Atlantis", "Columbus"],
                                  "Columbus")[0] == 0.0
        assert index.score_values("Nope", "City", ["Columbus"],
                                  "Columbus") == [0.0]

    def test_stopword_only_query(self, index):
        assert index.score_values("Loc", "City", ["San Jose", "Columbus"],
                                  "the of") == [0.0, 0.0]

    def test_empty_batch(self, index):
        assert index.score_values("Loc", "City", [], "San") == []


class TestIndexDatabase:
    def test_distinct_values_indexed(self):
        db = Database("D")
        t = Table("Dim", [integer("Id"), text("Name")])
        t.insert_many([
            {"Id": 1, "Name": "Alpha"},
            {"Id": 2, "Name": "Alpha"},   # duplicate value: one document
            {"Id": 3, "Name": "Beta"},
            {"Id": 4, "Name": None},
        ])
        db.add_table(t)
        idx = AttributeTextIndex()
        idx.index_database(db, {"Dim": ["Name"]})
        assert idx.num_documents == 2
        assert idx.domains() == {("Dim", "Name")}


class TestTupleIndex:
    def test_rows_as_documents(self):
        db = Database("D")
        t = Table("Dim", [integer("Id"), text("A"), text("B")])
        t.insert_many([
            {"Id": 1, "A": "mountain", "B": "bike"},
            {"Id": 2, "A": "road", "B": "bike"},
        ])
        db.add_table(t)
        idx = TupleTextIndex()
        idx.index_database(db, {"Dim": ["A", "B"]})
        hits = idx.search("mountain")
        assert [(t, r) for t, r, _s in hits] == [("Dim", 0)]

    def test_cannot_tell_attribute_apart(self):
        """The §3 motivating example: tuple-level indexing cannot
        distinguish which attribute matched."""
        db = Database("D")
        t = Table("Product", [integer("Id"), text("Product"),
                              text("Category")])
        t.insert_many([
            {"Id": 1, "Product": "ABC EFG", "Category": "TGS SDF"},
            {"Id": 2, "Product": "ERT EFG", "Category": "ABC"},
        ])
        db.add_table(t)
        idx = TupleTextIndex()
        idx.index_database(db, {"Product": ["Product", "Category"]})
        hits = idx.search("ABC")
        # both tuples match and nothing in the result separates a product
        # match from a category match
        assert {(t, r) for t, r, _s in hits} == {("Product", 0),
                                                 ("Product", 1)}


class TestFuzzySearch:
    def test_typo_still_hits(self, index):
        hits = index.search("Colombus", fuzzy=True,
                            prefix_expansion=False)
        values = {h.value for h in hits}
        assert "Columbus" in values

    def test_fuzzy_off_by_default(self, index):
        assert index.search("Colombus", prefix_expansion=False) == []

    def test_exact_match_outranks_fuzzy(self, index):
        idx = AttributeTextIndex()
        idx.add_value("T", "A", "Columbus")
        idx.add_value("T", "A", "Columbia")
        hits = idx.search("Columbus", fuzzy=True)
        assert hits[0].value == "Columbus"
