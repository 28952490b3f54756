"""Phrase-query hit-group merging (§4.3)."""

import pytest

from repro.core import HitGroup, merge_seed_groups, phrases, try_merge
from repro.textindex import AttributeTextIndex


@pytest.fixture
def index():
    idx = AttributeTextIndex()
    for city in ("San Jose", "San Antonio", "San Francisco", "Palo Alto"):
        idx.add_value("Loc", "City", city)
    idx.add_value("PGroup", "Name", "Software")
    idx.add_value("PGroup", "Name", "Electronics")
    return idx


def group_for(index, keyword):
    hits = tuple(h for h in index.search(keyword)
                 if h.domain == ("Loc", "City"))
    return HitGroup("Loc", "City", hits, (keyword,))


class TestTryMerge:
    def test_merges_overlapping_same_domain(self, index):
        san = group_for(index, "San")
        jose = group_for(index, "Jose")
        merged = try_merge(san, jose, index)
        assert merged is not None
        assert merged.values == ("San Jose",)
        assert merged.keywords == ("San", "Jose")

    def test_rescored_with_phrase(self, index):
        san = group_for(index, "San")
        jose = group_for(index, "Jose")
        merged = try_merge(san, jose, index)
        # the merged score reflects both keywords and beats the raw
        # single-keyword retrieval score
        assert merged.hits[0].score > san.hits[0].score

    def test_baseline_raw_score_not_inflated(self, index):
        san = group_for(index, "San")
        jose = group_for(index, "Jose")
        merged = try_merge(san, jose, index)
        assert merged.hits[0].raw_score < merged.hits[0].score

    def test_different_domains_do_not_merge(self, index):
        city = group_for(index, "San")
        software = HitGroup("PGroup", "Name",
                            tuple(index.search("Software")), ("Software",))
        assert try_merge(city, software, index) is None

    def test_disjoint_groups_do_not_merge(self, index):
        """'Software Electronics' stays two side-by-side slices."""
        software = HitGroup(
            "PGroup", "Name",
            tuple(h for h in index.search("Software")
                  if h.domain == ("PGroup", "Name")), ("Software",))
        electronics = HitGroup(
            "PGroup", "Name",
            tuple(h for h in index.search("Electronics")
                  if h.domain == ("PGroup", "Name")), ("Electronics",))
        assert try_merge(software, electronics, index) is None


class TestMergeSeedGroups:
    def test_three_keyword_phrase(self):
        idx = AttributeTextIndex()
        idx.add_value("Loc", "State", "New South Wales")
        idx.add_value("Loc", "State", "New York")
        groups = tuple(
            HitGroup("Loc", "State",
                     tuple(h for h in idx.search(k)
                           if h.domain == ("Loc", "State")), (k,))
            for k in ("New", "South", "Wales")
        )
        merged = merge_seed_groups(groups, idx)
        assert len(merged) == 1
        assert merged[0].values == ("New South Wales",)
        assert merged[0].keywords == ("New", "South", "Wales")

    def test_shared_memo_tries_each_pair_once_and_keeps_its_operands(
            self, monkeypatch):
        idx = AttributeTextIndex()
        idx.add_value("Loc", "State", "New South Wales")
        idx.add_value("Loc", "State", "New York")
        groups = tuple(
            HitGroup("Loc", "State",
                     tuple(h for h in idx.search(k)
                           if h.domain == ("Loc", "State")), (k,))
            for k in ("New", "South", "Wales")
        )
        tried = []
        real = phrases.try_merge

        def counting(left, right, index):
            tried.append((left, right))
            return real(left, right, index)

        monkeypatch.setattr(phrases, "try_merge", counting)
        pairs = {}
        first = merge_seed_groups(groups, idx, pairs)
        assert merge_seed_groups(groups, idx, pairs) == first
        assert len(tried) == len(pairs) == 2
        # the intermediate "New South" group lives on in the memo, so no
        # later group can take its id while the memo is alive
        for (left_id, right_id), (left, right, _) in pairs.items():
            assert (left_id, right_id) == (id(left), id(right))

    def test_non_mergeable_left_alone(self, index):
        software = HitGroup("PGroup", "Name",
                            tuple(h for h in index.search("Software")
                                  if h.domain == ("PGroup", "Name")),
                            ("Software",))
        city = group_for(index, "San")
        merged = merge_seed_groups((software, city), index)
        assert len(merged) == 2
