"""Hit retrieval and hit-group formation."""

import pytest

from repro.core import HitGroup, group_hits, retrieve_hit_groups
from repro.textindex import AttributeTextIndex, SearchHit


@pytest.fixture
def index():
    idx = AttributeTextIndex()
    idx.add_value("Loc", "City", "Columbus")
    idx.add_value("Loc", "City", "Columbia")
    idx.add_value("Holiday", "Event", "Columbus Day")
    return idx


class TestHitGroup:
    def test_requires_hits(self):
        with pytest.raises(ValueError):
            HitGroup("T", "A", (), ("k",))

    def test_rejects_foreign_hits(self):
        hit = SearchHit("Other", "A", "v", 1.0)
        with pytest.raises(ValueError):
            HitGroup("T", "A", (hit,), ("k",))

    def test_values_and_size(self):
        hits = (SearchHit("T", "A", "x", 1.0), SearchHit("T", "A", "y", 2.0))
        group = HitGroup("T", "A", hits, ("k",))
        assert group.values == ("x", "y")
        assert group.size == 2
        assert group.mean_score() == 1.5
        assert group.domain == ("T", "A")

    def test_mean_score_adds_left_to_right(self):
        """The star-net score's group mean adds hit scores one by one:
        1e16 + 1.0 rounds back to 1e16, so the mean is 0.0 on every
        Python version (a compensated sum would give 1/3)."""
        hits = tuple(SearchHit("T", "A", f"v{i}", score)
                     for i, score in enumerate((1e16, 1.0, -1e16)))
        assert HitGroup("T", "A", hits, ("k",)).mean_score() == 0.0

    def test_str_truncates(self):
        hits = tuple(SearchHit("T", "A", f"v{i}", 1.0) for i in range(5))
        group = HitGroup("T", "A", hits, ("k",))
        assert "5 values" in str(group)


class TestGrouping:
    def test_groups_by_domain(self, index):
        hits = index.search("Columbus")
        groups = group_hits("Columbus", hits)
        domains = {g.domain for g in groups}
        assert domains == {("Loc", "City"), ("Holiday", "Event")}

    def test_groups_sorted_by_best_score(self, index):
        groups = retrieve_hit_groups(index, "Columbus")
        scores = [max(h.score for h in g.hits) for g in groups]
        assert scores == sorted(scores, reverse=True)

    def test_keyword_recorded(self, index):
        groups = retrieve_hit_groups(index, "Columbus")
        assert all(g.keywords == ("Columbus",) for g in groups)

    def test_max_groups(self, index):
        groups = retrieve_hit_groups(index, "Columbus", max_groups=1)
        assert len(groups) == 1

    def test_no_hits(self, index):
        assert retrieve_hit_groups(index, "zzz") == []
