"""The staged pipeline: enumeration over mixed candidate kinds,
confidence-folded ranking, and match diagnostics."""

import pytest

from repro.core import (
    DEFAULT_CONFIG,
    Interpretation,
    MatcherChain,
    Modifier,
    RankingMethod,
    StarNet,
    interpret_query,
    rank_interpretations,
    score_interpretation,
)
from repro.core.interpret import MatchReport
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


def interpret(scale, scale_index, chain, query, **kwargs):
    return interpret_query(scale, scale_index, query, DEFAULT_CONFIG,
                           chain=chain, **kwargs)


class TestMixedEnumeration:
    def test_hints_only_query_yields_empty_ray_net(self, scale,
                                                   scale_index, chain):
        interps, report = interpret(scale, scale_index, chain,
                                    "revenue by month top 3")
        assert report.unmatched == ()
        assert len(interps) >= 1
        top = interps[0]
        assert top.star_net.rays == ()
        assert top.measures == ("revenue",)
        assert top.modifier.order == "desc"
        assert top.modifier.limit == 3
        assert any(str(gb.ref) == "DimDate.MonthName"
                   for gb in top.group_by_hints)
        assert 0.0 < top.confidence < 1.0

    def test_value_and_hint_mix(self, scale, scale_index, chain):
        interps, report = interpret(scale, scale_index, chain,
                                    "December revenue")
        assert interps
        top = interps[0]
        assert top.star_net.rays  # December -> MonthName predicate
        assert top.measures == ("revenue",)
        # value (1.0) * measure (0.9)
        assert top.confidence == pytest.approx(0.9)

    def test_unmatched_keyword_fails_conjunctive_query(self, scale,
                                                       scale_index,
                                                       chain):
        interps, report = interpret(scale, scale_index, chain,
                                    "December qqqzz")
        assert interps == []
        assert report.unmatched == ("qqqzz",)
        notes = report.notes()
        assert len(notes) == 1
        assert "qqqzz" in notes[0]
        assert "value, metadata, pattern" in notes[0]

    def test_counters_cover_enabled_matchers(self, scale, scale_index,
                                             chain):
        _, report = interpret(scale, scale_index, chain,
                              "revenue by month top 3")
        assert report.counters["pattern.accepted"] == 2
        assert report.counters["metadata.accepted"] == 1
        assert report.counters["value.accepted"] == 0
        assert report.interpretations >= 1

    def test_value_only_selection_drops_hints(self, scale, scale_index,
                                              chain):
        interps, report = interpret(scale, scale_index, chain,
                                    "December", matchers=("value",))
        assert interps
        for interp in interps:
            assert not interp.has_hints
            assert interp.confidence == 1.0

    def test_alternative_groupby_resolutions_fan_out(self, scale,
                                                     scale_index, chain):
        # "by name" resolves to several *Name attributes -> several
        # distinct interpretations, one per resolution
        interps, _ = interpret(scale, scale_index, chain,
                               "revenue by name")
        hinted = {str(i.modifier.group_by[0].ref) for i in interps
                  if i.modifier.group_by}
        assert len(hinted) > 1


class TestScoring:
    def test_confidence_scales_hint_score(self):
        net = StarNet("Fact", ())
        hinted = Interpretation(net, measures=("revenue",),
                                confidence=0.9)
        assert score_interpretation(hinted) == pytest.approx(0.9)

    def test_rayless_hintless_scores_zero(self):
        bare = Interpretation(StarNet("Fact", ()))
        assert score_interpretation(bare) == 0.0

    def test_rank_orders_by_confidence(self):
        net = StarNet("Fact", ())
        low = Interpretation(net, measures=("revenue",), confidence=0.5)
        high = Interpretation(net, measures=("revenue",), confidence=0.9)
        ranked = rank_interpretations([low, high],
                                      RankingMethod.STANDARD)
        assert ranked[0].interpretation is high
        assert ranked[0].score > ranked[1].score


class TestInterpretationShape:
    def test_group_by_hints_deduplicate(self, scale):
        gb = scale.groupby_attribute("DimDate", "MonthName")
        interp = Interpretation(
            StarNet("FactScaleSales", ()), attributes=(gb,),
            modifier=Modifier(group_by=(gb,)))
        assert interp.group_by_hints == (gb,)

    def test_describe_mentions_hints(self, scale):
        gb = scale.groupby_attribute("DimDate", "MonthName")
        interp = Interpretation(
            StarNet("FactScaleSales", ()), measures=("revenue",),
            modifier=Modifier(group_by=(gb,), order="desc", limit=3))
        text = interp.describe()
        assert "measures[revenue]" in text
        assert "DimDate.MonthName" in text
        assert "limit 3" in text
        assert not text.startswith(" ")

    def test_fingerprint_tracks_hints(self, scale):
        net = StarNet("FactScaleSales", ())
        plain = Interpretation(net)
        hinted = Interpretation(net, measures=("revenue",))
        assert plain.fingerprint() != hinted.fingerprint()
        assert hinted.fingerprint() == hinted.fingerprint()


class TestMatchReport:
    def test_as_dict_round_trips_to_json(self):
        import json

        report = MatchReport(query="q", keywords=("a",),
                             matchers=("value",), unmatched=("a",),
                             counters={"value.candidates": 0})
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["unmatched"] == ["a"]
        assert payload["matchers"] == ["value"]
