"""The Google-Trends-style query-log warehouse."""

import pytest

from repro.core import ExploreConfig, KdapSession
from repro.datasets import build_trends
from repro.plan import QueryEngine
from repro.warehouse import Subspace


@pytest.fixture(scope="module")
def trends():
    return build_trends(num_facts=6000, seed=11)


@pytest.fixture(scope="module")
def trends_session(trends):
    return KdapSession(trends)


EXPLORE = ExploreConfig(measure_name="volume")


class TestShape:
    def test_integrity(self, trends):
        assert trends.database.check_referential_integrity() == []

    def test_three_dimensions(self, trends):
        assert [d.name for d in trends.dimensions] == \
            ["SearchTerm", "Region", "Time"]

    def test_volume_measure(self, trends):
        assert "volume" in trends.measures
        assert all(v > 0 for v in trends.measure_vector("volume"))


class TestKdapOverQueryLogs:
    def test_term_query(self, trends_session):
        result = trends_session.search("olympics",
                                       explore_config=EXPLORE)
        assert result is not None
        values = result.star_net.rays[0].hit_group.values
        assert "olympics schedule" in values

    def test_topic_and_region_query(self, trends_session):
        ranked = trends_session.differentiate("Sports Australia", limit=5)
        assert ranked
        domains = {r.hit_group.domain for r in ranked[0].star_net.rays}
        assert ("DimSearchTerm", "Topic") in domains

    def test_injected_seasonality_detected(self, trends):
        """'halloween costumes' volume concentrates in October."""
        schema = trends
        term_gb = schema.groupby_attribute("DimSearchTerm", "TermText")
        month_gb = schema.groupby_attribute("DimDate", "MonthName")
        vector = schema.groupby_vector(term_gb)
        rows = [r for r, v in enumerate(vector)
                if v == "halloween costumes"]
        subspace = Subspace.of(schema, rows, engine=QueryEngine(schema))
        parts = subspace.partition_aggregates(month_gb, "volume")
        assert max(parts, key=parts.get) == "October"

    def test_injected_region_affinity(self, trends):
        """'super bowl' volume per entry is higher in the United States."""
        schema = trends
        term_gb = schema.groupby_attribute("DimSearchTerm", "TermText")
        country_gb = schema.groupby_attribute("DimRegion", "Country")
        term_vec = schema.groupby_vector(term_gb)
        country_vec = schema.groupby_vector(country_gb)
        volume = schema.measure_vector("volume")
        us, elsewhere = [], []
        for r, term in enumerate(term_vec):
            if term != "super bowl":
                continue
            (us if country_vec[r] == "United States"
             else elsewhere).append(volume[r])
        assert us and elsewhere
        assert sum(us) / len(us) > sum(elsewhere) / len(elsewhere)

    def test_determinism(self):
        a = build_trends(num_facts=500, seed=3)
        b = build_trends(num_facts=500, seed=3)
        assert a.database.table("FactQueryVolume").column_values("Volume") \
            == b.database.table("FactQueryVolume").column_values("Volume")
