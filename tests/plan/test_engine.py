"""QueryEngine: caching, subspace binding, and consumer routing."""

import pytest

from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import (
    QueryEngine,
    attr_key,
    grouping_fingerprint,
    multi_partition_plan,
)
from repro.warehouse import Subspace, dice, pivot, slice_

from ..counts import cache_counts
from ..warehouse.subspace_oracle import (
    LocalKernel,
    domain,
    restrict,
    star_net_rows,
)


@pytest.fixture
def engine(ebiz):
    return QueryEngine(ebiz)


@pytest.fixture
def sqlite_engine(ebiz):
    engine = QueryEngine(ebiz, backend="sqlite")
    yield engine
    engine.close()


@pytest.fixture
def lcd(ebiz):
    """The LCD TVs rows, evaluated by the pinned local oracle until an
    engine rebinds them."""
    gb = ebiz.groupby_attribute("PGROUP", "GroupName")
    vector = ebiz.groupby_vector(gb)
    rows = [r for r, v in enumerate(vector) if v == "LCD TVs"]
    return Subspace.of(ebiz, rows, label="LCD TVs",
                       engine=LocalKernel(ebiz))


class TestCaching:
    def test_repeated_aggregate_hits(self, engine, lcd):
        bound = engine.bind(lcd)
        with metrics_scope(MetricsRegistry()) as registry:
            first = bound.aggregate("revenue")
            assert cache_counts(registry)["hits"] == 0
            second = bound.aggregate("revenue")
            assert cache_counts(registry)["hits"] == 1
        assert first == second

    def test_evictions_are_counted_in_the_registry(self, ebiz, lcd):
        engine = QueryEngine(ebiz, max_cache_entries=1)
        bound = engine.bind(lcd)
        with metrics_scope(MetricsRegistry()) as registry:
            bound.aggregate("revenue")
            bound.partition_aggregates(
                ebiz.groupby_attribute("LOCATION", "City"), "revenue")
        assert len(engine.cache) == 1
        assert cache_counts(registry) == {
            "hits": 0, "misses": 2, "evictions": 1, "hit_rate": 0.0}

    def test_reading_counts_creates_no_counter(self):
        registry = MetricsRegistry()
        assert cache_counts(registry)["hits"] == 0
        assert len(registry) == 0

    def test_identical_plans_share_entries_across_consumers(
            self, ebiz, engine, lcd):
        gb = ebiz.groupby_attribute("LOCATION", "City")
        bound = engine.bind(lcd)
        with metrics_scope(MetricsRegistry()) as registry:
            bound.partition_aggregates(gb, "revenue")
            misses = cache_counts(registry)["misses"]
            # an equal subspace built independently produces the same plan
            twin = Subspace.of(ebiz, lcd.fact_rows, engine=engine)
            twin.partition_aggregates(gb, "revenue")
        assert cache_counts(registry)["misses"] == misses
        assert cache_counts(registry)["hits"] >= 1

    def test_returned_dict_is_a_copy(self, ebiz, engine, lcd):
        gb = ebiz.groupby_attribute("LOCATION", "City")
        bound = engine.bind(lcd)
        first = bound.partition_aggregates(gb, "revenue")
        key = next(iter(first))
        first[key] = -1.0
        assert bound.partition_aggregates(gb, "revenue")[key] != -1.0
        # a keyed plan executed directly: its per-branch dicts are copies
        plan = multi_partition_plan(
            ebiz, lcd.fact_rows,
            [gb, ebiz.groupby_attribute("PGROUP", "GroupName")],
            ebiz.measures["revenue"])
        fused = engine.execute(plan)
        fp = grouping_fingerprint((attr_key(gb),))
        fused[fp][key] = -1.0
        assert engine.execute(plan)[fp][key] != -1.0


class TestParityWithLocalLoops:
    """Engine results must equal the pinned local oracle's."""

    def test_aggregate(self, engine, sqlite_engine, lcd):
        want = lcd.aggregate("revenue")
        assert engine.bind(lcd).aggregate("revenue") \
            == pytest.approx(want)
        assert sqlite_engine.bind(lcd).aggregate("revenue") \
            == pytest.approx(want)

    def test_partition_aggregates(self, ebiz, engine, sqlite_engine, lcd):
        gb = ebiz.groupby_attribute("LOCATION", "City")
        want = lcd.partition_aggregates(gb, "revenue")
        for eng in (engine, sqlite_engine):
            got = eng.bind(lcd).partition_aggregates(gb, "revenue")
            assert set(got) == set(want)
            for key, value in want.items():
                assert got[key] == pytest.approx(value)

    def test_partition_with_domain(self, ebiz, engine, sqlite_engine, lcd):
        """An engine partition projected onto a domain equals the local
        kernel's restricted partition, absent values filled."""
        gb = ebiz.groupby_attribute("LOCATION", "City")
        values = domain(lcd, gb)[:2] + ["NoSuchCity"]
        want = LocalKernel(ebiz).subspace_partition_aggregates(
            lcd, gb, "revenue", domain=values)
        assert want["NoSuchCity"] == 0
        for eng in (engine, sqlite_engine):
            got = eng.bind(lcd).partition_aggregates(gb, "revenue")
            assert "NoSuchCity" not in got
            assert restrict(got, values, "sum") == pytest.approx(want)

    def test_empty_subspace(self, ebiz, engine, sqlite_engine):
        empty = Subspace.of(ebiz, (), engine=LocalKernel(ebiz))
        gb = ebiz.groupby_attribute("LOCATION", "City")
        for eng in (engine, sqlite_engine):
            bound = eng.bind(empty)
            assert bound.aggregate("revenue") == 0
            assert bound.partition_aggregates(gb, "revenue") == {}

    def test_slice_routes_through_engine(self, ebiz, engine, lcd):
        gb = ebiz.groupby_attribute("LOCATION", "City")
        city = domain(lcd, gb)[0]
        want = slice_(lcd, gb, city)
        got = slice_(engine.bind(lcd), gb, city)
        assert got.fact_rows == want.fact_rows
        assert got.engine is engine

    def test_dice_routes_through_engine(self, ebiz, engine, lcd):
        gb = ebiz.groupby_attribute("LOCATION", "City")
        cities = domain(lcd, gb)[:2]
        want = dice(lcd, {gb: cities})
        got = dice(engine.bind(lcd), {gb: cities})
        assert got.fact_rows == want.fact_rows

    def test_pivot_routes_through_engine(self, ebiz, engine,
                                         sqlite_engine, lcd):
        rows_gb = ebiz.groupby_attribute("LOCATION", "City")
        cols_gb = ebiz.groupby_attribute("TIMEMONTH", "Quarter")
        want = pivot(lcd, rows_gb, cols_gb, "revenue")
        for eng in (engine, sqlite_engine):
            got = pivot(eng.bind(lcd), rows_gb, cols_gb, "revenue")
            assert got.row_values == want.row_values
            assert got.column_values == want.column_values
            for key, value in want.cells.items():
                assert got.cells[key] == pytest.approx(value)


class TestStarNetEvaluation:
    def test_evaluate_matches_legacy(self, ebiz, engine, sqlite_engine,
                                     ebiz_session):
        ranked = ebiz_session.differentiate("Columbus LCD")
        net = ranked[0].star_net
        want = star_net_rows(ebiz, net)
        for eng in (engine, sqlite_engine):
            got = eng.evaluate(net)
            assert got.fact_rows == want
            assert got.engine is eng
