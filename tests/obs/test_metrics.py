"""Metrics registry: instruments, quantiles, scoping, truncation routing."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    Histogram,
    MetricsRegistry,
    current_registry,
    metrics_scope,
    runs_summary,
)
from repro.resilience.budget import Budget


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.counter("hits").value == 5

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0

    def test_name_binds_to_first_type(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_threaded_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("n").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("n").value == 4000


class TestHistogram:
    def test_empty_histogram(self):
        histogram = Histogram("lat")
        assert histogram.quantile(0.5) is None
        assert histogram.mean is None
        assert histogram.summary() == {"count": 0}

    def test_single_observation_is_every_percentile(self):
        histogram = Histogram("lat")
        histogram.observe(0.2)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.2)

    def test_quantiles_track_the_distribution(self):
        histogram = Histogram("lat")
        for ms in range(1, 101):  # 1ms .. 100ms uniform
            histogram.observe(ms / 1000.0)
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        assert 0.035 <= p50 <= 0.065
        assert 0.080 <= p95 <= 0.105
        assert p50 <= p95 <= histogram.max

    def test_overflow_bucket_clamps_to_observed_max(self):
        histogram = Histogram("lat", boundaries=(0.1, 1.0))
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == pytest.approx(50.0)

    def test_summary_fields(self):
        histogram = Histogram("lat")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.007)
        assert set(summary) == {"count", "sum", "mean", "min", "max",
                                "p50", "p95", "p99"}

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("bad", boundaries=(1.0, 0.5))


class TestRegistryScoping:
    def test_default_registry_is_ambient_fallback(self):
        assert current_registry() is DEFAULT_REGISTRY

    def test_metrics_scope_installs_and_restores(self):
        mine = MetricsRegistry()
        with metrics_scope(mine):
            assert current_registry() is mine
            current_registry().counter("scoped").inc()
        assert current_registry() is DEFAULT_REGISTRY
        assert mine.counter("scoped").value == 1

    def test_snapshot_groups_by_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset_unbinds_names(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0
        registry.gauge("x")  # no TypeError: the name is free again


class TestTruncationCounters:
    def test_record_truncation_counts_per_cause(self):
        registry = MetricsRegistry()
        budget = Budget(max_rows=10)
        with metrics_scope(registry):
            budget.record_truncation("preview", "rows", "stopped early")
            budget.record_truncation("facet:Date", "deadline", "slow")
            budget.record_truncation("generation", "rows", "capped")
        counters = registry.snapshot()["counters"]
        assert counters["kdap.truncations.rows"] == 2
        assert counters["kdap.truncations.deadline"] == 1
        assert "kdap.truncations.total" not in counters
        assert len(budget.events) == 3

    def test_session_truncations_reach_the_session_registry(self):
        """End to end: a budget-truncated explore shows up in the
        session's own metrics registry, not the process default."""
        from repro.core import KdapSession
        from repro.datasets import build_aw_online

        schema = build_aw_online(num_facts=2000, seed=42)
        with KdapSession(schema) as session:
            budget = Budget(max_rows=50)
            ranked = session.differentiate("Road Bikes", limit=1,
                                           budget=budget)
            result = session.explore(ranked[0].star_net, budget=budget)
        assert result.is_partial
        counters = session.metrics.snapshot()["counters"]
        assert sum(value for name, value in counters.items()
                   if name.startswith("kdap.truncations.")) >= 1


class TestRunsSummary:
    def test_p50_p95_fields(self):
        summary = runs_summary([0.010, 0.011, 0.012, 0.013, 0.100])
        assert set(summary) == {"p50_s", "p95_s"}
        assert summary["p50_s"] <= summary["p95_s"] <= 0.1
