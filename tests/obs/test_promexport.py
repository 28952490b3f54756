"""Prometheus exposition: rendering, strict parsing, rollup."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.promexport import (
    merge_histogram_states,
    metric_name,
    parse_prometheus,
    render_prometheus,
    rollup_registries,
)


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("kdap.service.seconds.explore") == \
            "kdap_service_seconds_explore"

    def test_invalid_chars_sanitised(self):
        assert metric_name("a-b c/d") == "a_b_c_d"

    def test_leading_digit_prefixed(self):
        assert metric_name("9lives") == "_9lives"


class TestMergeHistogramStates:
    def test_elementwise_merge(self):
        a = Histogram("h", boundaries=(1.0, 2.0))
        b = Histogram("h", boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            a.observe(value)
        b.observe(0.2)
        merged = merge_histogram_states([a.state(), b.state()])
        assert merged["counts"] == [2, 1, 1]
        assert merged["count"] == 4
        assert merged["sum"] == pytest.approx(7.2)
        assert merged["min"] == 0.2
        assert merged["max"] == 5.0

    def test_boundary_mismatch_raises(self):
        a = Histogram("h", boundaries=(1.0, 2.0))
        b = Histogram("h", boundaries=(1.0, 3.0))
        with pytest.raises(ValueError, match="boundary mismatch"):
            merge_histogram_states([a.state(), b.state()])

    def test_empty_iterable_is_none(self):
        assert merge_histogram_states([]) is None

    def test_empty_histogram_extremes_stay_none(self):
        a = Histogram("h", boundaries=(1.0,))
        merged = merge_histogram_states([a.state()])
        assert merged["min"] is None and merged["max"] is None


class TestRollupRegistries:
    def test_counters_sum_and_gauges_sum(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("c").inc(3)
        second.counter("c").inc(4)
        first.gauge("g").set(1.5)
        second.gauge("g").set(2.5)
        rolled = rollup_registries([first, second])
        assert rolled["counters"]["c"] == 7
        assert rolled["gauges"]["g"] == 4.0

    def test_histograms_merge_across_registries(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", boundaries=(1.0, 2.0)).observe(0.5)
        second.histogram("h", boundaries=(1.0, 2.0)).observe(1.5)
        rolled = rollup_registries([first, second])
        assert rolled["histograms"]["h"]["count"] == 2
        assert rolled["histograms"]["h"]["counts"] == [1, 1, 0]


class TestRenderParseRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("kdap.service.admitted").inc(12)
        registry.gauge("kdap.service.queued").set(3.0)
        histogram = registry.histogram("kdap.service.seconds.explore",
                                       boundaries=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 20.0):
            histogram.observe(value)
        return registry

    def test_counter_and_gauge_lines(self):
        text = render_prometheus(self._registry())
        assert "# TYPE kdap_service_admitted counter" in text
        assert "kdap_service_admitted 12" in text
        assert "# TYPE kdap_service_queued gauge" in text
        assert "kdap_service_queued 3" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._registry())
        name = "kdap_service_seconds_explore"
        assert f'{name}_bucket{{le="0.1"}} 1' in text
        assert f'{name}_bucket{{le="1"}} 3' in text
        assert f'{name}_bucket{{le="10"}} 3' in text
        assert f'{name}_bucket{{le="+Inf"}} 4' in text
        assert f"{name}_count 4" in text

    def test_round_trip_through_strict_parser(self):
        text = render_prometheus(self._registry())
        families = parse_prometheus(text)
        assert families["kdap_service_admitted"]["type"] == "counter"
        samples = families["kdap_service_admitted"]["samples"]
        assert samples == [("kdap_service_admitted", {}, 12.0)]
        histogram = families["kdap_service_seconds_explore"]
        assert histogram["type"] == "histogram"
        buckets = {labels["le"]: value for name, labels, value
                   in histogram["samples"] if name.endswith("_bucket")}
        assert buckets["+Inf"] == 4.0
        assert buckets["0.1"] == 1.0

    def test_multi_registry_rollup_renders_totals(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("c").inc(1)
        second.counter("c").inc(2)
        families = parse_prometheus(render_prometheus([first, second]))
        assert families["c"]["samples"] == [("c", {}, 3.0)]

    def test_render_ends_with_newline(self):
        assert render_prometheus(MetricsRegistry()).endswith("\n")


class TestStrictParser:
    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("# TYPE x counter\nx one two three\n")

    def test_sample_without_type_raises(self):
        with pytest.raises(ValueError, match="precedes its TYPE"):
            parse_prometheus("orphan 1\n")

    def test_duplicate_type_raises(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus("# TYPE x counter\n# TYPE x counter\n")

    def test_malformed_type_line_raises(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE x nonsense\n")

    def test_bad_value_raises(self):
        with pytest.raises(ValueError, match="invalid sample value"):
            parse_prometheus("# TYPE x counter\nx abc\n")

    def test_special_values_parse(self):
        families = parse_prometheus(
            "# TYPE x gauge\nx +Inf\n# TYPE y gauge\ny NaN\n")
        assert families["x"]["samples"][0][2] == math.inf
        assert math.isnan(families["y"]["samples"][0][2])

    def test_label_escapes_decode(self):
        families = parse_prometheus(
            '# TYPE x counter\nx{path="a\\"b"} 1\n')
        assert families["x"]["samples"][0][1] == {"path": 'a"b'}
