"""Self-tests of the ledger harness.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Outside tier-1's ``testpaths``: they test the benchmark, not the system.
"""

from __future__ import annotations

import json
import warnings

import pytest

from workloads import ROOT, add_src_to_path, load_workloads, zipf_counts

add_src_to_path()

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from client import Sample, percentile, run_window, send  # noqa: E402
from server import LocalHost, data_checksum  # noqa: E402
from workloads import Request  # noqa: E402


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.fixture(scope="module")
def hosts():
    """One in-process service per warehouse, built on first use."""
    built = {}

    def get(warehouse):
        if warehouse not in built:
            built[warehouse] = LocalHost(warehouse)
        return built[warehouse]

    yield get
    for host in built.values():
        host.stop()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_refuses_a_tail_with_under_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 90)  # 9 beyond
    assert percentile(range(100), 90) == pytest.approx(89.5, abs=0.01)
    with pytest.raises(ValueError):
        percentile(range(199), 95)
    assert percentile(range(200), 95) == pytest.approx(189.5, abs=0.01)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    # the median is always available
    assert percentile([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_on_nested_and_overlapping_spans():
    # [id, target, start, end, parent, root]
    spans = [
        [1, "root", 0.0, 10.0, None, 1],
        [2, "a", 1.0, 4.0, 1, 1],
        [3, "b", 3.0, 6.0, 1, 1],  # overlaps a (another thread)
        [4, "a.inner", 2.0, 3.0, 2, 1],
        [5, "c", 9.0, 12.0, 1, 1],  # overhangs the root: clipped
        [6, "orphan", 20.0, 21.5, None, 6],
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(1.5)


def test_zipf_counts_apportion_the_expected_multiset():
    counts = zipf_counts(50, 16, 1.1)
    assert sum(counts) == 16
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[1] >= 1


# ----------------------------------------------------------------------
# request lists
# ----------------------------------------------------------------------
def _request_list(workload, seed: int) -> bytes:
    passes = workload.warmup(seed) + [workload.pass_order(seed, i)
                                      for i in range(3)]
    return json.dumps([[[r.endpoint, r.body] for r in unit]
                       for units in passes for unit in units],
                      sort_keys=True).encode("utf-8")


def test_same_seed_same_bytes_other_seed_other_bytes(workloads):
    rebuilt = load_workloads()
    for name, workload in workloads.items():
        assert _request_list(workload, 3) == _request_list(rebuilt[name], 3)
        assert _request_list(workload, 3) != _request_list(workload, 4)


def test_populations_have_the_frozen_shape(workloads):
    sizes = {name: w.sizes() for name, w in workloads.items()}
    assert sizes["aw.front_end"]["requests_per_pass"] == 24
    assert sizes["aw.session_mix"]["requests_per_pass"] == 48
    assert sizes["scale.explore_cold"]["requests_per_pass"] == 40
    assert sizes["scale.explore_hot"]["requests_per_pass"] == 8
    cold = workloads["scale.explore_cold"]
    keys = [unit[0].key for unit in cold.population]
    assert len(set(keys)) == len(keys), "cold requests must be distinct"
    warm = {unit[0].key for unit in cold.warmup_units}
    assert not warm & set(keys), "cold warm-up must not show timed requests"
    for text in (unit[0].body["query"] for unit in
                 workloads["aw.front_end"].population):
        assert 3 <= len(text.split()) <= 8


def test_every_generated_request_is_answerable_for_seeds_0_to_4(
        workloads, hosts):
    verdicts: dict[str, str | None] = {}
    for workload in workloads.values():
        host = hosts(workload.warehouse)
        for seed in range(5):
            passes = workload.warmup(seed) + [workload.pass_order(seed, 0)]
            for request in (r for units in passes for unit in units
                            for r in unit):
                if request.key not in verdicts:
                    _, verdicts[request.key] = checks.parse_ok(
                        send(host.port, request))
    assert {k: v for k, v in verdicts.items() if v is not None} == {}


# ----------------------------------------------------------------------
# answer checking
# ----------------------------------------------------------------------
_EXPLORE = {
    "request_id": "r000001", "interpretation": "DimProduct/Color/{'Red'}",
    "rows": 3, "total_aggregate": 100408.95000000084, "partial": False,
    "facets": [{"dimension": "Date", "attributes": [{
        "table": "DimDate", "column": "MonthName", "score": 1.0,
        "promoted": True, "entries": [
            {"label": "June", "value": "June",
             "aggregate": 100408.95000000084, "score": 0.9}]}]}],
}


def _sample(payload, status=200, request=None) -> Sample:
    request = request or Request("explore", {"query": "Red"})
    return Sample(request, 0, 0.0, 0.01, status,
                  json.dumps(payload).encode("utf-8"), "r000001")


def test_golden_mismatch_partial_and_bad_status_all_count_as_failed():
    good = _sample(_EXPLORE)
    key = good.request.key
    right = checks.digest(checks.answer_view("explore", _EXPLORE))
    assert checks.verify([good], {key: right}, None, 0)["failures"] == []
    # float noise below 6 significant figures does not change the digest
    wobble = dict(_EXPLORE, total_aggregate=100408.95000000999)
    assert checks.verify([_sample(wobble)], {key: right}, None,
                         0)["failures"] == []
    # a corrupted golden entry, a wrong answer, partial, 5xx, bad JSON
    for samples, golden in (
            ([good], {key: "0" * 16}),
            ([_sample(dict(_EXPLORE, rows=4))], {key: right}),
            ([_sample(dict(_EXPLORE, partial=True))], {key: right}),
            ([_sample(_EXPLORE, status=504)], {key: right}),
            ([Sample(good.request, 0, 0.0, 0.01, 200, b"{not json", None)],
             {key: right}),
            ([Sample(good.request, 0, 0.0, 0.01, None, b"", None,
                     error="ConnectionRefusedError")], {key: right})):
        verdict = checks.verify(samples, golden, None, 0)
        assert verdict["failed_flags"] == [True], verdict
    # no golden entry: structural checks only, reported as unchecked
    verdict = checks.verify([good], {}, None, 0)
    assert verdict["failures"] == [] and verdict["unchecked"] == 1


def test_oracle_agrees_with_the_checksum_and_catches_a_wrong_total(hosts):
    host = hosts("scale")
    oracle = checks.ScaleOracle(host.schema)
    rows, total = oracle.expected(())
    assert rows == host.checksum["fact_rows"]
    assert total == pytest.approx(host.checksum["revenue"])
    assert data_checksum(host.schema) == host.checksum

    request = Request("explore", {"query": "Red June"},
                      (("Color", "Red"), ("MonthName", "June")))
    sample = send(host.port, request)
    assert checks.verify([sample], {}, oracle, 0)["failures"] == []
    payload = json.loads(sample.body)
    payload["total_aggregate"] *= 1.001
    verdict = checks.verify([_sample(payload, request=request)], {},
                            oracle, 0)
    assert verdict["failed_flags"] == [True]


def test_committed_goldens_cover_every_population_request(workloads):
    for name, workload in workloads.items():
        golden = checks.load_golden(name)
        passes = workload.warmup(0) + [workload.pass_order(0, 0)]
        keys = {r.key for units in passes for unit in units for r in unit}
        assert keys <= set(golden), name


# ----------------------------------------------------------------------
# the layer map and the traced run
# ----------------------------------------------------------------------
def _raw_targets():
    return {path: layers._resolve(module, path)
            for _, module, path in layers.TARGETS}


def test_every_layer_target_exists_at_this_commit():
    assert [path for path, found in _raw_targets().items()
            if found is None] == []


def test_wrappers_patch_every_importer_and_are_fully_removed():
    import repro.core.attribute_ranking as attribute_ranking
    import repro.core.bucketing as bucketing
    import repro.plan.engine as engine

    before = _raw_targets()
    raw = bucketing.bucket_series
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing may be missing
        with layers.installed(layers.Recorder()) as missing:
            assert missing == set()
            assert bucketing.bucket_series is not raw
            # the name numerical_series calls, not just the definition
            assert attribute_ranking.bucket_series is bucketing.bucket_series
            assert bucketing.bucket_series.__wrapped__ is raw
            assert hasattr(engine.QueryEngine.evaluate, "__wrapped__")
    assert bucketing.bucket_series is raw
    assert attribute_ranking.bucket_series is raw
    assert _raw_targets() == before
    for _, module, path in layers.TARGETS:
        owner, attribute, function = layers._resolve(module, path)
        assert not hasattr(function, "__wrapped__"), path


def test_a_renamed_target_warns_and_reads_null_not_crash(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("core.annealing.anneal_ms", "repro.core.annealing", "no_such_fn"),
        ("textindex.search_ms", "repro.no_such_module", "search"),
        ("plan.evaluate_ms", "repro.plan.engine", "QueryEngine.backend_name"),
    ))
    with pytest.warns(UserWarning, match="not found"):
        with layers.installed(layers.Recorder()) as missing:
            assert missing == {"no_such_fn", "search",
                               "QueryEngine.backend_name"}


def test_traced_run_adds_up_and_leaves_no_wrapper_behind(workloads):
    before = _raw_targets()
    result = run.traced_run(workloads["scale.explore_hot"], 0, 1.0, None)
    assert _raw_targets() == before
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert all(value is not None for value in metrics.values()), metrics
    assert result["info"]["missing_targets"] == []
    assert result["info"]["linked_requests"] == \
        result["info"]["traced_requests"] > 0
    # every ms metric together is the mean client latency ...
    mean_latency = result["info"]["mean_latency_ms"]
    assert sum(value for name, value in metrics.items()
               if layers.PER_LAYER_UNITS[name] == "ms") == \
        pytest.approx(mean_latency)
    # ... and per request the table's layers sum to the request time
    assert sum(entry["share"] for entry in result["table"]) == \
        pytest.approx(1.0)
    assert sum(entry["mean_ms"] for entry in result["table"]) == \
        pytest.approx(mean_latency)
    assert metrics["unattributed_share"] == pytest.approx(
        metrics["unattributed_ms"] / mean_latency)
    assert 0.0 <= metrics["unattributed_share"] < 0.5
    assert metrics["trace_overhead_ratio"] > 0.5
    assert metrics["plan.calls"] > 0
    assert metrics["core.bucketing.values_bucketed"] > 0


def test_a_missing_layer_reads_null_and_falls_into_unattributed(
        workloads, monkeypatch):
    kept = tuple(t for t in layers.TARGETS if t[2] != "anneal_splits")
    monkeypatch.setattr(layers, "TARGETS", kept + (
        ("core.annealing.anneal_ms", "repro.core.annealing", "renamed"),))
    monkeypatch.setitem(layers.METRIC_OF, "renamed",
                        "core.annealing.anneal_ms")
    monkeypatch.delitem(layers.METRIC_OF, "anneal_splits")
    with pytest.warns(UserWarning, match="renamed"):
        result = run.traced_run(workloads["scale.explore_hot"], 0, 1.0,
                                None)
    assert result["metrics"]["core.annealing.anneal_ms"] is None
    assert result["info"]["missing_targets"] == ["renamed"]
    line = json.loads(run.driver_line([run.summarize([result])],
                                      layers.PER_LAYER_UNITS))
    assert line["metrics"]["core.annealing.anneal_ms"]["value"] == 0.0


# ----------------------------------------------------------------------
# the closed-loop window
# ----------------------------------------------------------------------
def test_window_ends_on_a_pass_boundary_and_restarts_per_pass(hosts):
    host = hosts("scale")
    unit = (Request("explore", {"query": "Red June"}),)
    ports = []

    class Counting:
        port = property(lambda self: host.port)

        def restart(self):
            host.restart()
            ports.append(host.port)

    window = run_window(Counting(), lambda i: [unit] * 3, 1, max_passes=2,
                        fresh_service_per_pass=True)
    assert window.passes == 2 and len(window.samples) == 6
    assert len(ports) == 2
    assert all(s.status == 200 for s in window.samples)
    assert window.timed == window.samples
    assert 0 < window.wall_s < window.closed - window.started
    timed = run_window(host, lambda i: [unit] * 2, 2, seconds=0.2)
    assert len(timed.samples) % 2 == 0 and timed.passes >= 1
    with pytest.raises(ValueError):
        run_window(host, lambda i: [unit], 2, max_passes=1,
                   fresh_service_per_pass=True)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness(workloads):
    spec = run.load_spec()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_rps",
        "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert spec["paths"] == ["benchmarks/ledger"]
    assert (ROOT / spec["command"][1]).is_file()
