"""The always-on telemetry pipeline, end to end over real sockets.

Covers the PR's acceptance surfaces: the structured event timeline on
``/v1/eventz``, tail-based trace sampling under ``--trace-dir`` (errored
and deadline requests always persisted, healthy fast ones at the head
rate), the Prometheus exposition on ``/v1/metricz`` (strict-parser
round-trip against live output), the slow outcome events on
``/v1/slowlogz``, SLO state in ``/v1/statz``, statz rollup correctness
under concurrent workers (counters sum, histogram buckets merge, no
double-count with the shared materialization tier), and the atomic
trace-write fix for drain.
"""

import glob
import json
import os
import threading
import time

import pytest

from repro.obs.promexport import parse_prometheus
from repro.obs.tracer import current_tracer
from repro.plan.backends import InMemoryBackend
from repro.relational.errors import DeadlineExceeded
from repro.service import KdapService, ServiceConfig

from .conftest import ServiceClient


def _service(ebiz, ebiz_index, **overrides) -> KdapService:
    defaults = dict(workers=2, queue_depth=8, max_deadline_ms=30_000.0)
    defaults.update(overrides)
    return KdapService(ebiz, ServiceConfig(**defaults), index=ebiz_index)


class DeadlineService(KdapService):
    """Every request dies on the worker with a deadline expiry — the
    deterministic 504 the sampling/SLO tests need (a tiny client
    deadline hint degrades gracefully to 404/partial instead)."""

    def _dispatch(self, session, spec, budget):
        raise DeadlineExceeded("injected deadline expiry")


class SlowTelemetryService(KdapService):
    """Requests take a fixed wall time, so a drain reliably overlaps an
    in-flight request."""

    sleep_s = 0.5

    def _dispatch(self, session, spec, budget):
        time.sleep(self.sleep_s)
        return 200, {"slept": self.sleep_s}


def _wait_for(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestEventz:
    def test_lifecycle_events_for_one_request(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post("/v1/explore",
                                          {"query": "Columbus"})
            assert status == 200
            status, payload = client.get("/v1/eventz?n=50")
            assert status == 200
            events = [event for event in payload["events"]
                      if event.get("request_id") == body["request_id"]]
            kinds = [event["kind"] for event in events]
            assert kinds == ["admitted", "started", "finished"]
            finished = events[-1]
            assert finished["op"] == "explore"
            assert finished["status"] == 200
            assert finished["elapsed_ms"] > 0
            assert "interpretation_fp" in finished
            assert payload["log"]["emitted"] >= 3

    def test_eventz_n_caps_the_tail(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            for _ in range(2):
                client.post("/v1/explore", {"query": "Columbus"})
            status, payload = client.get("/v1/eventz?n=2")
            assert status == 200
            assert len(payload["events"]) == 2
            # newest last: seq strictly increasing
            seqs = [event["seq"] for event in payload["events"]]
            assert seqs == sorted(seqs)

    def test_eventz_rejects_bad_n(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, payload = client.get("/v1/eventz?n=potato")
            assert status == 400
            assert payload["error"]["type"] == "bad_request"

    def test_shed_emits_event(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index, workers=1,
                      queue_depth=1) as service:
            # bypass HTTP: fill the queue directly so the next submit
            # sheds deterministically
            service.queue.drain()
            client = ServiceClient(service.port)
            status, _, _ = client.post("/v1/explore",
                                       {"query": "Columbus"})
            assert status == 503
            kinds = [event["kind"] for event
                     in service.events.tail(10)]
            assert "rejected" in kinds

    def test_event_sink_file(self, ebiz, ebiz_index, tmp_path):
        sink = tmp_path / "events.jsonl"
        with _service(ebiz, ebiz_index,
                      event_path=str(sink)) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            service.shutdown()  # flushes the sink
        lines = [json.loads(line) for line
                 in sink.read_text().splitlines()]
        assert any(line["kind"] == "finished" for line in lines)

    def test_telemetry_off_disables_eventz(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index, telemetry=False) as service:
            client = ServiceClient(service.port)
            status, payload = client.get("/v1/eventz")
            assert status == 404
            assert payload["error"]["type"] == "telemetry_disabled"


class TestTailSampling:
    def test_errored_traces_always_persist(self, ebiz, ebiz_index,
                                           tmp_path):
        trace_dir = str(tmp_path / "traces")
        config = ServiceConfig(workers=1, queue_depth=8,
                               trace_dir=trace_dir, trace_head_n=0)
        with DeadlineService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post(
                "/v1/explore", {"query": "Columbus"})
            assert status == 504
            path = os.path.join(trace_dir,
                                f"trace-{body['request_id']}.json")
            assert os.path.exists(path)
            json.load(open(path, encoding="utf-8"))  # complete JSON
            snapshot = service.sampler.snapshot()
            assert snapshot["persisted"]["error"] == 1

    def test_healthy_fast_traces_follow_head_rate(self, ebiz,
                                                  ebiz_index, tmp_path):
        trace_dir = str(tmp_path / "traces")
        total = 9
        with _service(ebiz, ebiz_index, workers=1, trace_dir=trace_dir,
                      trace_head_n=4,
                      trace_slow_ms=60_000.0) as service:
            client = ServiceClient(service.port)
            for _ in range(total):
                status, _, _ = client.post("/v1/explore",
                                           {"query": "Columbus"})
                assert status == 200
            snapshot = service.sampler.snapshot()
        written = glob.glob(os.path.join(trace_dir, "trace-*.json"))
        # 1-in-4 of nine requests: requests 1, 5, 9
        assert snapshot["considered"] == total
        assert snapshot["persisted"]["head"] == 3
        assert snapshot["dropped"] == total - 3
        assert len(written) == 3

    def test_truncated_requests_persist(self, ebiz, ebiz_index,
                                        tmp_path):
        trace_dir = str(tmp_path / "traces")
        with _service(ebiz, ebiz_index, workers=1, trace_dir=trace_dir,
                      trace_head_n=0) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post(
                "/v1/explore",
                {"query": "Columbus", "budget": {"max_rows": 40}})
            assert status == 200 and body["partial"] is True
            path = os.path.join(trace_dir,
                                f"trace-{body['request_id']}.json")
            assert os.path.exists(path)
            assert service.sampler.snapshot()["persisted"][
                "truncated"] == 1

    def test_telemetry_off_writes_every_trace(self, ebiz, ebiz_index,
                                              tmp_path):
        trace_dir = str(tmp_path / "traces")
        with _service(ebiz, ebiz_index, workers=1, trace_dir=trace_dir,
                      telemetry=False) as service:
            client = ServiceClient(service.port)
            for _ in range(3):
                client.post("/v1/explore", {"query": "Columbus"})
        assert len(glob.glob(os.path.join(trace_dir,
                                          "trace-*.json"))) == 3


class TestAtomicTraceWrites:
    def test_failed_write_leaves_no_partial_file(self, ebiz, ebiz_index,
                                                 tmp_path, monkeypatch):
        """The drain regression: an interrupted trace write must never
        leave truncated JSON at the final path (tmp + os.replace)."""
        trace_dir = str(tmp_path / "traces")
        with _service(ebiz, ebiz_index, workers=1,
                      trace_dir=trace_dir) as service:

            class ExplodingTracer:
                def to_chrome_trace(self):
                    raise OSError("disk full mid-serialisation")

            service._write_trace(ExplodingTracer(), "r999999")
            assert os.listdir(trace_dir) == []  # no final, no tmp

    def test_drained_in_flight_trace_is_complete_json(self, ebiz,
                                                      ebiz_index,
                                                      tmp_path):
        """A request in flight when drain starts still lands a complete,
        parseable trace file."""
        trace_dir = str(tmp_path / "traces")
        config = ServiceConfig(workers=1, queue_depth=8,
                               trace_dir=trace_dir, trace_head_n=1,
                               drain_deadline_s=30.0)
        service = SlowTelemetryService(ebiz, config, index=ebiz_index)
        service.start()
        try:
            client = ServiceClient(service.port)
            result = {}

            def request():
                result["response"] = client.post(
                    "/v1/explore", {"query": "Columbus"})

            thread = threading.Thread(target=request)
            thread.start()
            # drain only once the request is actually executing; the
            # drain must then wait it out and land a complete trace
            assert _wait_for(lambda: service.pool.in_flight >= 1)
            service.drain()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            status, body, _ = result["response"]
            assert status == 200
            path = os.path.join(trace_dir,
                                f"trace-{body['request_id']}.json")
            assert os.path.exists(path)
            trace = json.load(open(path, encoding="utf-8"))
            assert trace["traceEvents"]
            assert not glob.glob(os.path.join(trace_dir, "*.tmp"))
        finally:
            service.shutdown()


class TestMetricz:
    def test_round_trip_through_strict_parser(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            status, text, content_type = client.get_text("/v1/metricz")
            assert status == 200
            assert content_type.startswith("text/plain")
            families = parse_prometheus(text)  # strict: raises on defect
            assert families["kdap_service_admitted"]["samples"] == [
                ("kdap_service_admitted", {}, 1.0)]
            histogram = families["kdap_service_seconds_explore"]
            assert histogram["type"] == "histogram"
            count = [value for name, _labels, value
                     in histogram["samples"]
                     if name.endswith("_count")]
            assert count == [1.0]

    def test_runtime_gauges_present(self, ebiz, ebiz_index):
        """The load gauges ``repro top`` reads are admission's own."""
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            status, text, _ = client.get_text("/v1/metricz")
            families = parse_prometheus(text)
            for gauge in ("kdap_service_queued", "kdap_service_in_flight"):
                assert families[gauge]["type"] == "gauge", gauge
            assert not any(name.startswith("kdap_runtime_")
                           for name in families)

    def test_worker_metrics_roll_into_exposition(self, ebiz,
                                                 ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            for _ in range(3):
                client.post("/v1/explore", {"query": "Columbus"})
            status, text, _ = client.get_text("/v1/metricz")
            families = parse_prometheus(text)
            # kdap.explore.seconds lives in per-worker session
            # registries, not the server registry — its presence proves
            # the rollup crossed registries
            explore = families["kdap_explore_seconds"]
            count = [value for name, _labels, value in explore["samples"]
                     if name.endswith("_count")]
            assert count == [3.0]


class TestStatzRollup:
    def test_concurrent_workers_sum_without_double_count(self, ebiz,
                                                         ebiz_index):
        with _service(ebiz, ebiz_index, workers=2) as service:
            client = ServiceClient(service.port)
            total = 8
            threads = [threading.Thread(target=client.post, args=(
                "/v1/explore", {"query": "Columbus"}))
                for _ in range(total)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            status, statz = client.get("/v1/statz")
            assert status == 200
            # counters: rollup equals the sum over workers, exactly
            per_worker = [worker["metrics"]["counters"]
                          for worker in statz["workers"]]
            for name, value in statz["rollup"]["counters"].items():
                assert value == sum(counters.get(name, 0)
                                    for counters in per_worker), name
            # histograms: merged count equals the per-worker sum
            explore = statz["rollup"]["histograms"][
                "kdap.explore.seconds"]
            assert explore["count"] == total
            per_worker_counts = sum(
                worker["metrics"]["histograms"]
                .get("kdap.explore.seconds", {}).get("count", 0)
                for worker in statz["workers"])
            assert per_worker_counts == total
            # the shared materialization tier reports once, not per
            # worker: its snapshot is the tier's own accounting, and
            # the kdap.materialize.* counters in the rollup come only
            # from per-worker registries
            tier = statz["rollup"]["materialize"]
            hits = statz["rollup"]["counters"].get(
                "kdap.materialize.hit", 0)
            assert tier["hits"] == hits

    def test_statz_has_telemetry_sections(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            _, statz = client.get("/v1/statz")
            assert statz["config"]["telemetry"] is True
            assert statz["slo"]["observed"] == 1
            assert statz["slo"]["windows"]["short"]["total"] == 1
            assert statz["events"]["emitted"] >= 3
            assert statz["slowlog"]["observed"] >= 1

    def test_telemetry_off_statz_omits_sections(self, ebiz,
                                                ebiz_index):
        with _service(ebiz, ebiz_index, telemetry=False) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            _, statz = client.get("/v1/statz")
            assert "slo" not in statz
            assert "events" not in statz
            assert "sampling" not in statz
            assert "slowlog" not in statz


class TestSlowlogz:
    def test_slow_queries_surface_with_request_ids(self, ebiz, ebiz_index,
                                                   tmp_path):
        # trace_slow_ms=0.0: every request is slow, so the list fills
        # deterministically and the tail sampler keeps every trace
        with _service(ebiz, ebiz_index, workers=1, trace_slow_ms=0.0,
                      trace_dir=str(tmp_path)) as service:
            client = ServiceClient(service.port)
            request_ids = []
            for query in ("Columbus", "Columbus LCD"):
                status, body, _ = client.post("/v1/explore",
                                              {"query": query})
                assert status == 200
                request_ids.append(body["request_id"])
            status, payload = client.get("/v1/slowlogz")
        assert status == 200
        assert payload["threshold_ms"] == 0.0
        assert payload["observed"] == payload["recorded"] == 2
        assert payload["retained"] == 2
        records = payload["records"]
        assert [record["request_id"] for record in records] == request_ids
        assert [record["query"] for record in records] == \
            ["Columbus", "Columbus LCD"]
        for record in records:
            assert record["kind"] == "finished"
            assert record["elapsed_ms"] > 0
            assert record["trace"] == "slow"
            trace = tmp_path / f"trace-{record['request_id']}.json"
            assert trace.exists()

    def test_slow_records_live_as_long_as_the_ring(self, ebiz,
                                                   ebiz_index):
        # the slow list is a filter over the event ring, not a store:
        # each explore emits admitted/started/finished, so a 6-event ring
        # still holds the last two requests and the first has left it
        with _service(ebiz, ebiz_index, workers=1, trace_slow_ms=0.0,
                      event_capacity=6) as service:
            client = ServiceClient(service.port)
            request_ids = []
            for _ in range(3):
                status, body, _ = client.post("/v1/explore",
                                              {"query": "Columbus"})
                assert status == 200
                request_ids.append(body["request_id"])
            status, payload = client.get("/v1/slowlogz")
            _, statz = client.get("/v1/statz")
        assert status == 200
        assert [record["request_id"] for record in payload["records"]] \
            == request_ids[1:]
        assert payload["recorded"] == 3      # the counter outlives the ring
        assert payload["retained"] == statz["slowlog"]["retained"] == 2
        assert "records" not in statz["slowlog"]

    def test_fast_requests_stay_out(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index, trace_slow_ms=60_000.0) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            status, payload = client.get("/v1/slowlogz")
        assert status == 200
        assert payload["records"] == []
        assert (payload["observed"], payload["recorded"]) == (1, 0)

    def test_slowlog_disabled(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index, telemetry=False) as service:
            client = ServiceClient(service.port)
            client.post("/v1/explore", {"query": "Columbus"})
            status, payload = client.get("/v1/slowlogz")
        assert status == 404
        assert payload["error"]["type"] == "telemetry_disabled"

    def test_default_explore_runs_untraced(self, ebiz, ebiz_index,
                                           monkeypatch):
        # no trace_dir, no ambient tracer: nothing may build a span
        # tree that no endpoint returns
        enabled = []
        materialize = InMemoryBackend.materialize

        def spy(backend, plan):
            enabled.append(current_tracer().enabled)
            return materialize(backend, plan)

        monkeypatch.setattr(InMemoryBackend, "materialize", spy)
        with KdapService(ebiz, ServiceConfig(), index=ebiz_index) as service:
            status, _, _ = ServiceClient(service.port).post(
                "/v1/explore", {"query": "Columbus"})
        assert status == 200
        assert enabled and not any(enabled)


class TestSloIntegration:
    def test_deadline_errors_burn_the_budget(self, ebiz, ebiz_index):
        config = ServiceConfig(workers=1, queue_depth=8,
                               slo_error_budget=0.5)
        with DeadlineService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            status, _, _ = client.post(
                "/v1/explore", {"query": "Columbus"})
            assert status == 504
            _, statz = client.get("/v1/statz")
            short = statz["slo"]["windows"]["short"]
            assert short["errors"] == 1
            assert short["bad"] == 1
            assert short["burn_rate"] == pytest.approx(2.0)  # 1/1 / 0.5
