"""End-to-end service behaviour over real sockets.

Covers the acceptance scenarios: a healthy request path with request-id
propagation, graceful budget degradation (200 + partial + diagnostics),
overload shedding (429, never a hang or a 500), drain semantics
(in-flight completes, late arrivals get 503), chaos mode (injected
faults absorbed by retry/failover, failover counters visible in statz),
and per-request trace files.
"""

import json
import os
import threading
import time

import pytest

from repro.service import KdapService, ServiceConfig

from ..goldens import assert_golden, statz_counts
from .conftest import ServiceClient


def _service(ebiz, ebiz_index, **overrides) -> KdapService:
    defaults = dict(workers=2, queue_depth=8, max_deadline_ms=30_000.0)
    defaults.update(overrides)
    return KdapService(ebiz, ServiceConfig(**defaults), index=ebiz_index)


class SlowService(KdapService):
    """A service whose requests take a fixed wall time (admission tests
    must control duration without caring about query cost)."""

    sleep_s = 0.3

    def _dispatch(self, session, spec, budget):
        time.sleep(self.sleep_s)
        return 200, {"slept": self.sleep_s}


class TestRequestPath:
    def test_explore_round_trip(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, headers = client.post(
                "/v1/explore", {"query": "Columbus"})
            assert status == 200
            assert body["rows"] > 0
            assert body["facets"]
            assert body["partial"] is False
            assert body["request_id"] == headers["X-Request-Id"]

    def test_budget_exhaustion_degrades_to_200_partial(self, ebiz,
                                                       ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post(
                "/v1/explore",
                {"query": "Columbus", "budget": {"max_rows": 40}})
            assert status == 200
            assert body["partial"] is True
            assert body["diagnostics"]["truncations"]
            assert body["diagnostics"]["limits"]["max_rows"] == 40

    def test_server_ceiling_clamps_client_hint(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index, max_rows=40) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post(
                "/v1/explore",
                {"query": "Columbus", "budget": {"max_rows": 10 ** 12}})
            assert status == 400  # absurd hint is rejected outright
            status, body, _ = client.post(
                "/v1/explore",
                {"query": "Columbus", "budget": {"max_rows": 100_000}})
            assert status == 200
            assert body["partial"] is True  # ceiling 40 still bit

    def test_no_interpretation_is_404(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post(
                "/v1/explore", {"query": "xyzzy unmatchable token"})
            assert status == 404
            assert body["error"]["type"] == "no_result"

    def test_malformed_body_is_typed_400(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post("/v1/explore", None,
                                          raw=b"{nope")
            assert status == 400
            assert body["error"]["type"] == "bad_request"
            status, body, _ = client.post(
                "/v1/explore", {"query": "Columbus", "limit": 5})
            assert status == 400  # limit belongs to differentiate

    def test_unknown_path_is_404(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post("/v1/drop", {"query": "q"})
            assert status == 404

    def test_statz_and_healthz(self, ebiz, ebiz_index):
        with _service(ebiz, ebiz_index) as service:
            client = ServiceClient(service.port)
            client.post("/v1/differentiate", {"query": "Columbus"})
            status, health = client.get("/v1/healthz")
            assert status == 200
            assert health["state"] == "serving"
            status, stats = client.get("/v1/statz")
            assert status == 200
            counters = stats["service"]["counters"]
            assert counters["kdap.service.admitted"] >= 1
            assert counters["kdap.service.completed"] >= 1
            assert stats["service"]["histograms"][
                "kdap.service.seconds.differentiate"]["count"] >= 1
            # per-worker sessions surface their own isolated registries
            assert len(stats["workers"]) == 2
            assert stats["rollup"]["counters"]["kdap.queries"] >= 1


class TestOverload:
    def test_queue_full_sheds_429_never_500(self, ebiz, ebiz_index):
        config = ServiceConfig(workers=1, queue_depth=1,
                               enqueue_deadline_ms=60_000.0)
        with SlowService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            results = []

            def fire():
                results.append(client.post(
                    "/v1/explore", {"query": "Columbus"}, timeout=30.0))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(results) == 6  # nothing hung
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 1
            assert all(status in (200, 429) for status in statuses)
            for status, body, headers in results:
                if status == 429:
                    assert headers["Retry-After"]
                    assert body["error"]["type"] == "overloaded"

    def test_enqueue_deadline_sheds_stale_work(self, ebiz, ebiz_index):
        config = ServiceConfig(workers=1, queue_depth=8,
                               enqueue_deadline_ms=50.0)
        with SlowService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            results = []

            def fire():
                results.append(client.post(
                    "/v1/explore", {"query": "Columbus"}, timeout=30.0))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
                time.sleep(0.01)  # ensure one is running, two queue
            for thread in threads:
                thread.join(timeout=30.0)
            statuses = sorted(status for status, _, _ in results)
            # the first runs; the queued ones outlive their 50 ms
            # enqueue deadline behind a 300 ms request and are shed
            assert statuses == [200, 429, 429]
            _, stats = client.get("/v1/statz")
            assert stats["service"]["counters"][
                "kdap.service.shed.queue_timeout"] == 2


class TestDrain:
    def test_in_flight_completes_and_new_requests_get_503(self, ebiz,
                                                          ebiz_index):
        config = ServiceConfig(workers=1, queue_depth=8,
                               drain_deadline_s=5.0)
        with SlowService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            results = {}

            def fire(name):
                results[name] = client.post(
                    "/v1/explore", {"query": "Columbus"}, timeout=30.0)

            in_flight = threading.Thread(target=fire, args=("early",))
            in_flight.start()
            time.sleep(0.1)  # the worker has picked it up

            drainer = threading.Thread(target=service.shutdown)
            drainer.start()
            time.sleep(0.05)  # drain has started, listener still up
            fire("late")
            drainer.join(timeout=30.0)
            in_flight.join(timeout=30.0)

            assert results["early"][0] == 200  # finished, not dropped
            status, body, headers = results["late"]
            assert status == 503
            assert body["error"]["type"] == "draining"
            assert headers["Retry-After"]
            assert service.state == "stopped"

    def test_drain_deadline_aborts_queued_work(self, ebiz, ebiz_index):
        config = ServiceConfig(workers=1, queue_depth=8,
                               enqueue_deadline_ms=60_000.0,
                               drain_deadline_s=0.05)
        with SlowService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            results = []

            def fire():
                results.append(client.post(
                    "/v1/explore", {"query": "Columbus"}, timeout=30.0))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
                time.sleep(0.01)
            time.sleep(0.05)  # one in flight, two queued
            service.shutdown()
            for thread in threads:
                thread.join(timeout=30.0)
            statuses = sorted(status for status, _, _ in results)
            # the in-flight request finishes; the queued ones are
            # aborted by the 50 ms drain deadline
            assert statuses == [200, 503, 503]


class TestChaos:
    def test_injected_faults_are_absorbed_and_counted(self, ebiz,
                                                      ebiz_index):
        config = ServiceConfig(workers=2, chaos_error_rate=0.4,
                               chaos_seed=11)
        with KdapService(ebiz, config, index=ebiz_index) as service:
            client = ServiceClient(service.port)
            for _ in range(4):
                status, body, _ = client.post(
                    "/v1/explore", {"query": "Columbus"}, timeout=60.0)
                assert status == 200  # retry/failover hide the faults
                assert body["rows"] > 0
            _, stats = client.get("/v1/statz")
            resilience = stats["rollup"]["resilience"]
            assert resilience["transient_errors"] > 0
            assert resilience["retries"] + resilience["failovers"] > 0
            backends = {w["backend"] for w in stats["workers"]}
            assert any(b.startswith("resilient(") for b in backends)

    def test_statz_counts_golden(self, ebiz, ebiz_index):
        """Per-worker plan-cache and resilience counts, the counter
        roll-up and the resilience roll-up after a fixed request
        sequence under seeded faults are pinned byte for byte."""
        assert_golden("statz_chaos", statz_counts(ebiz, ebiz_index))


class TestTracing:
    def test_per_request_trace_files(self, ebiz, ebiz_index, tmp_path):
        trace_dir = str(tmp_path / "traces")
        with _service(ebiz, ebiz_index, workers=1,
                      trace_dir=trace_dir) as service:
            client = ServiceClient(service.port)
            status, body, _ = client.post("/v1/explore",
                                          {"query": "Columbus"})
            assert status == 200
            path = os.path.join(trace_dir,
                                f"trace-{body['request_id']}.json")
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as fh:
                trace = json.load(fh)
            names = {e["name"] for e in trace["traceEvents"]}
            assert "request" in names
            assert "explore" in names
            # engine spans carry the request id for attribution
            tagged = [e for e in trace["traceEvents"]
                      if e.get("args", {}).get("request")
                      == body["request_id"]]
            assert tagged
