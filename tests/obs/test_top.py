"""`repro top`: pure renderer over canned snapshots, loop wiring."""

from __future__ import annotations

import io

from repro.obs.top import CLEAR, render_dashboard, run_top

STATZ = {
    "state": "serving",
    "uptime_s": 12.5,
    "workers": [{"worker": 0}, {"worker": 1}],
    "config": {"workers": 4},
    "service": {
        "counters": {
            "kdap.service.admitted": 42,
            "kdap.service.status.200": 39,
            "kdap.service.status.404": 1,
            "kdap.service.status.504": 2,
            "kdap.service.shed.queue_full": 3,
            "kdap.service.shed.queue_timeout": 1,
        },
    },
    "slo": {
        "policy": {"target_p95_ms": 1000.0, "error_budget": 0.01},
        "burning": False,
        "alerts": 0,
        "windows": {
            "short": {"window_s": 60.0, "total": 10, "bad": 0,
                      "burn_rate": 0.0, "p95_ms": 42.0},
            "long": {"window_s": 600.0, "total": 100, "bad": 1,
                     "burn_rate": 1.25, "p95_ms": 55.0},
        },
    },
    "sampling": {
        "considered": 40, "persisted_total": 7, "dropped": 33,
        "persisted": {"error": 2, "truncated": 1, "slow": 0, "head": 4},
    },
    "events": {"emitted": 120, "retained": 120, "dropped": 0},
    "slowlog": {"observed": 40, "retained": 2, "threshold_ms": 1000.0},
}

METRICS = {
    "kdap_service_queued": {
        "type": "gauge",
        "samples": [("kdap_service_queued", {}, 3.0)]},
    "kdap_service_in_flight": {
        "type": "gauge",
        "samples": [("kdap_service_in_flight", {}, 2.0)]},
}


def _with_counters(**changes) -> dict:
    """STATZ with some ``kdap.service.*`` counters replaced."""
    counters = dict(STATZ["service"]["counters"])
    counters.update({f"kdap.service.{name.replace('__', '.')}": value
                     for name, value in changes.items()})
    return {**STATZ, "service": {"counters": counters}}


class TestRenderDashboard:
    def test_header_and_load_line(self):
        frame = render_dashboard(STATZ, METRICS)
        assert "state=serving" in frame
        assert "workers=4" in frame  # config echo, not the detail list
        assert "queue=3" in frame
        assert "in_flight=2" in frame
        assert "] 50%" in frame  # 2 in flight of 4 configured workers
        # first frame: 4 shed of 45 arrivals since start (a queue
        # timeout was admitted first, so it is no second arrival)
        assert "shed_rate=0.089" in frame

    def test_shed_rate_is_frame_delta(self):
        previous = _with_counters(admitted=36, shed__queue_full=1,
                                  shed__queue_timeout=1)
        frame = render_dashboard(STATZ, METRICS, previous=previous)
        assert "shed_rate=0.250" in frame  # 2 shed of 8 arrivals
        # a quiet interval reports 0.0, not a stale rate
        quiet = render_dashboard(STATZ, METRICS, previous=STATZ)
        assert quiet.splitlines()[1].endswith("shed_rate=0")

    def test_utilisation_uses_the_detail_list_without_config(self):
        statz = {key: value for key, value in STATZ.items()
                 if key != "config"}
        assert "] 100%" in render_dashboard(statz, METRICS)

    def test_requests_line_folds_service_counters(self):
        frame = render_dashboard(STATZ, METRICS)
        assert "admitted=42" in frame
        assert "ok=39" in frame
        assert "4xx=1" in frame
        assert "5xx=2" in frame
        assert "shed=4" in frame  # queue_full + queue_timeout

    def test_worker_count_falls_back_to_detail_list(self):
        statz = {key: value for key, value in STATZ.items()
                 if key != "config"}
        assert "workers=2" in render_dashboard(statz, METRICS)

    def test_slo_section(self):
        frame = render_dashboard(STATZ, METRICS)
        assert "state=ok" in frame
        assert "burn=1.25" in frame  # long window
        burning = {**STATZ, "slo": {**STATZ["slo"], "burning": True}}
        assert "BURNING" in render_dashboard(burning, METRICS)

    def test_sampling_and_slowlog_sections(self):
        frame = render_dashboard(STATZ, METRICS)
        assert "considered=40" in frame
        assert "err=2" in frame
        assert "threshold=1000.0ms" in frame

    def test_missing_sections_are_skipped(self):
        bare = {"state": "serving", "uptime_s": 1.0}
        frame = render_dashboard(bare, {})
        assert "slo" not in frame
        assert "reqs" not in frame
        assert "queue=-" in frame  # missing gauges render as '-'
        assert "shed_rate=-" in frame

    def test_recent_events_render(self):
        events = [{"seq": 9, "ts": 1.0, "kind": "finished",
                   "request_id": "r000009", "status": 200}]
        frame = render_dashboard(STATZ, METRICS, events)
        assert "#9 finished" in frame
        assert "request_id=r000009" in frame


class TestRunTop:
    def test_renders_requested_frames(self):
        out = io.StringIO()
        fetches = []

        def fetch(url):
            fetches.append(url)
            return {"statz": STATZ, "metrics": METRICS}

        code = run_top("http://x", interval_s=0.0, iterations=3,
                       out=out, clock=lambda _s: None, fetch=fetch)
        assert code == 0
        assert len(fetches) == 3
        assert out.getvalue().count("kdap top") == 3

    def test_each_frame_rates_against_the_one_before(self):
        out = io.StringIO()
        samples = iter([
            _with_counters(admitted=36, shed__queue_full=1,
                           shed__queue_timeout=1),
            STATZ,
        ])

        def fetch(url):
            return {"statz": next(samples), "metrics": METRICS}

        run_top("http://x", interval_s=0.0, iterations=2, out=out,
                clock=lambda _s: None, fetch=fetch)
        first, second = out.getvalue().split(CLEAR)[1:]
        assert "shed_rate=0.054" in first  # 2 shed of 37 since start
        assert "shed_rate=0.250" in second  # 2 shed of 8 in between

    def test_scrape_failure_renders_error_frame(self):
        out = io.StringIO()

        def fetch(url):
            raise OSError("connection refused")

        code = run_top("http://x", interval_s=0.0, iterations=1,
                       out=out, clock=lambda _s: None, fetch=fetch)
        assert code == 0
        assert "scrape failed" in out.getvalue()
