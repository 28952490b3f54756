"""The ``repro top`` live dashboard: scrape, fold, render.

``repro top`` is deliberately a *client* of the service's own telemetry
surface — it polls ``GET /v1/statz`` (JSON) and ``GET /v1/metricz``
(Prometheus text, read back through the strict parser) exactly the way
an external monitoring stack would, so running it doubles as an
end-to-end check that the exposed surface is sufficient to operate the
service.  Nothing here reaches into server internals.

The module splits cleanly for testing: :func:`fetch_sample` does the two
HTTP GETs, :func:`render_dashboard` is a pure ``(statz, metrics) → str``
function, and :func:`run_top` is the loop that alternates them with an
ANSI home-and-clear between frames.  Tests exercise the renderer on
canned snapshots without a server.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from .promexport import parse_prometheus

CLEAR = "\x1b[H\x1b[2J"


def fetch_sample(base_url: str, timeout: float = 5.0) -> dict:
    """One scrape: ``{"statz": dict, "metrics": families}``."""
    base = base_url.rstrip("/")
    with urllib.request.urlopen(f"{base}/v1/statz",
                                timeout=timeout) as response:
        statz = json.loads(response.read().decode("utf-8"))
    with urllib.request.urlopen(f"{base}/v1/metricz",
                                timeout=timeout) as response:
        metrics = parse_prometheus(response.read().decode("utf-8"))
    return {"statz": statz, "metrics": metrics}


def _metric_value(metrics: dict, name: str) -> float | None:
    family = metrics.get(name)
    if not family:
        return None
    for sample_name, _labels, value in family["samples"]:
        if sample_name == name:
            return value
    return None


def _fmt(value, digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.{digits}f}"
    return str(int(value))


def _bar(fraction: float | None, width: int = 20) -> str:
    if fraction is None:
        return "." * width
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled + "." * (width - filled)


SHED = ("kdap.service.shed.queue_full", "kdap.service.shed.queue_timeout")
# a queue-timeout shed was admitted first, so it is no second arrival
ARRIVALS = ("kdap.service.admitted", "kdap.service.shed.queue_full",
            "kdap.service.rejected.draining")


def _counters(statz: dict | None) -> dict:
    return (statz or {}).get("service", {}).get("counters", {})


def render_dashboard(statz: dict, metrics: dict,
                     events: list | None = None,
                     previous: dict | None = None) -> str:
    """One dashboard frame from a statz snapshot + parsed metricz; the
    shed rate covers the requests that arrived since ``previous`` (the
    frame before's statz; server start when None)."""
    lines: list[str] = []
    state = statz.get("state", "?")
    uptime = statz.get("uptime_s")
    # statz["workers"] is the per-worker detail list; the fleet size
    # lives in the config echo
    workers = statz.get("config", {}).get("workers")
    if workers is None and isinstance(statz.get("workers"), list):
        workers = len(statz["workers"])
    lines.append(f"kdap top — state={state} uptime={_fmt(uptime)}s "
                 f"workers={_fmt(workers)}")

    queue_depth = _metric_value(metrics, "kdap_service_queued")
    in_flight = _metric_value(metrics, "kdap_service_in_flight")
    utilization = (in_flight / workers
                   if in_flight is not None and workers else None)
    counters, before = _counters(statz), _counters(previous)

    def growth(names) -> int:
        return sum(counters.get(n, 0) - before.get(n, 0) for n in names)

    shed_rate = None
    if counters:
        arrivals = growth(ARRIVALS)
        shed_rate = (round(growth(SHED) / arrivals, 4) if arrivals > 0
                     else 0.0)
    lines.append(f"  load   queue={_fmt(queue_depth)} "
                 f"in_flight={_fmt(in_flight)} "
                 f"util=[{_bar(utilization)}] {_fmt((utilization or 0) * 100)}% "
                 f"shed_rate={_fmt(shed_rate, 3)}")

    if counters:
        def status_total(family: str) -> int:
            prefix = f"kdap.service.status.{family}"
            return sum(value for key, value in counters.items()
                       if key.startswith(prefix))

        shed = sum(counters.get(name, 0) for name in SHED)
        lines.append(f"  reqs   admitted="
                     f"{counters.get('kdap.service.admitted', 0)} "
                     f"ok={status_total('2')} 4xx={status_total('4')} "
                     f"5xx={status_total('5')} shed={shed}")

    slo = statz.get("slo")
    if slo:
        policy = slo.get("policy", {})
        burning = slo.get("burning")
        banner = "BURNING" if burning else "ok"
        lines.append(f"  slo    target_p95={policy.get('target_p95_ms')}ms "
                     f"budget={policy.get('error_budget')} "
                     f"state={banner} alerts={slo.get('alerts', 0)}")
        for label in ("short", "long"):
            window = slo.get("windows", {}).get(label)
            if window:
                lines.append(
                    f"         {label:<5} ({_fmt(window.get('window_s'))}s) "
                    f"n={window.get('total', 0)} "
                    f"bad={window.get('bad', 0)} "
                    f"burn={_fmt(window.get('burn_rate'), 2)} "
                    f"p95={_fmt(window.get('p95_ms'))}ms")

    sampling = statz.get("sampling")
    if sampling:
        persisted = sampling.get("persisted", {})
        lines.append(
            f"  trace  considered={sampling.get('considered', 0)} "
            f"kept={sampling.get('persisted_total', 0)} "
            f"(err={persisted.get('error', 0)} "
            f"trunc={persisted.get('truncated', 0)} "
            f"slow={persisted.get('slow', 0)} "
            f"head={persisted.get('head', 0)}) "
            f"dropped={sampling.get('dropped', 0)}")

    event_stats = statz.get("events")
    if event_stats:
        lines.append(f"  events emitted={event_stats.get('emitted', 0)} "
                     f"retained={event_stats.get('retained', 0)} "
                     f"dropped={event_stats.get('dropped', 0)}")
    for event in (events or [])[-5:]:
        detail = " ".join(
            f"{key}={value}" for key, value in sorted(event.items())
            if key not in ("seq", "ts", "kind")
            and value not in (None, "", [], {}))
        lines.append(f"    #{event.get('seq')} {event.get('kind')} "
                     f"{detail}".rstrip())

    slowlog = statz.get("slowlog")
    if slowlog:
        lines.append(f"  slow   observed={slowlog.get('observed', 0)} "
                     f"retained={slowlog.get('retained', 0)} "
                     f"threshold={slowlog.get('threshold_ms')}ms")
    return "\n".join(lines)


def run_top(base_url: str, interval_s: float = 2.0,
            iterations: int | None = None, out=None,
            clock=time.sleep, fetch=fetch_sample) -> int:
    """Poll-and-render loop; returns a CLI exit code.

    ``iterations=None`` runs until interrupted; tests pass a count plus
    a stub ``fetch``.  A scrape failure renders an error frame and keeps
    polling — the server restarting must not kill the operator's view.
    """
    import sys
    out = out if out is not None else sys.stdout
    frame = 0
    previous = None
    while iterations is None or frame < iterations:
        frame += 1
        try:
            sample = fetch(base_url)
            body = render_dashboard(sample["statz"], sample["metrics"],
                                    sample.get("events"), previous)
            previous = sample["statz"]
        except (urllib.error.URLError, OSError, ValueError) as exc:
            body = f"kdap top — scrape failed: {exc}"
        out.write(CLEAR + body + "\n")
        out.flush()
        if iterations is not None and frame >= iterations:
            break
        try:
            clock(interval_s)
        except KeyboardInterrupt:
            break
    return 0
