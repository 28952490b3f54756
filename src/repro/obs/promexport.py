"""Prometheus text-format exposition over :mod:`repro.obs.metrics`.

Two things live here, both stdlib-only:

* :func:`render_prometheus` — the ``GET /v1/metricz`` body: every
  counter, gauge, and histogram from one *or several* registries in the
  Prometheus text exposition format (version 0.0.4).  Per-worker
  registries are **rolled up first** — counters sum, gauges sum, and
  histograms merge per-bucket (:func:`merge_histogram_states`) — so one
  scrape sees fleet totals, with cumulative ``_bucket{le="..."}`` series
  derived from the fixed-boundary histogram counts.
* :func:`parse_prometheus` — a strict parser for the same format.  It
  exists for the round-trip test (what we expose must be exactly
  re-readable) and for ``repro top``, which scrapes its own server the
  way Prometheus would.

Metric names translate mechanically: dotted instrument names become
underscore-separated (``kdap.explore.seconds`` →
``kdap_explore_seconds``); no labels are synthesised because the rollup
already collapsed the per-worker dimension.
"""

from __future__ import annotations

import math
import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$")
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>'
                    r'(?:[^"\\]|\\.)*)"$')


def metric_name(dotted: str) -> str:
    """A dotted instrument name as a legal Prometheus metric name."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", dotted)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    """Floats in the shortest exact form the parser reads back."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# rollup
# ----------------------------------------------------------------------
def merge_histogram_states(states) -> dict | None:
    """Elementwise merge of :meth:`Histogram.state` dicts.

    States must share bucket boundaries (they do in practice — every
    worker builds the same instruments from the same code path); a
    boundary mismatch raises rather than silently mis-merging counts.
    """
    merged: dict | None = None
    for state in states:
        if merged is None:
            merged = {"boundaries": state["boundaries"],
                      "counts": list(state["counts"]),
                      "count": state["count"], "sum": state["sum"],
                      "min": state["min"], "max": state["max"]}
            continue
        if state["boundaries"] != merged["boundaries"]:
            raise ValueError("histogram boundary mismatch in rollup")
        merged["counts"] = [a + b for a, b in zip(merged["counts"],
                                                  state["counts"])]
        merged["count"] += state["count"]
        merged["sum"] += state["sum"]
        for key, pick in (("min", min), ("max", max)):
            if state[key] is not None:
                merged[key] = (state[key] if merged[key] is None
                               else pick(merged[key], state[key]))
    return merged


def rollup_registries(registries) -> dict:
    """Counters summed, gauges summed, histogram states merged.

    Returns ``{"counters": {name: int}, "gauges": {name: float},
    "histograms": {name: state}}`` across every registry, the shared
    shape consumed by both the text exposition and ``/v1/statz``.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histogram_states: dict[str, list] = {}
    for registry in registries:
        for name, instrument in registry.instruments().items():
            if isinstance(instrument, Counter):
                counters[name] = counters.get(name, 0) + instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = gauges.get(name, 0.0) + instrument.value
            elif isinstance(instrument, Histogram):
                histogram_states.setdefault(name, []).append(
                    instrument.state())
    histograms = {name: merge_histogram_states(states)
                  for name, states in histogram_states.items()}
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def render_prometheus(registries: "MetricsRegistry | list") -> str:
    """The Prometheus text-format exposition of one or more registries."""
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    rolled = rollup_registries(registries)
    lines: list[str] = []
    for name in sorted(rolled["counters"]):
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} counter")
        lines.append(f"{exposed} {_format_value(rolled['counters'][name])}")
    for name in sorted(rolled["gauges"]):
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} gauge")
        lines.append(f"{exposed} {_format_value(rolled['gauges'][name])}")
    for name in sorted(rolled["histograms"]):
        state = rolled["histograms"][name]
        exposed = metric_name(name)
        lines.append(f"# TYPE {exposed} histogram")
        cumulative = 0
        for boundary, count in zip(state["boundaries"], state["counts"]):
            cumulative += count
            lines.append(f'{exposed}_bucket{{le="{_format_value(boundary)}"'
                         f"}} {cumulative}")
        lines.append(f'{exposed}_bucket{{le="+Inf"}} {state["count"]}')
        lines.append(f"{exposed}_sum {_format_value(state['sum'])}")
        lines.append(f"{exposed}_count {state['count']}")
    return "\n".join(lines) + "\n"


PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ----------------------------------------------------------------------
# strict parsing
# ----------------------------------------------------------------------
def _parse_value(text: str, line_no: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"line {line_no}: invalid sample value {text!r}") from None


def _parse_labels(raw: str, line_no: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        match = _LABEL.match(part)
        if match is None:
            raise ValueError(f"line {line_no}: malformed label {part!r}")
        value = match.group("value")
        value = (value.replace(r"\\", "\\").replace(r"\"", '"')
                 .replace(r"\n", "\n"))
        labels[match.group("key")] = value
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Strictly parse Prometheus text format into metric families.

    Returns ``{family_name: {"type": str, "samples": [(sample_name,
    labels_dict, value), ...]}}``.  Histogram series (``_bucket`` /
    ``_sum`` / ``_count``) group under their family name.  Any line that
    is not a comment, a blank, or a well-formed sample raises
    ``ValueError`` — this parser is a contract check, not a scraper that
    shrugs.
    """
    families: dict[str, dict] = {}
    suffixes = ("_bucket", "_sum", "_count")
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] not in ("TYPE", "HELP"):
                raise ValueError(
                    f"line {line_no}: unknown comment {parts[1]!r}")
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(
                        f"line {line_no}: malformed TYPE line")
                name = parts[2]
                if name in families:
                    raise ValueError(
                        f"line {line_no}: duplicate TYPE for {name}")
                families[name] = {"type": parts[3], "samples": []}
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample "
                             f"{line!r}")
        sample_name = match.group("name")
        family = sample_name
        if family not in families:
            for suffix in suffixes:
                if sample_name.endswith(suffix) \
                        and sample_name[: -len(suffix)] in families:
                    family = sample_name[: -len(suffix)]
                    break
        if family not in families:
            raise ValueError(f"line {line_no}: sample {sample_name!r} "
                             "precedes its TYPE declaration")
        labels = _parse_labels(match.group("labels") or "", line_no)
        value = _parse_value(match.group("value"), line_no)
        families[family]["samples"].append((sample_name, labels, value))
    return families
