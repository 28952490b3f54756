"""Observability: tracing, metrics, EXPLAIN ANALYZE, events, sampling.

This package is the bottom of the import graph — it depends only on the
standard library, and every other layer (plan, backends, resilience,
session) emits into it:

* :class:`Tracer` / :func:`tracing_scope` — hierarchical spans
  propagated through context variables (surviving retry ladders),
  exportable as a tree or Chrome ``trace_event`` JSON;
* :class:`MetricsRegistry` — named counters, gauges, and fixed-boundary
  histograms with p50/p95/p99 summaries; one process-wide default plus
  per-session isolated registries via :func:`metrics_scope`;
* :func:`profile_plan` / :class:`ExplainResult` — logical plans
  annotated per-node with actual calls/rows/batches/seconds pulled from
  span data (``KdapSession.explain`` / ``repro explain``);
* :class:`EventLog` — bounded ring of structured request-lifecycle
  events (JSONL sink optional), the machine-readable operator timeline;
* :class:`TailSampler` — persist-or-drop decisions for full traces
  after a request ends (errored/truncated/slow/1-in-N head sample);
* :func:`render_prometheus` / :func:`parse_prometheus` — Prometheus
  text exposition of merged per-worker registries, and its strict
  reader;
* :class:`SloTracker` — rolling-window latency/error objective with
  multi-window burn-rate alerting.

Public surface::

    from repro.obs import (
        Tracer, Span, NOOP, NOOP_SPAN, tracing_scope, current_tracer,
        current_span, op_span, plan_digest,
        MetricsRegistry, Counter, Gauge, Histogram, DEFAULT_REGISTRY,
        metrics_scope, current_registry, runs_summary,
        ExplainNode, ExplainResult, OpProfile, profile_plan,
        render_plan, render_span_tree,
        Event, EventLog,
        SamplingPolicy, SamplingDecision, TailSampler,
        render_prometheus, parse_prometheus, metric_name,
        merge_histogram_states, rollup_registries,
        PROMETHEUS_CONTENT_TYPE,
        SloPolicy, SloTracker,
    )
"""

from .tracer import (
    NOOP,
    NOOP_SPAN,
    Span,
    Tracer,
    current_request_id,
    current_span,
    current_tracer,
    op_span,
    plan_digest,
    request_scope,
    tracing_scope,
)
from .metrics import (
    DEFAULT_REGISTRY,
    LATENCY_BOUNDARIES_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    metrics_scope,
    runs_summary,
)
from .explain import (
    ExplainNode,
    ExplainResult,
    OpProfile,
    profile_plan,
    render_plan,
    render_span_tree,
)
from .events import Event, EventLog
from .sampling import SamplingDecision, SamplingPolicy, TailSampler
from .promexport import (
    PROMETHEUS_CONTENT_TYPE,
    merge_histogram_states,
    metric_name,
    parse_prometheus,
    render_prometheus,
    rollup_registries,
)
from .slo import SloPolicy, SloTracker

__all__ = [
    "Counter",
    "DEFAULT_REGISTRY",
    "Event",
    "EventLog",
    "ExplainNode",
    "ExplainResult",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDARIES_S",
    "MetricsRegistry",
    "NOOP",
    "NOOP_SPAN",
    "OpProfile",
    "PROMETHEUS_CONTENT_TYPE",
    "SamplingDecision",
    "SamplingPolicy",
    "SloPolicy",
    "SloTracker",
    "Span",
    "TailSampler",
    "Tracer",
    "current_registry",
    "current_request_id",
    "current_span",
    "current_tracer",
    "merge_histogram_states",
    "metric_name",
    "metrics_scope",
    "op_span",
    "parse_prometheus",
    "plan_digest",
    "profile_plan",
    "render_plan",
    "render_prometheus",
    "rollup_registries",
    "render_span_tree",
    "request_scope",
    "runs_summary",
    "tracing_scope",
]
