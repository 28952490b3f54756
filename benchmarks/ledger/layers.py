"""Per-layer attribution for the traced run: the soft layer map, the
timing wrappers, self-time, and the layer report.

Nothing under ``src/`` is edited.  For the traced run the harness hosts
the service in its own process and wraps each layer's public functions
(``TARGETS``) with a span recorder: every ``repro.*`` namespace that
imported a wrapped function is patched, and everything is restored
afterwards.  Spans are ``[id, target, start, end, parent, root]`` kept
in memory; the service port and request id are attached to the root
(``KdapService.submit``) when it returns.

The map is **soft**: a target a later refactor renamed or deleted is
skipped with a warning, a metric reports ``null`` once none of its
targets is left, and the time falls into ``unattributed_ms`` — the run
never crashes because of a rename.

A request's worker-thread spans are tied to its handler-thread root
through the ``RequestSpec`` object: ``parse_request`` returns it inside
the root span and ``make_budget`` receives the same object first thing
on the worker thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

from client import percentile
from server import fetch_statz

ROOT = "KdapService.submit"
HTTP = "service.http.overhead_ms"
ADMISSION = "service.admission"

#: (time metric the target's self time feeds, module, attribute path)
TARGETS = (
    (HTTP, "repro.service.server", ROOT),
    ("service.protocol.parse_ms", "repro.service.protocol", "parse_request"),
    ("service.protocol.parse_ms", "repro.service.protocol", "make_budget"),
    ("service.protocol.serialize_ms", "repro.service.protocol",
     "explore_payload"),
    ("service.protocol.serialize_ms", "repro.service.protocol",
     "differentiate_payload"),
    ("textindex.search_ms", "repro.textindex.index",
     "AttributeTextIndex.search"),
    ("textindex.search_ms", "repro.textindex.index",
     "AttributeTextIndex.search_phrase"),
    ("core.matching.match_ms", "repro.core.matching", "MatcherChain.match"),
    ("core.interpret.enumerate_ms", "repro.core.interpret",
     "enumerate_interpretations"),
    ("core.interpret.rank_ms", "repro.core.interpret",
     "rank_interpretations"),
    ("plan.evaluate_ms", "repro.plan.engine", "QueryEngine.evaluate"),
    ("plan.evaluate_ms", "repro.plan.engine", "QueryEngine.semijoin_rows"),
    ("plan.evaluate_ms", "repro.plan.engine",
     "QueryEngine.subspace_aggregate"),
    ("plan.evaluate_ms", "repro.plan.engine",
     "QueryEngine.subspace_partition_aggregates"),
    ("plan.evaluate_ms", "repro.plan.engine",
     "QueryEngine.multi_partition_aggregates"),
    ("warehouse.materialize.answer_ms", "repro.warehouse.materialize",
     "MaterializationTier.answer"),
    ("warehouse.materialize.answer_ms", "repro.warehouse.materialize",
     "MaterializationTier.note_miss"),
    ("warehouse.materialize.answer_ms", "repro.warehouse.materialize",
     "MaterializationTier.snapshot"),
    ("relational.scan_aggregate_ms", "repro.plan.backends",
     "InMemoryBackend.materialize"),
    ("relational.scan_aggregate_ms", "repro.plan.backends",
     "InMemoryBackend.execute"),
    ("core.facets.self_ms", "repro.core.facets", "build_facets"),
    ("core.facets.self_ms", "repro.core.facets", "apply_modifier"),
    ("core.facets.self_ms", "repro.core.attribute_ranking",
     "rank_groupby_attributes"),
    ("core.facets.self_ms", "repro.core.instance_ranking",
     "rank_instances_batch"),
    ("core.facets.self_ms", "repro.core.attribute_ranking",
     "numerical_series"),
    ("core.bucketing.bucket_ms", "repro.core.bucketing", "bucket_series"),
    ("core.bucketing.bucket_ms", "repro.core.bucketing", "equal_width"),
    ("core.bucketing.bucket_ms", "repro.core.bucketing",
     "distinct_value_buckets"),
    ("core.annealing.anneal_ms", "repro.core.annealing", "anneal_splits"),
)

METRIC_OF = {path: metric for metric, _, path in TARGETS}
TIME_METRICS = tuple(dict.fromkeys(METRIC_OF.values()))

#: every per-layer metric the traced run reports -> unit
PER_LAYER_UNITS = {
    HTTP: "ms",
    "service.protocol.response_bytes": "bytes",
    "service.protocol.parse_ms": "ms",
    "service.protocol.serialize_ms": "ms",
    "service.admission.queue_wait_ms": "ms",
    "service.admission.shed": "count",
    "textindex.search_ms": "ms",
    "textindex.search_calls": "count",
    "core.matching.match_ms": "ms",
    "core.matching.accept_ratio": "ratio",
    "core.interpret.enumerate_ms": "ms",
    "core.interpret.rank_ms": "ms",
    "core.interpret.kept_ratio": "ratio",
    "plan.evaluate_ms": "ms",
    "plan.calls": "count",
    "plan.cache_hit_ratio": "ratio",
    "warehouse.materialize.answer_ms": "ms",
    "warehouse.materialize.hit_ratio": "ratio",
    "warehouse.materialize.views": "count",
    "relational.scan_aggregate_ms": "ms",
    "relational.rows_scanned": "count",
    "relational.chunks_skipped_ratio": "ratio",
    "core.facets.self_ms": "ms",
    "core.bucketing.bucket_ms": "ms",
    "core.bucketing.values_bucketed": "count",
    "core.annealing.anneal_ms": "ms",
    "core.annealing.calls": "count",
    "unattributed_ms": "ms",
    "unattributed_share": "ratio",
    "trace_overhead_ratio": "ratio",
}


def layer_of(metric: str) -> str:
    """``core.interpret.rank_ms`` -> ``core.interpret``."""
    return metric.rsplit(".", 1)[0]


class Recorder:
    """Spans and counts of one traced window, all in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, target, start, end, parent, root]
        #: root span id -> (service port, request id); ids restart at
        #: r000001 with every fresh service, the port tells them apart
        self.request_ids: dict[int, tuple] = {}
        self.calls: dict[str, int] = defaultdict(int)  # by target
        self.counts: dict[str, float] = defaultdict(float)
        self.spec_roots: dict[int, int] = {}  # id(RequestSpec) -> root id
        self.local = threading.local()
        self._ids = itertools.count(1)

    def open(self, target: str) -> list:
        local = self.local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            parent, root = stack[-1][0], stack[-1][5]
        else:  # a worker thread's top-level span joins its request
            parent = root = getattr(local, "adopted", None)
        span = [next(self._ids), target, 0.0, 0.0, parent, root]
        if root is None:
            span[5] = span[0]
        stack.append(span)
        span[2] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.local.stack.pop()
        self.spans.append(span)


# ----------------------------------------------------------------------
# count hooks: before(recorder, args) -> token,
#              after(recorder, span, token, args, result)
# ----------------------------------------------------------------------
def _scan_counters(recorder, args):
    """(rows through row-producing operators, chunks scanned, chunks
    skipped) so far on this backend, from its public ``counters``."""
    ops = getattr(getattr(args[0], "counters", None), "ops", None)
    if ops is None:
        return None
    rows = scanned = skipped = 0
    for name, stats in list(ops.items()):
        if name in ("Scan", "RowSet", "SemiJoin", "Filter"):
            rows += stats.rows
        scanned += stats.chunks_scanned
        skipped += stats.chunks_skipped
    return rows, scanned, skipped


def _scan_delta(recorder, span, before, args, result):
    after = _scan_counters(recorder, args)
    if before is not None and after is not None:
        for name, a, b in zip(("rows_scanned", "chunks_scanned",
                               "chunks_skipped"), after, before):
            recorder.counts[name] += a - b


def _remember_spec(recorder, span, before, args, result):
    recorder.spec_roots[id(result)] = span[5]


def _adopt_request(recorder, args):
    recorder.local.adopted = recorder.spec_roots.pop(id(args[0]), None)


def _remember_request_id(recorder, span, before, args, result):
    request_id = result[2].get("X-Request-Id")
    if request_id is not None:
        recorder.request_ids[span[0]] = (args[0].port, request_id)


def _count_matches(recorder, span, before, args, result):
    for name, value in result.counters.items():
        kind = name.rsplit(".", 1)[-1]  # "candidates" | "accepted"
        recorder.counts[f"match_{kind}"] += value


def _count_enumerated(recorder, span, before, args, result):
    recorder.counts["enumerated"] += len(result)


def _count_bucketed(recorder, span, before, args, result):
    recorder.counts["values_bucketed"] += len(args[0])


HOOKS = {
    "InMemoryBackend.materialize": (_scan_counters, _scan_delta),
    "InMemoryBackend.execute": (_scan_counters, _scan_delta),
    "parse_request": (None, _remember_spec),
    "make_budget": (_adopt_request, None),
    ROOT: (None, _remember_request_id),
    "MatcherChain.match": (None, _count_matches),
    "enumerate_interpretations": (None, _count_enumerated),
    "bucket_series": (None, _count_bucketed),
}


def _wrap(recorder: Recorder, target: str, original):
    before_hook, after_hook = HOOKS.get(target, (None, None))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = None
        if before_hook is not None:
            try:
                token = before_hook(recorder, args)
            except Exception:  # noqa: BLE001 - a hook never fails a call
                token = None
        span = recorder.open(target)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        recorder.calls[target] += 1
        if after_hook is not None:
            try:
                after_hook(recorder, span, token, args, result)
            except Exception:  # noqa: BLE001 - counts go missing, not runs
                pass
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw function) or None when the target is gone.

    Only plain Python functions are wrapped; anything else (a target
    turned into a property or a staticmethod) counts as missing.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *holders, attribute = path.split(".")
    for name in holders:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute)
    if not hasattr(raw, "__code__"):
        return None
    return owner, attribute, raw


@contextmanager
def installed(recorder: Recorder):
    """Install the wrappers for the duration of the block.

    Yields the set of targets that could not be found.
    """
    patches: list[tuple] = []  # (namespace, name, original)
    missing: set[str] = set()
    # a module-level function is patched in every repro.* module that
    # imported it, not just where it is defined
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and
               (name == "repro" or name.startswith("repro."))]
    try:
        for _metric, module_name, path in TARGETS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                missing.add(path)
                warnings.warn(
                    f"ledger: layer target {module_name}.{path} not found; "
                    f"its time falls into unattributed_ms", stacklevel=3)
                continue
            owner, attribute, raw = resolved
            wrapper = _wrap(recorder, path, raw)
            for namespace in ([owner] if isinstance(owner, type)
                              else modules):
                for name, value in list(vars(namespace).items()):
                    if value is raw:
                        setattr(namespace, name, wrapper)
                        patches.append((namespace, name, raw))
        yield missing
    finally:
        for namespace, name, raw in reversed(patches):
            setattr(namespace, name, raw)


# ----------------------------------------------------------------------
# statz deltas
# ----------------------------------------------------------------------
def statz_counters(statz: dict) -> dict:
    """The monotonic ``/v1/statz`` numbers the layer metrics use."""
    out = {}
    service = statz.get("service", {})
    for name, value in service.get("counters", {}).items():
        if name.startswith("kdap.service.shed."):
            out["shed"] = out.get("shed", 0) + value
    wait = service.get("histograms", {}).get("kdap.service.queue_wait_s")
    if wait is not None:
        out["queue_wait_s"] = wait["sum"]
        out["queue_wait_n"] = wait["count"]
    rollup = statz.get("rollup", {})
    if "counters" in rollup:  # a counter appears with its first increment
        out["plan_hits"] = rollup["counters"].get("kdap.plan.cache.hits", 0)
        out["plan_misses"] = rollup["counters"].get(
            "kdap.plan.cache.misses", 0)
    tier = rollup.get("materialize")
    if tier is not None:
        out["tier_hits"] = tier.get("hits", 0) + tier.get("rollup_hits", 0)
        out["tier_misses"] = tier.get("misses", 0)
    return out


class StatzMeter:
    """A host handle that sums statz counter growth over a window, even
    across the service restarts of ``fresh_service_per_pass``."""

    def __init__(self, host):
        self.host = host
        self.total: dict[str, float] = defaultdict(float)
        self.views = None
        self._base = statz_counters(fetch_statz(host.port))

    @property
    def port(self) -> int:
        return self.host.port

    def _fold(self) -> None:
        statz = fetch_statz(self.host.port)
        for name, value in statz_counters(statz).items():
            self.total[name] += value - self._base.get(name, 0)
        tier = statz.get("rollup", {}).get("materialize")
        self.views = tier.get("views") if tier is not None else None

    def restart(self) -> None:
        self._fold()
        self.host.restart()
        self._base = {}  # a fresh service counts from zero

    def finish(self) -> dict:
        self._fold()
        return dict(self.total)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def self_times(spans) -> dict:
    """span id -> self time: the span's duration minus the part of its
    interval that its child spans cover (children may overlap each
    other and may overhang the parent; both are clipped)."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    result = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[0], ()),
                            key=lambda c: c[2]):
            low = max(child[2], cursor)
            high = min(child[3], end)
            if high > low:
                covered += high - low
                cursor = high
        result[span[0]] = (end - start) - covered
    return result


# ----------------------------------------------------------------------
# the layer report
# ----------------------------------------------------------------------
def attribute(recorder: Recorder, samples) -> tuple[list, dict]:
    """Join client samples with spans.

    Returns one row per sample whose request could be linked to a root
    span — layer -> ms, plus ``latency`` and ``unattributed`` (what is
    left, so a row sums to its latency by construction) — and the self
    time per time metric summed over *all* spans, linked or not.
    """
    selfs = self_times(recorder.spans)
    by_id = {span[0]: span for span in recorder.spans}
    by_root = defaultdict(list)
    totals = defaultdict(float)
    for span in recorder.spans:
        by_root[span[5]].append(span)
        if span[1] != ROOT:
            totals[METRIC_OF[span[1]]] += selfs[span[0]] * 1000.0
    root_of = {rid: root for root, rid in recorder.request_ids.items()}

    rows = []
    for sample in samples:
        root = by_id.get(root_of.get((sample.port, sample.request_id)))
        if root is None:
            continue
        row = defaultdict(float)
        row[layer_of(HTTP)] = (sample.latency_ms
                               - (root[3] - root[2]) * 1000.0)
        parsed = budgeted = None
        for span in by_root[root[0]]:
            if span is root:
                continue
            row[layer_of(METRIC_OF[span[1]])] += selfs[span[0]] * 1000.0
            if span[1] == "parse_request":
                parsed = span[3]
            elif span[1] == "make_budget":
                budgeted = span[2]
        if parsed is not None and budgeted is not None:
            row[ADMISSION] = max(0.0, (budgeted - parsed) * 1000.0)
        row["unattributed"] = sample.latency_ms - sum(row.values())
        row["latency"] = sample.latency_ms
        rows.append(row)
    return rows, dict(totals)


def layer_table(rows: list) -> list[dict]:
    """Layers ranked by share of request time, with the share among
    median requests (latency within p40..p60) and tail requests (>= p90)."""
    if not rows:
        return []
    latencies = [row["latency"] for row in rows]
    p40, p60, p90 = (percentile(latencies, q, min_beyond=0)
                     for q in (40, 60, 90))
    groups = {
        "share": rows,
        "share_p50": [r for r in rows if p40 <= r["latency"] <= p60],
        "share_p90": [r for r in rows if r["latency"] >= p90],
    }
    table = []
    for layer in sorted({key for row in rows for key in row} - {"latency"}):
        entry = {"layer": layer,
                 "mean_ms": sum(r.get(layer, 0.0) for r in rows) / len(rows)}
        for column, group in groups.items():
            total = sum(r["latency"] for r in group)
            entry[column] = (sum(r.get(layer, 0.0) for r in group) / total
                             if total else 0.0)
        table.append(entry)
    table.sort(key=lambda entry: -entry["share"])
    return table


def format_table(table: list[dict]) -> str:
    lines = [f"  {'layer':<24}{'ms/request':>12}{'share':>9}"
             f"{'@p50':>9}{'@p90':>9}"]
    lines += [f"  {e['layer']:<24}{e['mean_ms']:>12.3f}{e['share']:>9.1%}"
              f"{e['share_p50']:>9.1%}{e['share_p90']:>9.1%}"
              for e in table]
    return "\n".join(lines)


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, samples, rows, totals, missing,
                  statz: dict, views, kept: int,
                  untraced_p50_ms: float) -> dict:
    """Every per-layer metric (``None`` = its source is gone).

    Time metrics are mean self time per request; the means of all time
    metrics, HTTP overhead, queue wait and ``unattributed_ms`` sum to the
    mean client latency by construction.
    """
    n = len(samples)
    latencies = [s.latency_ms for s in samples]
    mean_latency = sum(latencies) / n
    metrics: dict = {}
    for metric in TIME_METRICS:
        targets = [path for path, m in METRIC_OF.items() if m == metric]
        gone = all(path in missing for path in targets)
        metrics[metric] = None if gone else totals.get(metric, 0.0) / n
    metrics[HTTP] = (None if ROOT in missing or not rows else
                     sum(r[layer_of(HTTP)] for r in rows) / len(rows))

    def calls(*targets):
        if all(t in missing for t in targets):
            return None
        return sum(recorder.calls[t] for t in targets) / n

    def count(name, *targets):
        if all(t in missing for t in targets):
            return None
        return recorder.counts[name]

    waited = statz.get("queue_wait_n")
    metrics["service.admission.queue_wait_ms"] = (
        None if waited is None else
        statz["queue_wait_s"] * 1000.0 / waited if waited else 0.0)
    metrics["service.admission.shed"] = statz.get("shed", 0)
    metrics["service.protocol.response_bytes"] = \
        sum(len(s.body) for s in samples) / n
    metrics["textindex.search_calls"] = calls(
        "AttributeTextIndex.search", "AttributeTextIndex.search_phrase")
    metrics["core.matching.accept_ratio"] = _ratio(
        count("match_accepted", "MatcherChain.match"),
        count("match_candidates", "MatcherChain.match"))
    metrics["core.interpret.kept_ratio"] = _ratio(
        kept, count("enumerated", "enumerate_interpretations"))
    metrics["plan.calls"] = calls(
        *(t for t in METRIC_OF if t.startswith("QueryEngine.")))
    hits, misses = statz.get("plan_hits"), statz.get("plan_misses")
    metrics["plan.cache_hit_ratio"] = _ratio(
        hits, None if hits is None or misses is None else hits + misses)
    hits, misses = statz.get("tier_hits"), statz.get("tier_misses")
    metrics["warehouse.materialize.hit_ratio"] = _ratio(
        hits, None if hits is None or misses is None else hits + misses)
    metrics["warehouse.materialize.views"] = views
    backend = ("InMemoryBackend.materialize", "InMemoryBackend.execute")
    rows_scanned = count("rows_scanned", *backend)
    metrics["relational.rows_scanned"] = (
        None if rows_scanned is None else rows_scanned / n)
    skipped = count("chunks_skipped", *backend)
    metrics["relational.chunks_skipped_ratio"] = _ratio(
        skipped, None if skipped is None
        else skipped + recorder.counts["chunks_scanned"])
    bucketed = count("values_bucketed", "bucket_series")
    metrics["core.bucketing.values_bucketed"] = (
        None if bucketed is None else bucketed / n)
    metrics["core.annealing.calls"] = calls("anneal_splits")

    accounted = sum(v for m, v in metrics.items()
                    if v is not None and PER_LAYER_UNITS[m] == "ms")
    metrics["unattributed_ms"] = mean_latency - accounted
    metrics["unattributed_share"] = metrics["unattributed_ms"] / mean_latency
    metrics["trace_overhead_ratio"] = (
        percentile(latencies, 50) / untraced_p50_ms)
    return {name: metrics[name] for name in PER_LAYER_UNITS}
