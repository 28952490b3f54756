"""EXPLAIN ANALYZE: logical plans annotated with actual execution stats.

:func:`profile_plan` joins a plan tree against the per-operator spans a
traced execution produced (each backend tags operator spans with the
node's :func:`~repro.obs.tracer.plan_digest`), yielding an
:class:`ExplainNode` tree where every node carries its actual calls,
rows, batches, and inclusive seconds — the paper-reproduction analogue
of a SQL engine's ``EXPLAIN ANALYZE``.

The module is deliberately duck-typed over plan nodes (``kind``,
``child``, ``groupings`` ...) so the observability layer stays below the plan
layer in the import graph: ``repro.plan`` imports ``repro.obs``, never
the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tracer import Tracer, grouping_label, plan_digest


@dataclass
class OpProfile:
    """Actuals accumulated for one plan node across a trace."""

    calls: int = 0
    rows: int = 0
    batches: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    materialized: int = 0
    pushed_to_sql: bool = False
    chunks_scanned: int = 0
    chunks_skipped: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "rows": self.rows,
            "batches": self.batches, "seconds": round(self.seconds, 6),
            "cache_hits": self.cache_hits,
            "materialized": self.materialized,
            "pushed_to_sql": self.pushed_to_sql,
            "chunks_scanned": self.chunks_scanned,
            "chunks_skipped": self.chunks_skipped,
        }


@dataclass
class ExplainNode:
    """One plan node with its label, digest, actuals, and children."""

    kind: str
    detail: str
    fp: str
    profile: OpProfile
    children: list["ExplainNode"] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "detail": self.detail, "fp": self.fp,
            **self.profile.as_dict(),
            "children": [child.as_dict() for child in self.children],
        }


def _describe(node) -> str:
    """A one-line human label for a plan node (duck-typed)."""
    kind = node.kind
    if kind == "Scan":
        return node.table
    if kind == "RowSet":
        return f"{len(node.rows)} pinned rows of {node.table}"
    if kind == "Filter":
        if node.predicate is not None:
            return str(node.predicate)
        return f"{node.attr} IN [{len(node.values)} values]"
    if kind == "MultiGroupAggregate":
        groupings = ", ".join(grouping_label(g) for g in node.groupings)
        return f"{node.aggregate}({node.measure_sql}) by [{groupings}]"
    return repr(node)


def _children(node):
    child = getattr(node, "child", None)
    return [child] if child is not None else []


def _profile(spans) -> OpProfile:
    """Actuals for one plan node from the spans attributed to it.

    ``op.*`` spans (backends) contribute calls/rows/batches/seconds;
    ``plan.materialize`` / ``plan.execute`` spans tagged ``cached=True``
    (the engine's cache-hit markers) contribute cache hits; spans tagged
    ``materialized=True`` mark aggregates the materialization tier
    answered from mergeable states without a scan; spans tagged
    ``pushed_to_sql`` mark nodes the sqlite backend compiled away into
    one statement rather than executing individually.
    """
    profile = OpProfile()
    for span in spans:
        if span.name.startswith("op."):
            profile.calls += 1
            if span.tags.get("pushed_to_sql"):
                profile.pushed_to_sql = True
                continue
            profile.rows += int(span.tags.get("rows", 0) or 0)
            profile.batches += int(span.tags.get("batches", 0) or 0)
            profile.chunks_scanned += int(
                span.tags.get("chunks_scanned", 0) or 0)
            profile.chunks_skipped += int(
                span.tags.get("chunks_skipped", 0) or 0)
            profile.seconds += span.duration_s
        elif span.tags.get("cached"):
            profile.cache_hits += 1
        elif span.tags.get("materialized"):
            profile.materialized += 1
    return profile


def profile_plan(plan, tracer: Tracer) -> ExplainNode:
    """The plan tree annotated with the actuals recorded in ``tracer``.

    The root takes every span tagged with its digest.  A child takes
    only the ``op.*`` spans that ran nested inside one of its parent's:
    sibling plans share leaves (every aggregate over DS′ reads the same
    ``RowSet``, every star net the same ``Scan``), so a digest alone
    would credit a leaf with its siblings' runs.
    """
    by_digest: dict[str, list] = {}
    for span in tracer.spans():
        fp = span.tags.get("fp")
        if fp is not None:
            by_digest.setdefault(fp, []).append(span)

    def build(node, parent_ops) -> ExplainNode:
        fp = plan_digest(node)
        spans = by_digest.get(fp, [])
        if parent_ops is not None:
            spans = [span for span in spans
                     if span.name.startswith("op.")
                     and span.parent in parent_ops]
        ops = {span for span in spans if span.name.startswith("op.")}
        return ExplainNode(
            kind=node.kind, detail=_describe(node), fp=fp,
            profile=_profile(spans),
            children=[build(child, ops) for child in _children(node)],
        )

    return build(plan, None)


def render_plan(root: ExplainNode) -> str:
    """ASCII tree: one node per line with its actuals.

    Nodes the sqlite backend folded into a single SQL statement render
    with their call count and a ``[in SQL]`` marker (their time is the
    statement's, attributed to the plan root).
    """
    lines: list[str] = []

    def emit(node: ExplainNode, prefix: str, is_last: bool,
             is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        stats = node.profile
        if stats.pushed_to_sql:
            actual = f"(calls={stats.calls} [in SQL])"
        elif stats.calls or stats.cache_hits or stats.materialized:
            actual = (f"(calls={stats.calls} rows={stats.rows} "
                      f"batches={stats.batches} "
                      f"seconds={stats.seconds:.6f}")
            if stats.chunks_scanned or stats.chunks_skipped:
                actual += (f" chunks={stats.chunks_scanned}"
                           f"(+{stats.chunks_skipped} skipped)")
            if stats.cache_hits:
                actual += f" cache_hits={stats.cache_hits}"
            if stats.materialized:
                actual += f" materialized={stats.materialized}"
            actual += ")"
        else:
            actual = "(never executed)"
        lines.append(f"{prefix}{connector}{node.kind} {node.detail}  "
                     f"{actual}")
        child_prefix = prefix + ("" if is_root
                                 else ("   " if is_last else "│  "))
        for index, child in enumerate(node.children):
            emit(child, child_prefix, index == len(node.children) - 1,
                 False)

    emit(root, "", True, True)
    return "\n".join(lines)


def render_span_tree(tree: list[dict], max_children: int = 10,
                     min_ms: float = 0.0) -> str:
    """Indented phase breakdown of a span tree (``Tracer.to_tree()``).

    Each line shows the span name, inclusive milliseconds, and a compact
    tag suffix; sibling lists longer than ``max_children`` are elided
    with a count so operator-heavy traces stay readable.
    """
    lines: list[str] = []

    def emit(span: dict, depth: int) -> None:
        ms = span.get("seconds", 0.0) * 1000.0
        if depth and ms < min_ms:
            return
        tags = span.get("tags", {})
        shown = {k: v for k, v in tags.items()
                 if k not in ("fp",) and v is not None}
        suffix = ""
        if shown:
            suffix = "  [" + " ".join(f"{k}={v}" for k, v
                                      in sorted(shown.items())) + "]"
        lines.append(f"{'  ' * depth}{span['name']}  "
                     f"{ms:.2f} ms{suffix}")
        children = span.get("children", [])
        for child in children[:max_children]:
            emit(child, depth + 1)
        if len(children) > max_children:
            lines.append(f"{'  ' * (depth + 1)}"
                         f"... (+{len(children) - max_children} more "
                         "spans)")

    for root in tree:
        emit(root, 0)
    return "\n".join(lines)


@dataclass
class ExplainResult:
    """Everything ``KdapSession.explain`` / ``repro explain`` reports."""

    query: str
    interpretation: str
    backend: str
    elapsed_s: float
    plan: ExplainNode
    """The star net's materialisation plan, annotated with actuals."""
    total_plan: ExplainNode | None
    """The whole-subspace total aggregate plan (None when skipped)."""
    tracer: Tracer
    """The full trace of the explained execution (phases + operators)."""
    match: dict | None = None
    """Matcher-chain breakdown from the interpretation front end: enabled
    matchers, per-matcher candidate/accepted counters, and keywords no
    matcher accepted."""

    def render(self) -> str:
        lines = [
            f"query: {self.query!r}",
            f"interpretation: {self.interpretation}",
            f"backend: {self.backend}, total {self.elapsed_s * 1000:.1f} "
            "ms",
        ]
        if self.match:
            lines += ["", "matcher breakdown:"]
            matchers = self.match.get("matchers", ())
            if matchers:
                lines.append(f"  matchers: {', '.join(matchers)}")
            counters = self.match.get("counters", {})
            for name in sorted(counters):
                lines.append(f"  kdap.match.{name}: {counters[name]}")
            for keyword in self.match.get("unmatched", ()):
                lines.append(f"  unmatched keyword: {keyword!r}")
            for keyword in self.match.get("skipped", ()):
                lines.append(f"  skipped stopword: {keyword!r}")
        lines += [
            "",
            "subspace plan (actual):",
            render_plan(self.plan),
        ]
        if self.total_plan is not None:
            lines += ["", "total-aggregate plan (actual):",
                      render_plan(self.total_plan)]
        lines += ["", "phase breakdown:",
                  render_span_tree(self.tracer.to_tree())]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "interpretation": self.interpretation,
            "backend": self.backend,
            "elapsed_s": round(self.elapsed_s, 6),
            "plan": self.plan.as_dict(),
            "total_plan": (self.total_plan.as_dict()
                           if self.total_plan is not None else None),
            "spans": self.tracer.to_tree(),
            "match": self.match,
        }
