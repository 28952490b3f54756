"""ASCII renderers for the experiment harness.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.facets import FacetedInterface
from ..core.interpret import ScoredInterpretation


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A minimal fixed-width table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] \
        if rows else [[str(h)] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = " | ".join(h.ljust(w) for h, w in zip(map(str, headers),
                                                        widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_star_nets(ranked: Sequence[ScoredInterpretation],
                     limit: int = 5) -> str:
    """Table 1 style: hit groups per star net plus the ranking score."""
    rows = []
    for scored in ranked[:limit]:
        groups = "  &  ".join(str(g) for g in scored.star_net.hit_groups)
        if not groups:
            # metadata/pattern-only interpretation: no hit groups to show
            groups = scored.interpretation.describe()
        rows.append((groups, f"{scored.score:.6f}"))
    return render_table(("star net (hit groups)", "score"), rows)


def render_facets(interface: FacetedInterface,
                  dimensions: Sequence[str] | None = None,
                  max_instances: int = 6) -> str:
    """Table 2 style: selected attributes and instances per dimension."""
    lines = []
    for facet in interface.facets:
        if dimensions is not None and facet.dimension not in dimensions:
            continue
        lines.append(f"{facet.dimension} Dimension")
        for attr in facet.attributes:
            marker = " (promoted)" if attr.promoted else ""
            lines.append(f"  {attr.attribute.ref}{marker}")
            for entry in attr.entries[:max_instances]:
                lines.append(
                    f"    {entry.label:<32s} agg={entry.aggregate:>14.2f} "
                    f"score={entry.score:+.4f}"
                )
    return "\n".join(lines)


def render_series(x_values: Sequence[object],
                  series: Mapping[str, Sequence[float]],
                  x_label: str = "x") -> str:
    """Figure-style output: one row per x value, one column per series."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append((x, *(f"{values[i]:.3f}" for values in series.values())))
    return render_table(headers, rows)


def render_counters(engine, metrics=None) -> str:
    """Render a query engine's per-operator counters and cache stats.

    ``engine`` is a :class:`~repro.plan.engine.QueryEngine` (anything with
    ``backend_name``, ``counters`` and ``cache_stats`` duck-types).
    ``metrics`` is an optional session metrics registry whose
    ``kdap.match.*`` counters become a per-matcher ``match:`` line.
    """
    stats = engine.cache_stats
    lines = [
        f"backend: {engine.backend_name}",
        f"plan cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.1%} hit rate), {stats.evictions} evictions",
    ]
    if metrics is not None:
        counters = metrics.snapshot().get("counters", {})
        prefix = "kdap.match."
        matched = {name[len(prefix):]: count
                   for name, count in sorted(counters.items())
                   if name.startswith(prefix)}
        if matched:
            lines.append("match: " + ", ".join(
                f"{name}={count}" for name, count in matched.items()))
    tier = getattr(engine, "tier", None)
    if tier is not None:
        snap = tier.snapshot()
        lines.append(
            f"materialize: {snap['views']} views, {snap['hits']} hits "
            f"({snap['rollup_hits']} roll-ups) / {snap['misses']} misses"
            f" ({snap['hit_rate']:.1%} hit rate), "
            f"{snap['refreshes']} refreshes "
            f"({snap['refreshed_rows']} delta rows), "
            f"{snap['rebuilds']} rebuilds"
        )
    fusion = getattr(engine, "fusion", None)
    if fusion is not None and fusion.fused_queries:
        lines.append(
            f"fusion: {fusion.attributes_fused} group-bys in "
            f"{fusion.fused_queries} fused queries "
            f"({fusion.scans_saved} scans saved)"
        )
    resilience = getattr(engine.backend, "resilience", None)
    if resilience is not None:
        lines.append(
            f"resilience: {resilience.retries} retries, "
            f"{resilience.failovers} failovers, "
            f"{resilience.transient_errors} transient errors"
        )
    ops = engine.counters.as_dict()
    if ops:
        rows = [
            (op, s["calls"], s["rows"], s.get("batches", 0),
             s.get("rows_per_batch", 0), s.get("chunks_scanned", 0),
             s.get("chunks_skipped", 0), f"{s['seconds']:.4f}")
            for op, s in ops.items()
        ]
        lines.append(render_table(
            ["operator", "calls", "rows", "batches", "rows/batch",
             "chunks", "skipped", "seconds"], rows))
    return "\n".join(lines)
