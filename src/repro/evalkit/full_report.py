"""One-shot regeneration of every paper artifact into a markdown report.

``generate_report`` runs the full experiment matrix — Tables 1/2,
Figure 4 on both warehouses, Figures 5/6/7 — and renders a single
markdown document, so a fresh clone can produce its own EXPERIMENTS-style
record with one call (or ``python -m repro.evalkit.full_report``).
"""

from __future__ import annotations

import time

from ..core.facets import ExploreConfig, build_facets
from ..core.session import KdapSession
from ..datasets import AW_ONLINE_QUERIES, AW_RESELLER_QUERIES
from ..warehouse.schema import StarSchema
from .annealing_eval import evaluate_annealing
from .bucket_eval import (
    DEFAULT_BUCKET_COUNTS,
    evaluate_buckets_online,
    evaluate_buckets_reseller,
)
from .ranking_eval import ALL_METHODS, evaluate_ranking
from .report import render_facets, render_series, render_star_nets


def _md_block(text: str) -> str:
    return "```\n" + text + "\n```\n"


def generate_report(
    online: StarSchema,
    reseller: StarSchema,
    bucket_counts=DEFAULT_BUCKET_COUNTS,
    annealing_iterations: int = 500,
) -> str:
    """Run every experiment and return the full markdown report."""
    started = time.time()
    online_session = KdapSession(online)
    reseller_session = KdapSession(reseller)
    parts: list[str] = ["# KDAP reproduction — regenerated experiment report\n"]
    parts.append(
        f"AW_ONLINE: {online.num_fact_rows} facts; "
        f"AW_RESELLER: {reseller.num_fact_rows} facts.\n"
    )

    # Table 1 -----------------------------------------------------------
    ranked = online_session.differentiate("California Mountain Bikes",
                                          limit=5)
    parts.append("## Table 1 — star nets for 'California Mountain Bikes'\n")
    parts.append(_md_block(render_star_nets(ranked, limit=3)))

    # Table 2 -----------------------------------------------------------
    interface = build_facets(
        online, ranked[0].star_net,
        config=ExploreConfig(top_k_attributes=4, display_intervals=3),
        engine=online_session.engine,
    )
    parts.append("## Table 2 — Product-dimension facet\n")
    parts.append(_md_block(render_facets(interface,
                                         dimensions=["Product"])))

    # Figure 4 ----------------------------------------------------------
    for title, session, queries in (
        ("AW_ONLINE, 50 queries", online_session, AW_ONLINE_QUERIES),
        ("AW_RESELLER replication", reseller_session, AW_RESELLER_QUERIES),
    ):
        evaluation = evaluate_ranking(session, queries)
        ranks = list(range(1, 11))
        series = {m.value: evaluation.curve(m, 10) for m in ALL_METHODS}
        parts.append(f"## Figure 4 — ranking methods ({title})\n")
        parts.append(_md_block(render_series(ranks, series,
                                             x_label="top-x")))

    # Figures 5 & 6 ------------------------------------------------------
    for title, evaluation in (
        ("Figure 5 — bucket convergence (AW_ONLINE)",
         evaluate_buckets_online(online, bucket_counts)),
        ("Figure 6 — bucket convergence (AW_RESELLER)",
         evaluate_buckets_reseller(reseller, bucket_counts)),
    ):
        counts = list(bucket_counts)
        series = {line.label: [line.errors[b] for b in counts]
                  for line in evaluation.lines}
        parts.append(f"## {title}\n")
        parts.append(_md_block(render_series(counts, series,
                                             x_label="buckets")))

    # Figure 7 -----------------------------------------------------------
    scenarios = [
        (online_session, "France Clothing", "DimCustomer", "YearlyIncome"),
        (online_session, "France Accessories", "DimCustomer",
         "YearlyIncome"),
        (reseller_session, "British Columbia", "DimReseller",
         "NumberOfEmployees"),
    ]
    checkpoints = [1, 10, 50, 100, 200, annealing_iterations]
    for session, query, table, column in scenarios:
        scenario = evaluate_annealing(session, query, table, column,
                                      iterations=annealing_iterations)
        series = {c.label: [c.error_at(i) for i in checkpoints]
                  for c in scenario.curves}
        parts.append(
            f"## Figure 7 — annealing ({query!r}, {scenario.attribute})\n")
        parts.append(_md_block(render_series(checkpoints, series,
                                             x_label="iteration")))

    parts.append(f"\n_Generated in {time.time() - started:.1f}s._\n")
    return "\n".join(parts)


def main() -> int:  # pragma: no cover - thin CLI shim
    from ..datasets import build_aw_online, build_aw_reseller

    report = generate_report(build_aw_online(), build_aw_reseller())
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
