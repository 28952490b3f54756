#!/usr/bin/env python3
"""Finding bellwether regions (OLAP application (b), paper §1/§5).

The bellwether measure ranks group-by attributes whose *local* aggregates
track the roll-up aggregates — "local regions which determine aggregates
for larger and maybe global regions" (Chen et al., VLDB 2006).  This
script contrasts the attribute rankings produced by the bellwether and
surprise measures for the same subspace, and then scans months for the
one whose local sales best predict the category total.

Run:  python examples/bellwether_analysis.py
"""

from repro.core import (
    BELLWETHER,
    KdapSession,
    SURPRISE,
    pearson_correlation,
    rank_groupby_attributes,
    rollup_subspaces,
)
from repro.datasets import build_aw_online
from repro.warehouse import slice_


def main() -> None:
    print("Building AW_ONLINE ...")
    schema = build_aw_online(num_customers=400, num_facts=20000)
    session = KdapSession(schema)

    query = "Mountain Bikes"
    ranked = session.differentiate(query, limit=1)
    net = ranked[0].star_net
    engine = session.engine
    subspace = engine.evaluate(net)
    rollups = rollup_subspaces(schema, net, engine)
    print(f"\nSubspace: {net}  ({len(subspace)} facts)")

    print("\nAttribute ranking, bellwether vs surprise "
          "(Customer dimension):")
    candidates = schema.dimension("Customer").groupbys
    for measure in (BELLWETHER, SURPRISE):
        rows = rank_groupby_attributes(subspace, rollups, candidates,
                                       "revenue", measure, top_k=3)
        print(f"  {measure.name}:")
        for row in rows:
            print(f"    {str(row.attribute.ref):44s} {row.score:+.3f}")

    # Bellwether scan: which month's local Mountain-Bike sales by state
    # best track the whole year's?
    print("\nBellwether scan: month whose per-state sales best predict "
          "the full subspace's per-state sales")
    state_gb = schema.groupby_attribute("DimGeography",
                                        "StateProvinceName")
    month_gb = schema.groupby_attribute("DimDate", "MonthName")
    by_state = subspace.partition_aggregates(state_gb, "revenue")
    states = sorted(by_state)
    global_series = [by_state[s] or 0.0 for s in states]
    scored = []
    for month in sorted(subspace.partition_aggregates(month_gb, "revenue")):
        local = slice_(subspace, month_gb, month)
        local_by_state = local.partition_aggregates(state_gb, "revenue")
        local_series = [local_by_state.get(s) or 0.0 for s in states]
        scored.append((pearson_correlation(local_series, global_series),
                       month, len(local)))
    scored.sort(reverse=True)
    for corr, month, n in scored[:5]:
        print(f"    {month:<10s} corr={corr:+.3f}  ({n} facts)")
    print(f"\n  => {scored[0][1]} is the bellwether month: sampling only "
          "its sales ranks the states almost exactly like the full data.")


if __name__ == "__main__":
    main()
