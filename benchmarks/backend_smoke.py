"""Explore-phase smoke run for one execution backend.

Builds a small AdventureWorks warehouse, runs one explore-phase query
end to end (differentiate + facet build), and dumps the per-operator
execution counters and plan-cache statistics as JSON.  CI runs this once
per backend and uploads the dump as an artifact, so a perf or plan-shape
regression shows up as a diff in operator calls/rows rather than only as
a wall-clock change.

Usage::

    PYTHONPATH=src python benchmarks/backend_smoke.py \
        --backend sqlite --facts 8000 --out counters-sqlite.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core import KdapSession
from repro.datasets import build_aw_online
from repro.plan import BACKENDS, cache_stats

QUERY = "California Mountain Bikes"


def run(backend: str, facts: int, seed: int = 42) -> dict:
    schema = build_aw_online(num_facts=facts, seed=seed)
    session = KdapSession(schema, backend=backend)
    try:
        started = time.perf_counter()
        ranked = session.differentiate(QUERY, limit=1)
        if not ranked:
            raise SystemExit(f"no interpretation for {QUERY!r}")
        net = ranked[0].star_net
        first = session.explore(net)
        second = session.explore(net)  # warm plan-cache pass
        elapsed = time.perf_counter() - started

        stats = cache_stats(session.metrics.snapshot()["counters"])
        return {
            "backend": session.engine.backend_name,
            "query": QUERY,
            "facts": facts,
            "seed": seed,
            "elapsed_seconds": round(elapsed, 3),
            "fact_rows": len(first.subspace),
            "total_aggregate": first.total_aggregate,
            "facets": len(first.interface.facets),
            "results_identical":
                first.total_aggregate == second.total_aggregate,
            "plan_cache": {**stats,
                           "hit_rate": round(stats["hit_rate"], 4)},
            "operators": session.engine.counters.as_dict(),
        }
    finally:
        session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=sorted(BACKENDS),
                        default="memory")
    parser.add_argument("--facts", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="write the JSON dump here "
                                      "(default: stdout)")
    args = parser.parse_args(argv)

    report = run(args.backend, args.facts, args.seed)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)

    if not report["results_identical"]:
        print("explore results changed between cold and warm passes",
              file=sys.stderr)
        return 1
    if report["plan_cache"]["hits"] == 0:
        print("plan cache recorded no hits on repeated exploration",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
