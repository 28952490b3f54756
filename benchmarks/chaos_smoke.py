"""Chaos-mode smoke run: every injected fault must end cleanly.

Builds a small AdventureWorks warehouse, wraps the sqlite backend in a
seeded :class:`FaultInjectingBackend` (configurable error rate) behind
the :class:`ResilientBackend` retry/failover ladder, and runs the
benchmark keyword workload end to end under per-query budgets.  The run
*proves* the resilience contract: every query must end in a success, a
retried success, a failover success, or a clean partial result with
populated diagnostics — never a hang or an unhandled exception.

A final deadline probe runs the largest benchmark query under a 50 ms
deadline and asserts the partial result lands within 250 ms.

CI runs this once per seed and uploads the JSON counter dump — plus a
Chrome ``trace_event`` timeline of the whole run (retry attempts and
failovers show up as error-tagged spans) — as artifacts::

    PYTHONPATH=src python benchmarks/chaos_smoke.py \
        --seeds 1,2,3 --error-rate 0.3 --out chaos.json \
        --trace-out chaos_trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core import KdapSession
from repro.datasets import AW_ONLINE_QUERIES, build_aw_online
from repro.obs import Tracer, tracing_scope
from repro.plan import InMemoryBackend, SqliteBackend, cache_stats
from repro.resilience import (
    Budget,
    FaultInjectingBackend,
    ResilientBackend,
    RetryPolicy,
    budget_scope,
    resilience_stats,
)

#: Broadest query of the benchmark workload (largest subspace): the
#: deadline probe has to cut real work short, not finish early.
LARGEST_QUERY = "Bikes"

OUTCOMES = ("success", "retried_success", "failover_success", "partial")


def classify(result, resilience: dict, retries_before: int,
             failovers_before: int) -> str:
    """Which clean ending a query reached (``resilience`` holds the
    session's counts after it)."""
    if result is not None and result.is_partial:
        return "partial"
    if resilience["failovers"] > failovers_before:
        return "failover_success"
    if resilience["retries"] > retries_before:
        return "retried_success"
    return "success"


def run_seed(schema, queries, seed: int, error_rate: float,
             deadline_ms: float) -> dict:
    """One chaos pass: the whole workload against a faulty backend."""
    faulty = FaultInjectingBackend(SqliteBackend(schema),
                                   error_rate=error_rate, seed=seed)
    backend = ResilientBackend(
        faulty,
        fallback=lambda: InMemoryBackend(schema),
        policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
    )
    outcomes = {name: 0 for name in OUTCOMES}
    failures: list[dict] = []
    with KdapSession(schema, backend=backend) as session:
        def resilience() -> dict:
            return resilience_stats(session.metrics.snapshot()["counters"],
                                    backend.last_error)

        for query in queries:
            budget = Budget(deadline_ms=deadline_ms)
            before = resilience()
            try:
                with budget_scope(budget):
                    ranked = session.differentiate(query.text, limit=1)
                    result = (session.explore(ranked[0].star_net)
                              if ranked else None)
                if result is not None and result.is_partial:
                    if not result.diagnostics.truncations:
                        raise AssertionError(
                            "partial result without diagnostics")
                outcomes[classify(result, resilience(), before["retries"],
                                  before["failovers"])] += 1
            except Exception as exc:  # noqa: BLE001 — the contract under test
                failures.append({"query": query.text,
                                 "error": f"{type(exc).__name__}: {exc}"})
        cache = cache_stats(session.metrics.snapshot()["counters"])
        report = {
            "seed": seed,
            "error_rate": error_rate,
            "queries": len(queries),
            "outcomes": outcomes,
            "unhandled": failures,
            "faults_injected": faulty.faults_injected,
            "resilience": resilience(),
            "plan_cache": {"hits": cache["hits"],
                           "misses": cache["misses"]},
        }
    return report


def deadline_probe(schema, deadline_ms: float = 50.0,
                   wall_limit_ms: float = 250.0) -> dict:
    """The largest benchmark query under a hard deadline must come back
    as a (partial or complete) result well within the wall limit."""
    with KdapSession(schema) as session:
        ranked = session.differentiate(LARGEST_QUERY, limit=1)
        if not ranked:
            raise SystemExit(f"no interpretation for {LARGEST_QUERY!r}")
        started = time.perf_counter()
        result = session.explore(ranked[0].star_net,
                                 budget=Budget(deadline_ms=deadline_ms))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "query": LARGEST_QUERY,
        "deadline_ms": deadline_ms,
        "elapsed_ms": round(elapsed_ms, 2),
        "wall_limit_ms": wall_limit_ms,
        "partial": result.is_partial,
        "truncations": [str(t) for t in
                        (result.diagnostics.truncations
                         if result.diagnostics else ())],
        "within_limit": elapsed_ms < wall_limit_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated fault-schedule seeds")
    parser.add_argument("--error-rate", type=float, default=0.3)
    parser.add_argument("--facts", type=int, default=8000)
    parser.add_argument("--queries", type=int, default=12,
                        help="workload size (first N benchmark queries)")
    parser.add_argument("--deadline-ms", type=float, default=2000.0,
                        help="per-query budget during the chaos pass")
    parser.add_argument("--out", help="write the JSON dump here "
                                      "(default: stdout)")
    parser.add_argument("--trace-out",
                        help="write a Chrome trace_event timeline of "
                             "the chaos passes here (chrome://tracing)")
    args = parser.parse_args(argv)

    schema = build_aw_online(num_facts=args.facts, seed=42)
    queries = AW_ONLINE_QUERIES[:args.queries]
    seeds = [int(s) for s in args.seeds.split(",") if s]

    tracer = Tracer() if args.trace_out else None
    with tracing_scope(tracer):
        runs = [run_seed(schema, queries, seed, args.error_rate,
                         args.deadline_ms)
                for seed in seeds]
        probe = deadline_probe(schema)
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_chrome_trace(), handle)
            handle.write("\n")
        print(f"wrote {args.trace_out} "
              f"({sum(1 for _ in tracer.spans())} spans)")
    report = {"runs": runs, "deadline_probe": probe}

    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)

    failed = False
    for run in runs:
        if run["unhandled"]:
            print(f"seed {run['seed']}: unhandled exceptions: "
                  f"{run['unhandled']}", file=sys.stderr)
            failed = True
        ended = sum(run["outcomes"].values())
        if ended != run["queries"]:
            print(f"seed {run['seed']}: {run['queries'] - ended} queries "
                  "did not end in a clean outcome", file=sys.stderr)
            failed = True
    if not probe["within_limit"]:
        print(f"deadline probe took {probe['elapsed_ms']} ms "
              f"(limit {probe['wall_limit_ms']} ms)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
