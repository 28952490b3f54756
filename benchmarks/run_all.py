"""One-shot benchmark suite with a committed JSON baseline.

Runs the paper-artifact workloads (Table 1, Table 2, Figures 4-7) plus
the engine primitives as plain wall-clock benchmarks — no pytest — and
writes per-benchmark medians to ``BENCH_kdap.json``.  The committed
baseline lets any later change diff its numbers against this PR's.

The run doubles as three acceptance gates, rows of :data:`GATES` that
one loop records, prints and fails the same way; any failing gate exits
non-zero so CI catches a regression as a hard failure, not a silent
slowdown:

* **materialize** — the sub-cube tier (:mod:`bench_materialize`) must
  answer the categorical partition workload at least 2x faster than
  direct scanning on a million fact rows (with real view hits,
  including a lattice roll-up), and append maintenance must fold
  exactly the delta — no full rebuilds.  Always at full scale, even
  under ``--smoke``;
* **service concurrency** — a live HTTP server under steady load,
  overload, and chaos (:mod:`bench_service_concurrency`): steady-state
  shed rate and p95 bounded, overload answered with 429s (never 5xx or
  hangs), injected faults absorbed by retry/failover;
* **telemetry overhead** — the always-on telemetry stack (event log,
  tail sampler, SLO tracker) against an identical
  ``telemetry=False`` deployment (:mod:`bench_telemetry_overhead`):
  paired floor-latency p95 within 5%, every errored request's trace
  persisted, healthy traffic held to the head-sampling cadence, and
  every persisted trace file complete JSON.

Every timed entry also reports ``p50_s`` / ``p95_s`` computed through
the observability histogram (:func:`repro.obs.metrics.runs_summary`),
so the committed baseline carries tail latency, not just medians.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --smoke --out BENCH_kdap.json
    PYTHONPATH=src python benchmarks/run_all.py --repeats 5   # full scale
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

from repro.core import ExploreConfig, KdapSession, build_facets
from repro.datasets import (
    AW_ONLINE_QUERIES,
    build_aw_online,
    build_aw_reseller,
    build_scale,
)
from repro.evalkit import (
    evaluate_annealing,
    evaluate_buckets_online,
    evaluate_buckets_reseller,
    evaluate_ranking,
)
from repro.obs.metrics import runs_summary
from repro.plan import QueryEngine

import bench_materialize
import bench_service_concurrency
import bench_telemetry_overhead

QUERY = "California Mountain Bikes"

FACET_CONFIG = ExploreConfig(top_k_attributes=4, top_k_instances=4,
                             display_intervals=3)


def _materialize(suite) -> tuple[dict, dict]:
    # builds its own million-row warehouse: the append scenario mutates it
    schema = build_scale(num_facts=1_000_000, seed=7)
    return bench_materialize.compare(schema, max(suite.repeats, 3))


def _service(suite) -> tuple[dict, dict]:
    benchmarks, check = bench_service_concurrency.compare(suite.online)
    # the full statz/metricz snapshots are CI artifacts (the standalone
    # runner's --statz-out / --metricz-out), not baseline material
    check.pop("statz", None)
    check.pop("metricz", None)
    return benchmarks, check


def _telemetry(suite) -> tuple[dict, dict]:
    return bench_telemetry_overhead.compare(suite.online)


#: (report key, run(suite) -> (benchmarks, check), passes(check), what
#: the gate demands — printed with its verdict)
GATES = (
    ("materialize_check", _materialize, bench_materialize.passes,
     f"the sub-cube tier answers >= {bench_materialize.MIN_SPEEDUP:.1f}x "
     "faster than direct scans at 1M rows, serves (roll-up) hits, and "
     "append maintenance folds exactly the delta"),
    ("service_check", _service, bench_service_concurrency.passes,
     "steady load sheds <= "
     f"{bench_service_concurrency.MAX_STEADY_SHED_RATE:.0%} at p95 <= "
     f"{bench_service_concurrency.MAX_STEADY_P95_S:g} s with no 5xx, "
     "overload answers 429s (never 5xx or hangs), chaos faults are "
     "absorbed by retry/failover"),
    ("telemetry_check", _telemetry, bench_telemetry_overhead.passes,
     "always-on telemetry within "
     f"{bench_telemetry_overhead.MAX_OVERHEAD * 100:.0f}% at the floor "
     "p95, every errored trace persisted, healthy traffic held to the "
     "head cadence, every trace file complete JSON"),
)

#: scalar fields shown on a gate entry's console line, when present
_SHOWN = ("median_s", "min_s", "p95_s", "requests", "throughput_rps",
          "shed", "errors_5xx")


def _timed(fn, repeats: int) -> dict:
    """Median wall-clock of ``fn`` over ``repeats`` runs (all recorded)."""
    runs = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - started)
    return {
        "median_s": round(statistics.median(runs), 6),
        "runs_s": [round(r, 6) for r in runs],
        **runs_summary(runs),
        "result": result,
    }


class Suite:
    def __init__(self, smoke: bool, repeats: int):
        self.smoke = smoke
        self.repeats = repeats
        self.benchmarks: dict[str, dict] = {}
        self.checks: dict[str, dict] = {}
        if smoke:
            self.online = build_aw_online(num_customers=300,
                                          num_facts=8000, seed=42)
            self.reseller = build_aw_reseller(num_resellers=120,
                                              num_employees=40,
                                              num_facts=8000, seed=43)
        else:
            self.online = build_aw_online()
            self.reseller = build_aw_reseller()
        self.session = KdapSession(self.online)
        self.reseller_session = KdapSession(self.reseller)

    def record(self, name: str, fn, repeats: int | None = None,
               meta: dict | None = None):
        timing = _timed(fn, repeats or self.repeats)
        result = timing.pop("result")
        if meta:
            timing["meta"] = meta
        self.benchmarks[name] = timing
        print(f"  {name}: {timing['median_s']:.4f} s "
              f"(median of {len(timing['runs_s'])})")
        return result

    # ------------------------------------------------------------------
    # paper artifacts
    # ------------------------------------------------------------------
    def bench_table1(self):
        ranked = self.record(
            "table1_differentiate",
            lambda: self.session.differentiate(QUERY, limit=10))
        assert ranked, "table1 query must have interpretations"
        self.net = ranked[0].star_net

    def bench_table2(self):
        """The facet workload per backend.  Every timed run starts from a
        cold plan cache so it measures execution, not memoisation; one
        untimed warm-up primes shared schema vectors / the sqlite
        mirror."""
        for backend in ("memory", "sqlite"):
            engine = QueryEngine(self.online, backend=backend)

            def run():
                engine.cache.clear()
                return build_facets(self.online, self.net,
                                    config=FACET_CONFIG, engine=engine)

            run()
            self.record(f"table2_facets_{backend}", run,
                        repeats=max(self.repeats, 7),
                        meta={"backend": backend})
            engine.close()

    def bench_figures(self):
        queries = AW_ONLINE_QUERIES[:8] if self.smoke else AW_ONLINE_QUERIES
        self.record(
            "figure4_ranking",
            lambda: evaluate_ranking(self.session, queries),
            repeats=1, meta={"queries": len(queries)})
        buckets = [5, 10, 20] if self.smoke else [5, 20, 40, 80]
        self.record(
            "figure5_buckets_online",
            lambda: evaluate_buckets_online(self.online,
                                            bucket_counts=buckets),
            repeats=1, meta={"bucket_counts": buckets})
        self.record(
            "figure6_buckets_reseller",
            lambda: evaluate_buckets_reseller(self.reseller,
                                              bucket_counts=buckets),
            repeats=1, meta={"bucket_counts": buckets})
        iterations = 100 if self.smoke else 500
        self.record(
            "figure7_annealing",
            lambda: evaluate_annealing(self.session, "France Clothing",
                                       "DimCustomer", "YearlyIncome",
                                       iterations=iterations),
            repeats=1, meta={"iterations": iterations})

    # ------------------------------------------------------------------
    # acceptance gates
    # ------------------------------------------------------------------
    def run_gates(self):
        for name, run, passes, _ in GATES:
            benchmarks, check = run(self)
            self.benchmarks.update(benchmarks)
            for entry_name in sorted(benchmarks):
                entry = benchmarks[entry_name]
                shown = ", ".join(f"{key} {entry[key]:g}"
                                  for key in _SHOWN if key in entry)
                print(f"  {entry_name}: {shown}")
            self.checks[name] = {**check, "pass": passes(check)}

    # ------------------------------------------------------------------
    # engine primitives
    # ------------------------------------------------------------------
    def bench_primitives(self):
        """Engine primitives; every timed run starts from a cold plan
        cache, as in :meth:`bench_table2`."""
        session = self.session
        schema = self.online
        engine = QueryEngine(schema)

        def cold(fn):
            def run():
                engine.cache.clear()
                return fn()
            return run

        self.record("primitive_text_probe",
                    lambda: session.index.search("California", 30))
        self.record("primitive_star_join",
                    cold(lambda: engine.evaluate(self.net)))
        subspace = engine.evaluate(self.net)
        gb = schema.groupby_attribute("DimDate", "MonthName")
        gbs = [schema.groupby_attribute("DimDate", "MonthName"),
               schema.groupby_attribute("DimGeography", "CountryRegionName"),
               schema.groupby_attribute("DimProduct", "Color")]
        schema.groupby_vector(gb)
        self.record(
            "primitive_partition_aggregation",
            cold(lambda: subspace.partition_aggregates(gb, "revenue")))
        self.record(
            "primitive_multi_partition_aggregation",
            cold(lambda: subspace.multi_partition_aggregates(gbs,
                                                             "revenue")),
            meta={"group_bys": len(gbs)})
        engine.close()

    def close(self):
        self.session.close()
        self.reseller_session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced dataset sizes and workloads (CI)")
    parser.add_argument("--out", default="BENCH_kdap.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per benchmark "
                             "(default: 3 smoke, 5 full)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 5)

    print(f"kdap benchmark suite ({'smoke' if args.smoke else 'full'} "
          f"scale, {repeats} repeats)")
    suite = Suite(args.smoke, repeats)
    try:
        suite.bench_table1()
        suite.bench_table2()
        suite.run_gates()
        suite.bench_figures()
        suite.bench_primitives()
    finally:
        suite.close()

    report = {
        "suite": "kdap",
        "smoke": args.smoke,
        "repeats": repeats,
        "python": platform.python_version(),
        "benchmarks": suite.benchmarks,
        **suite.checks,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    failed = 0
    for name, _, _, demand in GATES:
        check = suite.checks[name]
        print(f"{name}: {'pass' if check['pass'] else 'FAILED'} ({demand})")
        if not check["pass"]:
            failed += 1
            print(f"{name.upper()} FAILED: "
                  f"{json.dumps(check, sort_keys=True)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
