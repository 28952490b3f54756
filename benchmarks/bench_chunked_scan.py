"""Chunked scan-aggregate vs the pre-chunk strategy.

The microbenchmark behind the columnar-storage acceptance gate.  One
workload — scan a million-row fact table, partition by a run-length-
encoded dimension attribute, fold ``sum(revenue)`` per group — runs two
ways over the same :func:`~repro.datasets.build_scale` warehouse:

* **plain_serial** — a faithful local pin of the pre-chunk vectorized
  strategy (one ``group_rows`` pass over the fact-aligned value vector,
  then a generator fold per group), kept here so the baseline survives
  that code path's evolution;
* **chunked_serial** — the live :class:`InMemoryBackend`: its one
  grouped kernel, encoding-aware aggregate states over dictionary/RLE
  chunks accumulated in a single serial pass.

A second scenario times a **selective date-range scan** on the
``DateKey``-clustered fact table and asserts the zone maps actually
skipped chunks (the storage layer's other acceptance criterion).

All schema-level caches (fact vectors, measure vector, encoded chunks)
are primed by an untimed warm-up shared by every mode, timed runs are
interleaved, and the gate compares *minimum* runs — same protocol as
:mod:`bench_scan_aggregate`.

Usage::

    PYTHONPATH=src python benchmarks/bench_chunked_scan.py [--repeats N]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.datasets import build_scale
from repro.obs.metrics import runs_summary
from repro.plan.backends import InMemoryBackend
from repro.plan.builders import attr_key, partition_plan
from repro.plan.nodes import Filter, Scan
from repro.relational import vector
from repro.relational.expressions import Between, Col

MIN_SPEEDUP = 2.0
"""Acceptance floor: the chunked backend must beat the pre-chunk
plain-vector strategy by at least this factor on the million-row
scan-aggregate workload."""

SKIP_LOW, SKIP_HIGH = 20040301, 20040401
"""One month out of the two-year clustered ``DateKey`` domain: selective
enough that most chunks' zone maps fall wholly outside the range."""


class PlainSerialReference:
    """The pre-chunk ``InMemoryBackend`` partition strategy, pinned.

    One :func:`~repro.relational.vector.group_rows` pass over the
    fact-aligned key vector builds per-value row lists, then a generator
    fold computes each group's sum — exactly the strategy the backend
    used before encoded chunks, deliberately not sharing code with it.
    """

    def __init__(self, schema):
        self.schema = schema

    def execute(self, plan):
        key = plan.child.keys[0]
        values = self.schema.fact_vector(key.path, key.column)
        measure = self.schema.measure_vector("revenue")
        groups = vector.group_rows(values, None)
        return {value: sum(measure[r] for r in rows)
                for value, rows in groups.items()}


def _results_agree(reference: dict, other: dict) -> bool:
    """Same groups, sums equal within float re-association tolerance."""
    if reference.keys() != other.keys():
        return False
    return all(abs(reference[k] - other[k])
               <= 1e-9 * max(1.0, abs(reference[k])) for k in reference)


def build_workload(schema):
    """The shared logical plan: full fact scan, one-key partition,
    sum(revenue).

    The partition key is ``DimDate.MonthName`` resolved through the date
    foreign key: the fact table is clustered on ``DateKey``, so the
    fact-aligned month vector is long runs — RLE chunks whose aggregate
    kernel folds each run with one C-level ``sum``.  This is the storage
    layout the chunk refactor exists for; the dictionary-encoded path is
    exercised by the zone-skip scenario's ``Color`` partition.
    """
    gb = schema.groupby_attribute("DimDate", "MonthName")
    return partition_plan(Scan(schema.fact_table), (attr_key(gb),),
                          schema.measures["revenue"])


def zone_skip_scenario(schema, repeats: int) -> tuple[dict, dict]:
    """Selective ``DateKey`` range scan: timing plus skip counters."""
    gb = schema.groupby_attribute("DimProduct", "Color")
    source = Filter(Scan(schema.fact_table),
                    predicate=Between(Col("DateKey"), SKIP_LOW, SKIP_HIGH))
    plan = partition_plan(source, (attr_key(gb),),
                          schema.measures["revenue"])
    backend = InMemoryBackend(schema)
    result = backend.execute(plan)          # untimed warm-up
    runs = []
    for _ in range(repeats):
        started = time.perf_counter()
        backend.execute(plan)
        runs.append(time.perf_counter() - started)
    stats = backend.counters.as_dict()["Filter"]
    rows_selected = stats["rows"] // stats["calls"]
    benchmark = {
        "median_s": round(statistics.median(runs), 6),
        "min_s": round(min(runs), 6),
        "runs_s": [round(r, 6) for r in runs],
        **runs_summary(runs),
        "meta": {"predicate": f"{SKIP_LOW} <= DateKey < {SKIP_HIGH}",
                 "rows_selected": rows_selected,
                 "groups": len(result)},
    }
    check = {
        "chunks_scanned": stats["chunks_scanned"] // stats["calls"],
        "chunks_skipped": stats["chunks_skipped"] // stats["calls"],
        "rows_selected": rows_selected,
    }
    return benchmark, check


def compare(schema, repeats: int) -> tuple[dict, dict]:
    """Interleaved timings of both strategies on one workload.

    Returns ``(benchmarks, check)``: per-mode timing dicts in the
    ``run_all`` format plus the min-run speedup gate entry (including
    the zone-map skip scenario's counters).
    """
    plan = build_workload(schema)
    executors = {
        "plain_serial": PlainSerialReference(schema),
        "chunked_serial": InMemoryBackend(schema),
    }
    results = {}
    for mode, executor in executors.items():   # untimed warm-up: primes
        results[mode] = executor.execute(plan)  # vectors + chunks
    assert _results_agree(results["plain_serial"],
                          results["chunked_serial"]), \
        "chunked_serial disagrees with the plain reference"
    assert results["plain_serial"], "workload selected no groups"

    runs: dict[str, list[float]] = {mode: [] for mode in executors}
    for _ in range(repeats):
        for mode, executor in executors.items():
            started = time.perf_counter()
            executor.execute(plan)
            runs[mode].append(time.perf_counter() - started)

    fact_rows = schema.num_fact_rows
    benchmarks = {}
    for mode in executors:
        benchmarks[f"chunked_scan_{mode}"] = {
            "median_s": round(statistics.median(runs[mode]), 6),
            "min_s": round(min(runs[mode]), 6),
            "runs_s": [round(r, 6) for r in runs[mode]],
            **runs_summary(runs[mode]),
            "meta": {"mode": mode, "fact_rows": fact_rows,
                     "groups": len(results[mode])},
        }
    zone_bench, zone_check = zone_skip_scenario(schema, repeats)
    benchmarks["chunked_scan_zone_skip"] = zone_bench

    plain_min = min(runs["plain_serial"])
    chunked_min = min(runs["chunked_serial"])
    check = {
        "fact_rows": fact_rows,
        "plain_serial_min_s": round(plain_min, 6),
        "chunked_serial_min_s": round(chunked_min, 6),
        "speedup": round(plain_min / max(chunked_min, 1e-9), 3),
        "required_speedup": MIN_SPEEDUP,
        "zone_skip": zone_check,
    }
    return benchmarks, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--facts", type=int, default=1_000_000,
                        help="fact rows (the gate requires >= 1M)")
    args = parser.parse_args(argv)
    schema = build_scale(num_facts=args.facts, seed=7)
    benchmarks, check = compare(schema, args.repeats)
    for name, entry in benchmarks.items():
        print(f"  {name}: {entry['median_s']:.4f} s "
              f"(min {entry['min_s']:.4f} s)")
    print(f"speedup: {check['speedup']:.2f}x "
          f"(required {check['required_speedup']:.1f}x) | zone skip: "
          f"{check['zone_skip']['chunks_skipped']} of "
          f"{check['zone_skip']['chunks_skipped'] + check['zone_skip']['chunks_scanned']} "
          "chunks")
    ok = (check["speedup"] >= check["required_speedup"]
          and check["zone_skip"]["chunks_skipped"] > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
