"""Staged interpretation pipeline vs the pinned legacy front end.

The keyword front end was refactored from a monolithic
keyword→hit-groups→star-nets path into a staged pipeline
(tokenize → match → enumerate → rank) with a pluggable matcher chain.
The legacy path (:func:`repro.core.generate_candidates` +
:func:`repro.core.rank_candidates`) stays in the tree as the pinned
reference: it still phrase-merges and rescores every combo's hit groups
again, and asks for every seed's join paths again.  The staged
enumeration scores each hit group against the query once per call and
memoises merged seeds and ray paths, so on queries the old front end
could handle at all — every keyword resolving to cell values — the
value-only staged chain (:func:`repro.core.interpret_query` with
``matchers=("value",)``) must cost at most ``MAX_RATIO`` (0.6x) of the
legacy path.

Both sides run the same mixed query list end to end (tokenize through
ranking) against a shared warmed text index.  Timed runs are
interleaved and the gate compares *minimum* runs, like the
vectorization and tracing gates: the deterministic workload's best case
is its true cost.  An untimed warm-up also asserts output parity —
identical star nets in identical order with identical scores — so the
gate can never pass on a pipeline that got fast by dropping work.

Usage::

    PYTHONPATH=src python benchmarks/bench_interpretation.py [--repeats N]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.core import (
    MatcherChain,
    RankingMethod,
    generate_candidates,
    interpret_query,
    rank_candidates,
    rank_interpretations,
)
from repro.core.generation import DEFAULT_CONFIG
from repro.datasets import build_aw_online
from repro.obs.metrics import runs_summary
from repro.textindex.index import AttributeTextIndex

MAX_RATIO = 0.6
"""Acceptance ceiling: the staged value-only matcher chain must cost at
most this fraction of the pinned legacy front end on all-value queries
(the per-call memos put it near 0.35x)."""

QUERIES = (
    "California Mountain Bikes",
    "France Touring",
    "October Silver",
    "Europe Clothing",
    "Germany Road Bikes",
    "December Australia",
)
"""All-value workload: every keyword hits cell values, so both paths
produce the same interpretations and the delta is pipeline plumbing."""


def _shape(ranked):
    return [(str(s.star_net), round(s.score, 9)) for s in ranked]


def compare(schema, repeats: int) -> tuple[dict, dict]:
    """Interleaved timings of both front ends on the query list.

    Returns ``(benchmarks, check)``: per-mode timing dicts in the
    ``run_all`` format plus the min-run ratio gate entry.
    """
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    chain = MatcherChain(schema, index)
    method = RankingMethod.STANDARD

    def run_legacy():
        return [
            rank_candidates(
                generate_candidates(schema, index, query, DEFAULT_CONFIG),
                method)
            for query in QUERIES
        ]

    def run_staged():
        ranked = []
        for query in QUERIES:
            interps, _report = interpret_query(
                schema, index, query, DEFAULT_CONFIG,
                matchers=("value",), chain=chain)
            ranked.append(rank_interpretations(interps, method))
        return ranked

    modes = {"legacy": run_legacy, "staged": run_staged}
    warm = {mode: fn() for mode, fn in modes.items()}  # untimed warm-up
    for query, legacy, staged in zip(QUERIES, warm["legacy"],
                                     warm["staged"]):
        assert _shape(staged) == _shape(legacy), \
            f"front ends disagree on {query!r}"
    interpretations = sum(len(r) for r in warm["legacy"])
    assert interpretations, "workload produced no interpretations"

    runs: dict[str, list[float]] = {mode: [] for mode in modes}
    for _ in range(repeats):
        for mode, fn in modes.items():
            started = time.perf_counter()
            fn()
            runs[mode].append(time.perf_counter() - started)

    benchmarks = {}
    for mode in modes:
        benchmarks[f"interpretation_{mode}"] = {
            "median_s": round(statistics.median(runs[mode]), 6),
            "min_s": round(min(runs[mode]), 6),
            "runs_s": [round(r, 6) for r in runs[mode]],
            **runs_summary(runs[mode]),
            "meta": {"mode": mode, "queries": len(QUERIES),
                     "interpretations": interpretations},
        }
    legacy_min = min(runs["legacy"])
    staged_min = min(runs["staged"])
    check = {
        "legacy_min_s": round(legacy_min, 6),
        "staged_min_s": round(staged_min, 6),
        "ratio": round(staged_min / max(legacy_min, 1e-9), 3),
        "max_ratio": MAX_RATIO,
        "queries": len(QUERIES),
        "interpretations": interpretations,
    }
    return benchmarks, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced dataset size")
    args = parser.parse_args(argv)
    schema = (build_aw_online(num_customers=300, num_facts=8000, seed=42)
              if args.smoke else build_aw_online())
    benchmarks, check = compare(schema, args.repeats)
    for name, entry in benchmarks.items():
        print(f"  {name}: {entry['median_s']:.4f} s "
              f"(min {entry['min_s']:.4f} s)")
    print(f"ratio: {check['ratio']:.2f}x "
          f"(ceiling {check['max_ratio']:.2f}x)")
    return 0 if check["ratio"] <= check["max_ratio"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
