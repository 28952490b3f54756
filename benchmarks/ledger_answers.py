"""The latency ledger's answer check alone, with no timing: every
workload's warm-up and a few timed passes through an in-process service,
each answer checked against the golden digests and, on the scale star,
the brute-force oracle.

It also reports how many explores were served by a cached facet
interface (DESIGN §7) rather than built: a cached answer that differs
from a built one is the fault this check exists to catch, and the share
shows which workloads it exercises.  Exits non-zero on any wrong answer.

The workloads, hosts and checks are ``benchmarks/ledger``'s own
(imported, never edited)::

    PYTHONPATH=src python benchmarks/ledger_answers.py \
        [--workload W ...] [--passes 2] [--seed 0]

About 10 s for all four workloads at 2 passes on a 2-core box, most of
it building the two warehouses.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

from workloads import add_src_to_path, load_workloads  # noqa: E402

add_src_to_path()

import checks  # noqa: E402
from client import run_window  # noqa: E402
from server import LocalHost  # noqa: E402

import repro.core.session as session_module  # noqa: E402


class FacetCounts:
    """Counts, while installed, the facet interfaces explores built and
    the ones a plan-cache hit served (the names the session calls)."""

    def __init__(self):
        self.counts = Counter()
        self._lock = threading.Lock()

    def _counting(self, name, function):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    def __enter__(self):
        self._saved = (session_module.build_facets,
                       session_module.replay_cached_build)
        session_module.build_facets = self._counting(
            "built", self._saved[0])
        session_module.replay_cached_build = self._counting(
            "hits", self._saved[1])
        return self

    def __exit__(self, *exc):
        (session_module.build_facets,
         session_module.replay_cached_build) = self._saved


def check(workload, passes: int, seed: int) -> int:
    """Run and check one workload; returns the number of wrong answers."""
    host = LocalHost(workload.warehouse)
    try:
        with FacetCounts() as facets:
            warm_passes = workload.warmup(seed)
            warm = run_window(host, warm_passes.__getitem__,
                              workload.clients,
                              max_passes=len(warm_passes))
            warm_counts = Counter(facets.counts)
            timed = run_window(
                host, lambda i: workload.pass_order(seed, i),
                workload.clients, max_passes=passes,
                fresh_service_per_pass=workload.fresh_service_per_pass)
    finally:
        host.stop()
    oracle = (checks.ScaleOracle(host.schema)
              if workload.warehouse == "scale" else None)
    samples = warm.samples + timed.samples
    verdict = checks.verify(samples, checks.load_golden(workload.name),
                            oracle, seed)
    wrong = sum(verdict["failed_flags"])
    timed_counts = facets.counts - warm_counts
    explores = timed_counts["hits"] + timed_counts["built"]
    share = timed_counts["hits"] / explores if explores else 0.0
    print(f"{workload.name}: {len(samples)} answers checked "
          f"({len(samples) - verdict['unchecked']} against golden "
          f"digests, {verdict['oracle_checked']} against the oracle), "
          f"{wrong} wrong; timed explores served by a cached facet "
          f"interface: {timed_counts['hits']} of {explores} "
          f"({share:.0%})")
    for failure in verdict["failures"]:
        print(f"  {failure}")
    return wrong


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads),
                        help="repeatable; default: all four")
    parser.add_argument("--passes", type=int, default=2,
                        help="timed passes after the warm-up (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    wrong = sum(check(workloads[name], args.passes, args.seed)
                for name in args.workload or sorted(workloads))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
