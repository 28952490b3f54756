"""Ablation (§7): interval-merge algorithms — annealing vs exact.

The paper's future work hypothesises "more efficient algorithms for
finding partitions" than its simulated annealing.  This benchmark
compares two on the real Figure-7 workload (basic-interval series from
the "France Clothing" / YearlyIncome subspace):

* Algorithm 2's simulated annealing (500 iterations, the paper's setup);
* the exact optimum by constrained enumeration.

Reported per algorithm: the final error (|merged - basic| correlation,
in percentage points) and wall-clock time.  Expected shape: exact <=
annealing on error, with annealing near-optimal as Figure 7 claims.
"""

import time

from repro.core import AnnealingConfig, anneal_splits
from repro.core.optimal_merge import exhaustive_splits
from repro.evalkit import basic_series_for_query, render_table


def test_merge_algorithm_ablation(benchmark, online_session_full):
    x, y = basic_series_for_query(online_session_full, "France Clothing",
                                  "DimCustomer", "YearlyIncome",
                                  num_buckets=40)
    k = 6

    def run_all():
        results = {}
        t0 = time.perf_counter()
        results["annealing (500 it)"] = anneal_splits(
            x, y, AnnealingConfig(num_intervals=k, iterations=500))
        t1 = time.perf_counter()
        results["exact"] = exhaustive_splits(x, y, k)
        t2 = time.perf_counter()
        timings = {
            "annealing (500 it)": t1 - t0,
            "exact": t2 - t1,
        }
        return results, timings

    results, timings = benchmark.pedantic(run_all, rounds=3, iterations=1)

    rows = [
        (name, f"{res.error * 100:.4f}", f"{timings[name] * 1000:.2f}",
         str(res.splits))
        for name, res in results.items()
    ]
    print(f"\n=== Merge-algorithm ablation ({len(x)} basic intervals, "
          f"K={k}) ===")
    print(render_table(("algorithm", "error %", "time ms", "splits"),
                       rows))

    exact_error = results["exact"].error
    assert exact_error <= results["annealing (500 it)"].error + 1e-12
    # the annealing result is near-optimal, as Figure 7 claims
    assert results["annealing (500 it)"].error - exact_error <= 0.10
