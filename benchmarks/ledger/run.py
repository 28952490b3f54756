"""The latency ledger: one command for every KDAP benchmark number.

    python3 benchmarks/ledger/run.py                      # all workloads
    python3 benchmarks/ledger/run.py --workload aw.front_end --seed 3
    python3 benchmarks/ledger/run.py --trace 1            # layer report
    python3 benchmarks/ledger/run.py --repeats 3 --self-check

End-to-end metrics come from a closed-loop HTTP client in this process
against a ``KdapService`` in a child process; per-layer metrics from a
separate traced run that hosts the service here.  Exits non-zero when
any answer is wrong.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  See
README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
from client import MIN_BEYOND, percentile, run_window, samples_beyond
from server import ChildHost, LocalHost
from workloads import ROOT, add_src_to_path, load_workloads

HERE = Path(__file__).resolve().parent
#: fresh server processes set up per run; ``setup_s`` is their median
SETUP_CYCLES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version()}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def checked(workload, oracle, seed: int, checksum: dict,
            phases: dict) -> dict:
    """Verify the samples of every phase at once; returns the part of a
    result that does not depend on what was measured."""
    flat = [s for samples in phases.values() for s in samples]
    verdict = checks.verify(flat, checks.load_golden(workload.name),
                            oracle, seed)
    counts, cursor = {}, 0
    for name, samples in phases.items():
        failed = sum(verdict["failed_flags"][cursor:cursor + len(samples)])
        counts[name] = {"sent": len(samples), "failed": failed,
                        "succeeded": len(samples) - failed}
        cursor += len(samples)
    return {"workload": workload.name,
            "attempted": len(flat),
            "failed": sum(verdict["failed_flags"]),
            "failures": verdict["failures"],
            "record": {**environment(seed), "sizes": workload.sizes(),
                       "data_checksum": checksum, "phases": counts,
                       "golden_unchecked": verdict["unchecked"],
                       "oracle_checked": verdict["oracle_checked"]}}


def _latency_metrics(timed) -> tuple[dict, dict]:
    """p50/p90 (always reported; p90 is flagged when the window was too
    short to support it) and p95/p99 only where supported."""
    latencies = [s.latency_ms for s in timed]
    metrics = {"latency_p50_ms": percentile(latencies, 50),
               "latency_p90_ms": percentile(latencies, 90, min_beyond=0)}
    info = {"samples": len(latencies),
            "p90_supported": samples_beyond(len(latencies), 90)
            >= MIN_BEYOND}
    for q in (95, 99):
        try:
            info[f"latency_p{q}_ms"] = percentile(latencies, q)
        except ValueError:
            pass
    return metrics, info


def untraced_run(workload, seed: int, seconds: float, oracle) -> dict:
    """``SETUP_CYCLES`` fresh server processes are set up and warmed; the
    last one then serves the timed window."""
    setups, datagen = [], []
    for cycle in range(SETUP_CYCLES):
        host = ChildHost(workload.warehouse)
        try:
            warm_passes = workload.warmup(seed)
            warm = run_window(host, warm_passes.__getitem__,
                              workload.clients,
                              max_passes=len(warm_passes))
            setups.append(host.import_s + host.build_s + warm.wall_s)
            datagen.append(host.datagen_s)
            if cycle == SETUP_CYCLES - 1:
                window = run_window(
                    host, lambda i: workload.pass_order(seed, i),
                    workload.clients, seconds=seconds,
                    fresh_service_per_pass=workload.fresh_service_per_pass)
                checksum = host.checksum
            report = host.stop()
        except BaseException:
            host.kill()
            raise

    timed = window.timed
    result = checked(workload, oracle, seed, checksum, {
        "warmup": warm.samples, "timed": timed,
        "stragglers": [s for s in window.samples
                       if s.ended > window.closed]})
    metrics, info = _latency_metrics(timed)
    metrics["setup_s"] = statistics.median(setups)
    metrics["throughput_rps"] = (
        result["record"]["phases"]["timed"]["succeeded"] / window.wall_s)
    metrics["peak_rss_mb"] = report["peak_rss_mb"]
    info.update({
        "datagen_s": statistics.median(datagen),
        "setups_s": [round(s, 3) for s in setups],
        "client_cpu_share": window.client_cpu_s / window.wall_s,
        "window_s": window.wall_s,
        "passes": window.passes,
    })
    return {**result, "metrics": metrics, "info": info}


def _kept(samples) -> int:
    """Interpretations delivered to the client (differentiate lists
    them; explore and explain deliver the picked one)."""
    kept = 0
    for sample in samples:
        payload, reason = checks.parse_ok(sample)
        if reason is None:
            kept += len(payload.get("interpretations", (None,)))
    return kept


def traced_run(workload, seed: int, seconds: float, oracle) -> dict:
    """Half the window untraced, half with the wrappers installed, both
    against a service in this process."""
    host = LocalHost(workload.warehouse)
    try:
        warm_passes = workload.warmup(seed)
        warm = run_window(host, warm_passes.__getitem__, workload.clients,
                          max_passes=len(warm_passes))
        fresh = workload.fresh_service_per_pass
        plain = run_window(host, lambda i: workload.pass_order(seed, i),
                           workload.clients, seconds=seconds / 2,
                           fresh_service_per_pass=fresh)
        recorder = layers.Recorder()
        with layers.installed(recorder) as missing:
            meter = layers.StatzMeter(host)
            traced = run_window(
                meter, lambda i: workload.pass_order(seed, plain.passes + i),
                workload.clients, seconds=seconds / 2,
                fresh_service_per_pass=fresh)
            statz = meter.finish()
    finally:
        host.stop()

    result = checked(workload, oracle, seed, host.checksum, {
        "warmup": warm.samples, "untraced": plain.samples,
        "traced": traced.samples})
    rows, totals = layers.attribute(recorder, traced.samples)
    metrics = layers.layer_metrics(
        recorder, traced.samples, rows, totals, missing, statz,
        meter.views, _kept(traced.samples),
        percentile([s.latency_ms for s in plain.samples], 50))
    return {**result, "metrics": metrics,
            "info": {"mean_latency_ms": statistics.fmean(
                         s.latency_ms for s in traced.samples),
                     "linked_requests": len(rows),
                     "traced_requests": len(traced.samples),
                     "missing_targets": sorted(missing)},
            "table": layers.layer_table(rows),
            "spans": recorder.spans,
            "request_ids": {str(root): list(key) for root, key
                            in recorder.request_ids.items()}}


def update_golden(workload) -> Path:
    """Record the digests of the whole population (and the warm-up) from
    a service in this process.  Only for the PR that defines — or
    knowingly changes — the answers."""
    host = LocalHost(workload.warehouse)
    try:
        passes = workload.warmup(0) + [workload.pass_order(0, 0)]
        window = run_window(host, passes.__getitem__, 1,
                            max_passes=len(passes))
    finally:
        host.stop()
    digests = {}
    for sample in window.samples:
        payload, reason = checks.parse_ok(sample)
        if reason is not None:
            raise SystemExit(f"{sample.request.key}: {reason}")
        digests[sample.request.key] = checks.digest(
            checks.answer_view(sample.request.endpoint, payload))
    return checks.write_golden(workload.name, digests)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _spread(values) -> float:
    """Run-to-run spread: (max - min) / median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def summarize(runs: list[dict]) -> dict:
    """Median over repeats (a single run passes through)."""
    merged = dict(runs[-1])
    merged["metrics"] = {
        name: (None if any(r["metrics"][name] is None for r in runs)
               else statistics.median(r["metrics"][name] for r in runs))
        for name in runs[0]["metrics"]}
    merged["spread"] = {
        name: (None if merged["metrics"][name] is None else
               _spread([r["metrics"][name] for r in runs]))
        for name in runs[0]["metrics"]}
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["failures"] = [f for r in runs for f in r["failures"]]
    merged["repeats"] = len(runs)
    return merged


def print_result(result: dict, units: dict, bounds: dict) -> None:
    sizes = result["record"]["sizes"]
    print(f"== {result['workload']}  seed {result['record']['seed']}  "
          f"({sizes['clients']} client(s), {sizes['requests_per_pass']} "
          f"requests/pass, {result['repeats']} run(s))")
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.4f}"
        line = f"  {name:<36}{shown:>14} {units[name]:<6}"
        if result["repeats"] > 1 and value is not None:
            line += f" spread {result['spread'][name]:.1%}"
        if name in bounds:
            line += f" bound {bounds[name]:.0%}"
        print(line)
    print(f"  {'failed_share':<36}"
          f"{result['failed'] / result['attempted']:>14.4f} ratio  "
          f"({result['failed']} of {result['attempted']} requests)")
    info = ", ".join(
        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in result["info"].items())
    print(f"  info: {info}")
    if "table" in result:
        print(layers.format_table(result["table"]))
    for failure in list(dict.fromkeys(result["failures"]))[:10]:
        print(f"  FAILED {failure}")


def write_files(result: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    traced = "table" in result
    name = ("trace-" if traced else "result-") + result["workload"] + ".json"
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")


def driver_line(results: list[dict], units: dict) -> str:
    """The contract's last line.  One workload: its metrics by name;
    several: ``metrics`` maps workload -> metrics.  A per-layer metric
    whose targets are gone reads 0 here (the report above says null)."""
    def shaped(result):
        return {name: {"value": 0.0 if value is None else value,
                       "unit": units[name]}
                for name, value in result["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = (shaped(results[0]) if len(results) == 1 else
               {r["workload"]: shaped(r) for r in results})
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def units_of(spec) -> dict:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_suite(args, workloads, spec, selected) -> list[dict]:
    units = units_of(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    oracle = None
    results = []
    for name in selected:
        workload = workloads[name]
        if workload.warehouse == "scale" and oracle is None:
            from server import build_warehouse

            oracle = checks.ScaleOracle(build_warehouse("scale"))
        one = traced_run if args.trace else untraced_run
        runs = [one(workload, args.seed, args.seconds,
                    oracle if workload.warehouse == "scale" else None)
                for _ in range(args.repeats)]
        result = summarize(runs)
        print_result(result, units, bounds)
        sys.stdout.flush()
        write_files(result, Path(args.out))
        results.append(result)
    return results


def self_check(args, workloads, spec, selected) -> int:
    """The untraced suite twice on the same code: every metric must
    agree with itself within its own bound."""
    args.trace = 0
    first = run_suite(args, workloads, spec, selected)
    second = run_suite(args, workloads, spec, selected)
    worse_is = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exceeded = 0
    print("== self-check: second suite against the first")
    for a, b in zip(first, second):
        for name, bound in bounds.items():
            before, after = a["metrics"][name], b["metrics"][name]
            change = (after - before) / before
            worse = change if worse_is[name] == "lower" else -change
            verdict = "ok" if worse <= bound else "EXCEEDS"
            exceeded += worse > bound
            print(f"  {a['workload']:<20}{name:<18}{before:>12.4f}"
                  f"{after:>12.4f}{change:>+9.1%}  bound {bound:.0%}  "
                  f"{verdict}")
    failed = sum(r["failed"] for r in first + second)
    return 1 if exceeded or failed else 0


def main(argv=None) -> int:
    add_src_to_path()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed window per run (ends on the nearest "
                             "pass boundary)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload; medians are reported")
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice and compare within "
                             "the bounds")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result-/trace- files "
                             "(default: benchmarks/ledger/out)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.json")
    args = parser.parse_args(argv)

    # keep the servers' slow-query warnings out of the report
    logging.getLogger("repro").setLevel(logging.ERROR)
    workloads = load_workloads()
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(workloads):
        raise SystemExit("BENCHMARK.json and workloads.py disagree on the "
                         f"workload names: {declared} vs {list(workloads)}")
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(declared)}")
    selected = [args.workload] if args.workload else declared

    if args.update_golden:
        for name in selected:
            print(f"wrote {update_golden(workloads[name])}")
        return 0
    if args.self_check:
        return self_check(args, workloads, spec, selected)
    started = time.perf_counter()
    results = run_suite(args, workloads, spec, selected)
    print(f"ledger: {len(results)} workload(s) in "
          f"{time.perf_counter() - started:.1f} s")
    print(driver_line(results, units_of(spec)))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
