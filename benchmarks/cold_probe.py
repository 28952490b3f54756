"""In-process cold-pass probe: where a cold explore's time goes, per
plan operator, plus an answer digest.

Replays the ledger's ``scale.explore_cold`` work without HTTP: one fresh
session over the scale star, the 6 cold warm-up explores, then the 40
timed cold explores.  Prints the p50 latency of the 40, per-operator
calls and milliseconds per request, the plan-cache statistics and a
digest of the 40 explore payloads.  It then replays the 40 explores on
the now-warm session, where each is a hit on its built facet interface
(DESIGN §7), prints the replay's plan-cache lookups, and exits non-zero
unless the replay gives the same digest: answers must not depend on
cache state (DESIGN §6).  ``--backend sqlite`` runs the same check with
every answer computed in SQL.

The request populations come from ``benchmarks/ledger/workloads.py``
(imported, never edited), so the probe sends exactly the ledger's cold
requests.  Run it from a checkout root; to compare two commits, alternate
runs of each checkout (one process per run)::

    PYTHONPATH=src python benchmarks/cold_probe.py [--facts 100000] \
        [--backend {memory,sqlite}]

About 30 s per run at the default 100 000 facts on a 2-core box.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

from workloads import (  # noqa: E402
    SCALE_FACTS,
    SCALE_SEED,
    add_src_to_path,
    cold_population,
    cold_warmup,
)

add_src_to_path()

from repro.core.session import KdapSession  # noqa: E402
from repro.datasets import build_scale  # noqa: E402
from repro.plan import cache_stats  # noqa: E402
from repro.service.protocol import explore_payload  # noqa: E402
from repro.textindex.index import AttributeTextIndex  # noqa: E402


def run(facts: int, backend: str = "memory") -> int:
    schema = build_scale(num_facts=facts, seed=SCALE_SEED)
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    session = KdapSession(schema, index=index, backend=backend)

    def explore(unit) -> dict:
        ranked = session.differentiate(unit[0].body["query"], limit=5)
        return explore_payload(session.explore(ranked[0]))

    def ops() -> dict:
        return {op: (s.calls, s.seconds)
                for op, s in session.engine.counters.ops.items()}

    def digest_of(payloads) -> str:
        digest = hashlib.sha256()
        for payload in payloads:
            digest.update(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    for unit in cold_warmup():
        explore(unit)
    before, payloads, latencies = ops(), [], []
    for unit in cold_population():
        started = time.perf_counter()
        payloads.append(explore(unit))
        latencies.append((time.perf_counter() - started) * 1000)
    after = ops()

    def lookups() -> dict:
        return cache_stats(session.metrics.snapshot()["counters"])

    stats = lookups()
    n = len(latencies)
    digest = digest_of(payloads)
    print(f"p50 {sorted(latencies)[n // 2]:.1f} ms  digest {digest}")
    for op, (calls, seconds) in sorted(after.items()):
        calls0, seconds0 = before.get(op, (0, 0.0))
        print(f"  {op:20s} calls/req {(calls - calls0) / n:5.2f}"
              f"  ms/req {(seconds - seconds0) * 1000 / n:6.2f}")
    print(f"cache hits={stats['hits']} misses={stats['misses']}")
    print(f"peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024} MiB")

    replay = digest_of([explore(unit) for unit in cold_population()])
    replayed = lookups()
    print(f"warm replay cache hits={replayed['hits'] - stats['hits']} "
          f"misses={replayed['misses'] - stats['misses']}")
    if replay != digest:
        print(f"warm replay digest {replay} differs from cold {digest}",
              file=sys.stderr)
        return 1
    print("warm replay digest matches")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", type=int, default=SCALE_FACTS,
                        help="fact rows of the scale star "
                             "(default: the ledger's %(default)s)")
    parser.add_argument("--backend", choices=("memory", "sqlite"),
                        default="memory",
                        help="execution backend (default: %(default)s)")
    args = parser.parse_args(argv)
    return run(args.facts, args.backend)


if __name__ == "__main__":
    sys.exit(main())
