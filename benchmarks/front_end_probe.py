"""In-process front-end probe: how long the keyword front end takes per
request, how much repeated work it does, plus an answer digest.

Replays the ledger's ``aw.front_end`` work without HTTP: one session over
the paper-scale AdventureWorks online warehouse, 2 warm-up passes over the
24 ambiguous differentiate requests, then ``--passes`` timed passes.
Prints the p50/p90 latency of the timed requests; per pass, the calls to
``phrases.try_merge`` (phrase merges tried), to Porter ``stem`` and its
cache misses, and to ``AttributeTextIndex.score_values`` (hit groups
scored against a query or phrase); and a digest of one pass's ranked
payloads.  Exits non-zero unless every timed pass gives the same digest
and that digest is :data:`PINNED_DIGEST`, the ranked output the front end
had before its per-request work was deduplicated (DESIGN §15).

The request population comes from ``benchmarks/ledger/workloads.py``
(imported, never edited), so the probe sends exactly the ledger's
front-end requests.  Run it from a checkout root; to compare two commits,
alternate runs of each checkout (one process per run)::

    PYTHONPATH=src python benchmarks/front_end_probe.py [--passes 3] \\
        [--backend {memory,sqlite}]

About 5 s per run on a 2-core box, most of it building the warehouse
and its text index.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

from workloads import add_src_to_path, front_end_population  # noqa: E402

add_src_to_path()

from repro.core import phrases  # noqa: E402
from repro.core.session import KdapSession  # noqa: E402
from repro.datasets import build_aw_online  # noqa: E402
from repro.service.protocol import differentiate_payload  # noqa: E402
from repro.textindex.index import AttributeTextIndex  # noqa: E402
from repro.textindex.stemmer import stem  # noqa: E402

#: digest of one pass's ranked payloads (both backends, every Python)
PINNED_DIGEST = "f920aed902a4a0ef"

WARMUP_PASSES = 2


def run(passes: int, backend: str = "memory") -> int:
    schema = build_aw_online()
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    session = KdapSession(schema, index=index, backend=backend)
    units = front_end_population()
    counts = {"try_merge": 0, "score_values": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    phrases.try_merge = counted("try_merge", phrases.try_merge)
    index.score_values = counted("score_values", index.score_values)

    def one_pass(latencies: list) -> str:
        digest = hashlib.sha256()
        for (request,) in units:
            body = request.body
            started = time.perf_counter()
            ranked = session.differentiate(
                body["query"], limit=body["limit"],
                preview_sizes=body["preview_sizes"])
            latencies.append((time.perf_counter() - started) * 1000)
            payload = differentiate_payload(ranked, None)
            digest.update(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    for _ in range(WARMUP_PASSES):
        one_pass([])
    counts.update(try_merge=0, score_values=0)
    stems = stem.cache_info()
    latencies: list[float] = []
    digests = {one_pass(latencies) for _ in range(passes)}
    after = stem.cache_info()
    latencies.sort()
    n = len(latencies)
    stem_calls = after.hits + after.misses - stems.hits - stems.misses
    print(f"{passes} passes x {len(units)} requests  "
          f"p50 {latencies[n // 2]:.2f} ms  "
          f"p90 {latencies[min(n - 1, n * 9 // 10)]:.2f} ms")
    print(f"per pass: try_merge calls {counts['try_merge'] // passes}  "
          f"stem calls {stem_calls // passes} "
          f"misses {(after.misses - stems.misses) // passes}  "
          f"score_values calls {counts['score_values'] // passes}")
    if len(digests) != 1:
        print(f"timed passes disagree: digests {sorted(digests)}",
              file=sys.stderr)
        return 1
    digest = digests.pop()
    print(f"digest {digest}")
    if digest != PINNED_DIGEST:
        print(f"digest {digest} differs from the pinned {PINNED_DIGEST}",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=3,
                        help="timed passes over the 24 requests "
                             "(default: %(default)s)")
    parser.add_argument("--backend", choices=("memory", "sqlite"),
                        default="memory",
                        help="execution backend of the preview sizes "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return run(args.passes, args.backend)


if __name__ == "__main__":
    sys.exit(main())
