"""The front-end probe's answers and work counts, pinned.

``benchmarks/front_end_probe.py`` replays the ledger's 24 ambiguous
``aw.front_end`` differentiate requests in process.  Its payload digest
is the ranked output the front end had before each piece of its
per-request work was done once (DESIGN §15), and the probe exits
non-zero if the digest moves.  The per-pass counts pin that work: each
distinct pair of hit groups is phrase-merged once per request (32 615
``try_merge`` calls per pass before, 2 223 now), so far fewer groups are
scored against a phrase (1 405 ``score_values`` calls before, 466 now),
and after the warm-up every word the front end stems is a cache hit.
The counts do not depend on the hash seed or the Python version.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_front_end_probe_digest_and_work_counts_are_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "front_end_probe.py"),
         "--passes", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "digest f920aed902a4a0ef" in done.stdout
    assert ("per pass: try_merge calls 2223  stem calls 2767 misses 0  "
            "score_values calls 466") in done.stdout
