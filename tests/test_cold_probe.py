"""The cold-pass probe's answers on a small scale star, pinned.

``benchmarks/cold_probe.py`` replays the ledger's cold explores on the
scale star, whose hierarchies hold a non-functional month step and whose
requests select partial chunks.  At 3 000 facts the run takes about a
second; its payload digest and plan-cache counts are fixed here, and its
exit code proves the warm replay gives the same answers (DESIGN §6).
The replay asks the plan cache twice per explore, the star net's rows
and the built facet interface, and both are hits (DESIGN §7).
Every sum and mean is a left-to-right fold, so the digest does not
depend on the Python version.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cold_probe_digest_and_cache_counts_are_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "cold_probe.py"),
         "--facts", "3000"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "digest 0146d1f4ff502d38" in done.stdout
    assert "cache hits=797 misses=614" in done.stdout
    assert "warm replay cache hits=80 misses=0" in done.stdout
    assert "warm replay digest matches" in done.stdout
