"""The latency ledger's answers, checked in tier-1.

``benchmarks/ledger_answers.py`` runs a ledger workload's warm-up and
timed passes through an in-process service and checks every answer
against the committed golden digests and, on the scale star, the
brute-force oracle.  The explore workloads run here: on
``scale.explore_hot`` every timed explore is served by a cached facet
interface (DESIGN §7), on ``scale.explore_cold`` every one is built, and
``aw.session_mix`` mixes both with explains.  A cached answer that
differs from a built one fails this test.  About 15 s.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_explore_workloads_answer_their_golden_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger_answers.py"),
         "--workload", "scale.explore_hot", "--workload", "aw.session_mix",
         "--workload", "scale.explore_cold", "--passes", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len([line for line in lines if ", 0 wrong;" in line]) == 3
    [hot] = [line for line in lines if line.startswith("scale.explore_hot")]
    assert "cached facet interface: 8 of 8 (100%)" in hot
    [cold] = [line for line in lines
              if line.startswith("scale.explore_cold")]
    assert "cached facet interface: 0 of 40 (0%)" in cold
    assert ", 0 against the oracle" not in hot + cold
