"""Paper-artifact goldens: the committed outputs of Figures 4-7 and
Tables 1-2 at small scale, which every change must reproduce byte for
byte.

``FIGURES`` names each figure's ``repro`` command line and
:func:`paper_tables` renders Tables 1 and 2 exactly as
``evalkit/full_report.py`` builds them.  The tests compare full output
with ``tests/golden/<name>.txt`` through :func:`assert_golden`.

A change that means to move a golden refreshes them in a commit of its
own, after checking that the new output is the intended one, under
Python 3.11 and then 3.12::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from repro.cli import main
from repro.core.facets import ExploreConfig, build_facets
from repro.core.session import KdapSession
from repro.evalkit.report import render_facets, render_star_nets

GOLDEN = Path(__file__).resolve().parent / "golden"

VARIANT = ".py312" if sys.version_info >= (3, 12) else ""
"""Python 3.12's ``sum()`` is compensated and the interestingness scores
are summed with it, so a score that is zero in exact arithmetic can print
as ``-0.0000`` there instead of ``+0.0000``: a golden whose 3.12 output
differs keeps it in a ``<name>.py312.txt`` variant."""

FIGURES = {
    "figure4_online": ["--facts", "2000", "experiment", "figure4"],
    "figure4_reseller": ["--facts", "2000", "--warehouse", "reseller",
                         "experiment", "figure4"],
    "figure5": ["--facts", "2000", "experiment", "figure5"],
    "figure6": ["--facts", "2000", "--warehouse", "reseller",
                "experiment", "figure6"],
    "figure7": ["--facts", "3000", "experiment", "figure7"],
}
"""Golden name → ``repro`` argv; its stdout is the golden."""

TABLES_WAREHOUSE = {"num_customers": 300, "num_facts": 8000, "seed": 42}
"""The small AW_ONLINE of ``tests/conftest.py``'s ``aw_online``."""


def paper_tables(schema) -> dict[str, str]:
    """Table 1 (star nets for 'California Mountain Bikes') and Table 2
    (its Product facet), rendered as the full report renders them."""
    session = KdapSession(schema)
    ranked = session.differentiate("California Mountain Bikes", limit=5)
    interface = build_facets(
        schema, ranked[0].star_net,
        config=ExploreConfig(top_k_attributes=4, display_intervals=3),
        engine=session.engine,
    )
    return {
        "table1": render_star_nets(ranked, limit=3) + "\n",
        "table2": render_facets(interface, dimensions=["Product"]) + "\n",
    }


def golden_path(name: str) -> Path:
    """The golden file ``name`` for the running Python version."""
    variant = GOLDEN / f"{name}{VARIANT}.txt"
    return variant if variant.exists() else GOLDEN / f"{name}.txt"


def assert_golden(name: str, text: str) -> None:
    """``text`` must equal the committed golden ``name`` exactly."""
    path = golden_path(name)
    assert text == path.read_text(encoding="utf-8"), \
        f"output differs from tests/golden/{path.name}"


def refresh() -> None:
    """Rewrite every golden from the current tree."""
    from repro.datasets import build_aw_online

    outputs = {}
    for name, argv in FIGURES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                raise SystemExit(f"{name}: repro {' '.join(argv)} failed")
        outputs[name] = out.getvalue()
    outputs.update(paper_tables(build_aw_online(**TABLES_WAREHOUSE)))
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs.items():
        path = GOLDEN / f"{name}{VARIANT}.txt"
        if VARIANT and text == (GOLDEN / f"{name}.txt").read_text(
                encoding="utf-8"):
            path.unlink(missing_ok=True)    # no 3.12 difference to keep
            continue
        path.write_text(text, encoding="utf-8")
        print(f"wrote tests/golden/{path.name}")


if __name__ == "__main__":
    refresh()
