"""Paper-artifact and stats goldens: the committed outputs of Figures
4-7 and Tables 1-2 at small scale, and the counts the stats surfaces
report, which every change must reproduce byte for byte.

``FIGURES`` names each figure's ``repro`` command line and
:func:`paper_tables` renders Tables 1 and 2 exactly as
``evalkit/full_report.py`` builds them.  ``STATS`` names the
``explore --stats-json`` runs and :func:`statz_counts` drives a chaotic
one-worker service through a fixed request sequence; both drop every
timing, so what they pin is counts.  The tests compare full output with
``tests/golden/<name>.txt`` through :func:`assert_golden`.

A change that means to move a golden refreshes them in a commit of its
own, after checking that the new output is the intended one::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import urllib.request
from pathlib import Path

from repro.cli import main
from repro.core.facets import ExploreConfig, build_facets
from repro.core.session import KdapSession
from repro.evalkit.report import render_facets, render_star_nets

GOLDEN = Path(__file__).resolve().parent / "golden"

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

STATS = {
    "stats_memory": ["--facts", "2000", "explore", "Road Bikes"],
    "stats_sqlite": ["--facts", "2000", "--backend", "sqlite", "explore",
                     "Road Bikes"],
    "stats_resilient": ["--facts", "2000", "--backend", "sqlite",
                        "--resilient", "explore", "Road Bikes"],
}
"""Golden name → ``repro`` argv; its ``--stats-json`` payload without
timings is the golden."""

STATZ_WAREHOUSE = {"num_customers": 80, "num_stores": 10,
                   "num_trans": 1200, "seed": 7}
"""The small EBiz of ``tests/conftest.py``'s ``ebiz``."""

STATZ_REQUESTS = [
    ("/v1/explore", {"query": "Columbus"}),
    ("/v1/differentiate", {"query": "Columbus LCD"}),
    ("/v1/explore", {"query": "Columbus LCD"}),
    ("/v1/explore", {"query": "camera"}),
    ("/v1/explore", {"query": "Columbus"}),
]
"""The request sequence :func:`statz_counts` posts, in order."""

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


def untimed(payload):
    """``payload`` without timings: no ``seconds`` field, and each
    histogram summary cut down to its count."""
    if isinstance(payload, dict):
        return {key: ({"count": value["count"]} if "p50" in value
                      else untimed(value))
                if isinstance(value, dict) else untimed(value)
                for key, value in payload.items() if key != "seconds"}
    if isinstance(payload, list):
        return [untimed(value) for value in payload]
    return payload


def stats_json(argv: list[str]) -> str:
    """The timing-free ``--stats-json`` payload of ``repro argv``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "stats.json")
        with contextlib.redirect_stdout(io.StringIO()):
            if main([*argv, "--stats-json", path]) != 0:
                raise AssertionError(f"repro {' '.join(argv)} failed")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    return json.dumps(untimed(payload), indent=1, sort_keys=True) + "\n"


def statz_counts(schema, index) -> str:
    """The count sections of ``/v1/statz`` after :data:`STATZ_REQUESTS`
    on a one-worker service whose backend fails 40% of calls (seed 11):
    ``workers[*].plan_cache``, ``workers[*].resilience``,
    ``rollup.counters`` and ``rollup.resilience``."""
    from repro.service import KdapService, ServiceConfig

    config = ServiceConfig(workers=1, chaos_error_rate=0.4, chaos_seed=11)
    with KdapService(schema, config, index=index) as service:
        base = f"http://127.0.0.1:{service.port}"
        for path, body in STATZ_REQUESTS:
            request = urllib.request.Request(
                base + path, data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60.0) as response:
                response.read()
        with urllib.request.urlopen(base + "/v1/statz",
                                    timeout=10.0) as response:
            statz = json.loads(response.read())
    counts = {
        "workers": [{"plan_cache": worker["plan_cache"],
                     "resilience": worker["resilience"]}
                    for worker in statz["workers"]],
        "rollup": {"counters": statz["rollup"]["counters"],
                   "resilience": statz["rollup"]["resilience"]},
    }
    return json.dumps(counts, indent=1, sort_keys=True) + "\n"


def assert_golden(name: str, text: str) -> None:
    """``text`` must equal the committed golden ``name`` exactly."""
    path = GOLDEN / f"{name}.txt"
    assert text == path.read_text(encoding="utf-8"), \
        f"output differs from tests/golden/{path.name}"


def _statz_warehouse():
    """The EBiz warehouse and text index :func:`statz_counts` runs on."""
    from repro.datasets import build_ebiz
    from repro.textindex.index import AttributeTextIndex

    schema = build_ebiz(**STATZ_WAREHOUSE)
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    return schema, index


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
    outputs.update({name: stats_json(argv) for name, argv in STATS.items()})
    outputs["statz_chaos"] = statz_counts(*_statz_warehouse())
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs.items():
        path = GOLDEN / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"wrote tests/golden/{path.name}")


if __name__ == "__main__":
    refresh()
