"""The four ledger workloads: what is sent, to which warehouse, by how
many closed-loop clients.

Every workload has a **fixed population** of request units (a unit is the
sequence one client sends back to back: one request, or the three steps
of a session).  The population does not depend on ``--seed``; the seed
decides only the order in which each pass over the population is sent.
That is deliberate: the acceptance gate compares runs made with
*different* seeds, and request cost in this system varies 100x between
queries, so a seed that chose *which* queries run would swamp every
latency metric with sampling noise.  A timed window always ends on a
pass boundary, so every run of a workload measures the same multiset of
requests.

The sizes below were calibrated once on the 2-core reference box
(see README.md, "Calibration") and are frozen: later PRs may not edit
this directory, so the work stays identical across commits.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

# -- frozen sizes ------------------------------------------------------
SCALE_FACTS = 100_000
SCALE_SEED = 7
FRONT_END_QUERIES = 24
SESSIONS_PER_PASS = 16
ZIPF_EXPONENT = 1.1
HOT_REQUESTS = 8
HOT_WARMUP_ROTATIONS = 4
#: requests per template in one cold pass (40 in total)
COLD_MIX = (("product_month", 10), ("color_month", 8),
            ("category_month", 6), ("color_month_year", 8),
            ("category_month_year", 6), ("category_year", 2))
#: templates the cold warm-up draws from; none is in COLD_MIX
COLD_WARMUP_MIX = (("color_year", 3), ("product_year", 3))


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout this file lives in.

    The benchmark is run from a bare checkout (nothing installed), so
    the harness — parent and server child alike — imports the package
    from ``<root>/src``.  Exits non-zero when there is no source tree:
    a directory holding only the benchmark has nothing to measure.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"ledger: no source tree at {SRC}; run from a "
                         "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Request(NamedTuple):
    """One HTTP POST.  ``filters`` (scale workloads only) states the
    intended predicate as column -> value, for the brute-force oracle."""

    endpoint: str
    body: dict
    filters: tuple = ()

    @property
    def key(self) -> str:
        """Canonical identity: golden digests are stored under it."""
        return f"{self.endpoint} {json.dumps(self.body, sort_keys=True)}"

    @property
    def payload(self) -> bytes:
        return json.dumps(self.body).encode("utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    warehouse: str  # "aw_online" | "scale"
    clients: int
    population: tuple = field(repr=False)
    #: warm-up = this many passes over the population ...
    warmup_passes: int = 0
    #: ... or these units, when the timed requests must stay unseen
    warmup_units: tuple = field(default=(), repr=False)
    #: start every timed pass on a freshly constructed KdapService, so
    #: each pass meets empty plan caches and an empty tier
    fresh_service_per_pass: bool = False

    def pass_order(self, seed: int, index: int) -> list:
        """The units of pass ``index`` (negative = warm-up) in the order
        ``seed`` sends them."""
        units = list(self.population)
        random.Random(f"{self.name}/{seed}/{index}").shuffle(units)
        return units

    def warmup(self, seed: int) -> list[list]:
        if self.warmup_units:
            return [list(self.warmup_units)]
        return [self.pass_order(seed, -1 - i)
                for i in range(self.warmup_passes)]

    def sizes(self) -> dict:
        """The frozen sizes, for the run record."""
        return {
            "warehouse": self.warehouse,
            "scale_facts": (SCALE_FACTS if self.warehouse == "scale"
                            else None),
            "clients": self.clients,
            "units_per_pass": len(self.population),
            "requests_per_pass": sum(len(u) for u in self.population),
            "warmup_requests": sum(len(u) for p in self.warmup(0)
                                   for u in p),
            "fresh_service_per_pass": self.fresh_service_per_pass,
        }


# ----------------------------------------------------------------------
# aw.front_end
# ----------------------------------------------------------------------
def _query_tables(query) -> frozenset:
    return frozenset(spec.table for interpretation in query.interpretations
                     for spec in interpretation)


def front_end_population() -> tuple:
    """Ambiguous multi-keyword differentiate requests.

    Two or three Table 3 query texts whose intended attribute domains
    live in disjoint tables are concatenated into one 3-8-keyword query,
    so every keyword still has hits (answerable by construction) while
    the number of candidate interpretations multiplies.
    """
    from repro.datasets import AW_ONLINE_QUERIES

    rng = random.Random("aw.front_end population")
    texts: list[str] = []
    while len(texts) < FRONT_END_QUERIES:
        parts = rng.sample(AW_ONLINE_QUERIES, rng.choice((2, 3)))
        tables = [_query_tables(q) for q in parts]
        if any(a & b for i, a in enumerate(tables) for b in tables[i + 1:]):
            continue
        text = " ".join(q.text for q in parts)
        if 3 <= len(text.split()) <= 8 and text not in texts:
            texts.append(text)
    return tuple(
        (Request("differentiate",
                 {"query": text, "limit": 10,
                  "preview_sizes": position % 2 == 1}),)
        for position, text in enumerate(texts))


# ----------------------------------------------------------------------
# aw.session_mix
# ----------------------------------------------------------------------
def zipf_counts(n_items: int, total: int, exponent: float) -> list[int]:
    """``total`` draws apportioned over ranks 1..n by Zipf weight
    (largest remainder), i.e. the expected multiset, not a sample."""
    weights = [rank ** -exponent for rank in range(1, n_items + 1)]
    scale = total / sum(weights)
    quotas = [w * scale for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n_items),
                          key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def session_population() -> tuple:
    """differentiate -> explore -> explain sessions over the paper's
    Figure 4 query set, popularity Zipf(1.1) over a fixed shuffle of the
    50 queries (so popularity is independent of query length)."""
    from repro.datasets import AW_ONLINE_QUERIES

    ranked = list(AW_ONLINE_QUERIES)
    random.Random("aw.session_mix popularity").shuffle(ranked)
    counts = zipf_counts(len(ranked), SESSIONS_PER_PASS, ZIPF_EXPONENT)
    units = []
    for query, count in zip(ranked, counts):
        session = (
            Request("differentiate", {"query": query.text, "limit": 5}),
            Request("explore", {"query": query.text, "pick": 1}),
            Request("explain", {"query": query.text, "pick": 1}),
        )
        units.extend([session] * count)
    return tuple(units)


# ----------------------------------------------------------------------
# scale.explore_cold / scale.explore_hot
# ----------------------------------------------------------------------
_COLORS = ("Black", "Silver", "Red", "Blue", "Yellow", "White")
_CATEGORIES = ("Bikes", "Components", "Clothing", "Accessories")
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_YEARS = ("2003", "2004")
_PRODUCTS = tuple(f"{key:03d}" for key in range(1, 25))

#: template -> (columns, value lists); keyword text is the values joined
_TEMPLATES = {
    "product_month": (("ProductName", "MonthName"), (_PRODUCTS, _MONTHS)),
    "color_month": (("Color", "MonthName"), (_COLORS, _MONTHS)),
    "category_month": (("CategoryName", "MonthName"),
                       (_CATEGORIES, _MONTHS)),
    "color_month_year": (("Color", "MonthName", "CalendarYearName"),
                         (_COLORS, _MONTHS, _YEARS)),
    "category_month_year": (
        ("CategoryName", "MonthName", "CalendarYearName"),
        (_CATEGORIES, _MONTHS, _YEARS)),
    "category_year": (("CategoryName", "CalendarYearName"),
                      (_CATEGORIES, _YEARS)),
    "color_year": (("Color", "CalendarYearName"), (_COLORS, _YEARS)),
    "product_year": (("ProductName", "CalendarYearName"),
                     (_PRODUCTS, _YEARS)),
}

#: how a keyword spells the stored cell value it selects
_STORED = {
    "ProductName": lambda keyword: f"Scale Product {keyword}",
    "CalendarYearName": lambda keyword: f"CY {keyword}",
}


def _explore_request(columns, keywords) -> Request:
    filters = tuple((column, _STORED.get(column, str)(keyword))
                    for column, keyword in zip(columns, keywords))
    return Request("explore", {"query": " ".join(keywords)}, filters)


def _draw(mix, label: str) -> tuple:
    """``count`` distinct value combinations per template, picked once
    with a fixed seed."""
    rng = random.Random(label)
    units = []
    for template, count in mix:
        columns, domains = _TEMPLATES[template]
        combos = [()]
        for domain in domains:
            combos = [c + (v,) for c in combos for v in domain]
        for keywords in rng.sample(combos, count):
            units.append((_explore_request(columns, keywords),))
    return tuple(units)


def cold_population() -> tuple:
    """Distinct keyword combinations over the scale star (``COLD_MIX``)."""
    return _draw(COLD_MIX, "scale.explore_cold population")


def cold_warmup() -> tuple:
    """Explores from templates outside the timed mix: they finish lazy
    start-up work without showing the server any timed request's exact
    subspace.  (Single-keyword explores would be cheaper, but their facet
    ranking has exact score ties that this system breaks differently from
    run to run — see README.md, "Findings".)"""
    return _draw(COLD_WARMUP_MIX, "scale.explore_cold warm-up")


def hot_population() -> tuple:
    """Eight of the cold requests, evenly spaced through the mix."""
    cold = cold_population()
    step = len(cold) // HOT_REQUESTS
    return tuple(cold[i * step] for i in range(HOT_REQUESTS))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def load_workloads() -> dict[str, Workload]:
    """name -> Workload (needs ``repro``).  BENCHMARK.json holds each
    workload's one-line reason; README.md the long form."""
    workloads = (
        Workload("aw.front_end", "aw_online", 1, front_end_population(),
                 warmup_passes=2),
        Workload("aw.session_mix", "aw_online", 2, session_population(),
                 warmup_passes=1),
        Workload("scale.explore_cold", "scale", 1, cold_population(),
                 warmup_units=cold_warmup(), fresh_service_per_pass=True),
        Workload("scale.explore_hot", "scale", 1, hot_population(),
                 warmup_passes=HOT_WARMUP_ROTATIONS),
    )
    return {w.name: w for w in workloads}
