"""Memoised enumeration == the pinned unmemoised oracle.

``enumerate_interpretations`` scores each hit group against the query
once per call and reuses merged seeds and ray paths; the walk itself —
caps, dedup keys, budget charging, truncation notes — is unchanged.  So
its output must equal the oracle's exactly: same interpretations in the
same order, same matches and confidence, and bit-identical ``score`` and
``retrieval_score`` on every hit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DEFAULT_CONFIG, MatcherChain, \
    enumerate_interpretations, interpret_query
from repro.core.interpret import split_query
from repro.datasets import AW_ONLINE_QUERIES, AW_RESELLER_QUERIES
from repro.obs import Tracer, tracing_scope
from repro.resilience import Budget
from repro.resilience.budget import budget_scope
from repro.textindex.analysis import Analyzer
from repro.textindex.index import AttributeTextIndex

from .enumeration_oracle import oracle_enumerate_interpretations

#: the 24 ambiguous multi-keyword texts of the ledger's ``aw.front_end``
#: workload (benchmarks/ledger/workloads.py, ``front_end_population``)
FRONT_END_TEXTS = (
    "US 2001 2002 2003 2004 Road Bikes",
    "October Caps Gloves Jerseys",
    "Brakes Chains North America Europe Pacific Bikes 2003",
    "Discount California December Flat Washer",
    "Caps Gloves Jerseys San Jose Metal Plate",
    "New South Wales Professional Headlights Dual-Beam Weatherproof",
    "San Francisco Palo Alto Santa Cruz fernando35@adventure-works.com",
    "October Road Bikes",
    "Central Valley Torrance Denver Internal Lock",
    "Overstock Europe California Accessories 2001 September",
    "Bachelors Mountain Bike Socks",
    "Sydney California Promotion fernando35@adventure-works.com",
    "Sydney California Promotion Black Yellow handcrafted bumps",
    "Europe December November Mountain Tire Sale",
    "Ithaca Accessories Clothing Mountain Bike Socks",
    "October Europe Central Valley Torrance Denver",
    "Europe Mountain Bike Socks Sydney Helmet Discount",
    "Sydney Helmet Discount fernando35@adventure-works.com Sealed "
    "cartridge Horquilla GM",
    "Sport-100 Road Bikes",
    "Internal Lock Overstock",
    "December November Mountain Tire Sale Blade",
    "Australia All-purpose bar for on or off-road",
    "Mountain Tire Half-Price Pedal Sale",
    "Bachelors Blade California",
)

KEYWORD_POOL = sorted({kw for q in AW_ONLINE_QUERIES
                       for kw in q.text.split()})


def _setup(schema):
    index = AttributeTextIndex()
    index.index_database(schema.database, schema.searchable)
    return schema, index, MatcherChain(schema, index)


@pytest.fixture(scope="module")
def online(aw_online):
    return _setup(aw_online)


@pytest.fixture(scope="module")
def reseller(aw_reseller):
    return _setup(aw_reseller)


def _args(setup, query, config=DEFAULT_CONFIG):
    schema, index, chain = setup
    keywords, predicates = split_query(schema, query)
    slots = chain.match(keywords, config).slots
    return schema, index, query, slots, tuple(predicates), config


def _shape(interpretations):
    return [
        (i.describe(), i.matches, i.confidence,
         [(h.value, h.score, h.retrieval_score)
          for ray in i.star_net.rays for h in ray.hit_group.hits])
        for i in interpretations
    ]


def assert_parity(setup, query, config=DEFAULT_CONFIG):
    args = _args(setup, query, config)
    if not args[3]:
        return 0
    got = enumerate_interpretations(*args)
    want = oracle_enumerate_interpretations(*args)
    assert _shape(got) == _shape(want), query
    return len(got)


class TestParity:
    def test_online_queries(self, online):
        assert sum(assert_parity(online, q.text)
                   for q in AW_ONLINE_QUERIES) > 0

    def test_reseller_queries(self, reseller):
        assert sum(assert_parity(reseller, q.text)
                   for q in AW_RESELLER_QUERIES) > 0

    def test_front_end_texts(self, online):
        assert sum(assert_parity(online, text)
                   for text in FRONT_END_TEXTS) > 0

    @given(st.lists(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_keyword_subsets(self, online, keywords):
        assert_parity(online, " ".join(keywords))

    def test_tight_interpretation_budget(self, online):
        query = "Europe Mountain Bike Socks Sydney Helmet Discount"
        args = _args(online, query)
        runs = []
        for enumerate_fn in (enumerate_interpretations,
                             oracle_enumerate_interpretations):
            budget = Budget(max_interpretations=7)
            with budget_scope(budget):
                out = enumerate_fn(*args)
            runs.append((_shape(out),
                         [(e.stage, e.reason, e.detail)
                          for e in budget.events]))
        assert runs[0] == runs[1]
        shape, events = runs[0]
        assert len(shape) == 7
        assert events and events[0][1] == "interpretations"


class TestScoredOnce:
    def test_query_analysed_a_bounded_number_of_times(self, online,
                                                      monkeypatch):
        # the unmemoised walk analyses the query again for every hit of
        # every group of every combo: thousands of calls at paper scale
        args = _args(online,
                     "Europe Mountain Bike Socks Sydney Helmet Discount")
        calls = []
        analyze = Analyzer.analyze

        def counting(self, content):
            calls.append(content)
            return analyze(self, content)

        monkeypatch.setattr(Analyzer, "analyze", counting)
        assert enumerate_interpretations(*args)
        assert len(calls) < 300

    def test_front_end_work_bound(self, online, monkeypatch):
        # the whole front end (tokenize, match, enumerate) over the
        # ledger's front-end texts: the memoised walk makes ~1.7k analyse
        # calls and rescores ~370 distinct groups in total; the
        # unmemoised walk made ~4.9k calls on one of these texts alone
        schema, index, chain = online
        calls = 0
        analyze = Analyzer.analyze

        def counting(self, content):
            nonlocal calls
            calls += 1
            return analyze(self, content)

        monkeypatch.setattr(Analyzer, "analyze", counting)
        tracer = Tracer()
        with tracing_scope(tracer):
            for text in FRONT_END_TEXTS:
                interpret_query(schema, index, text, chain=chain)
        rescored = sum(s.tags["rescored"] for s in tracer.spans()
                       if s.name == "starnet.enumerate")
        assert calls <= 2000
        assert rescored <= 450


class TestEnumerateSpan:
    def test_span_tags_the_walk(self, online):
        schema, index, chain = online
        tracer = Tracer()
        with tracing_scope(tracer):
            interps, _report = interpret_query(
                schema, index,
                "Europe Mountain Bike Socks Sydney Helmet Discount",
                chain=chain)
        spans = [s for s in tracer.spans() if s.name == "starnet.enumerate"]
        assert len(spans) == 1
        tags = spans[0].tags
        assert tags["candidates"] == len(interps) > 0
        assert 0 < tags["seeds"] <= tags["combos"]
        assert 0 < tags["merges"] <= tags["combos"]
        assert tags["rescored"] > 0
