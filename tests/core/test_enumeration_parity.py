"""Memoised enumeration == the pinned unmemoised oracle.

``enumerate_interpretations`` scores each hit group against the query
once per call and reuses merged seeds, pairwise phrase merges and ray
paths; the walk itself — caps, dedup keys, budget charging, truncation
notes — is unchanged.  So its output must equal the oracle's exactly:
same interpretations in the same order, same matches and confidence,
and bit-identical ``score`` and ``retrieval_score`` on every hit.
Ranked, it must equal the oracle's output ranked the same way, and
every label and mean score a hit group or star net keeps must equal a
freshly built object's.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DEFAULT_CONFIG, HitGroup, MatcherChain, Ray, \
    StarNet, enumerate_interpretations, interpret_query, phrases, \
    rank_interpretations
from repro.core.interpret import split_query
from repro.datasets import AW_ONLINE_QUERIES, AW_RESELLER_QUERIES
from repro.obs import Tracer, tracing_scope
from repro.resilience import Budget
from repro.resilience.budget import budget_scope
from repro.textindex.analysis import Analyzer
from repro.textindex.index import AttributeTextIndex
from repro.textindex.stemmer import stem

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


def _ranked(ranked):
    return [(s.interpretation.describe(), s.score.hex()) for s in ranked]


def _fresh_rays(net):
    return tuple(
        Ray(HitGroup(r.hit_group.table, r.hit_group.attribute,
                     r.hit_group.hits, r.hit_group.keywords),
            r.path_to_fact, r.dimension)
        for r in net.rays)


def assert_kept_values_are_fresh(ranked):
    for scored in ranked:
        net = scored.star_net
        fresh = _fresh_rays(net)
        for ray, built in zip(net.rays, fresh):
            kept, new = ray.hit_group, built.hit_group
            assert kept.label == new.label == str(kept)
            assert kept.mean_score().hex() == new.mean_score().hex()
            assert (kept.domain, kept.values) == (new.domain, new.values)
            assert ray.path_to_fact.fk_names == tuple(
                step.fk.name for step in ray.path_to_fact.steps)
        rebuilt = StarNet(net.fact_table, fresh, net.measure_predicates)
        assert net.label == rebuilt.label == str(net)


def assert_ranked_parity(setup, query):
    args = _args(setup, query)
    if not args[3]:
        return 0
    got = rank_interpretations(enumerate_interpretations(*args))
    want = rank_interpretations(oracle_enumerate_interpretations(*args))
    assert _ranked(got) == _ranked(want), query
    assert_kept_values_are_fresh(got)
    return len(got)


class TestRankedParity:
    def test_online_queries(self, online):
        assert sum(assert_ranked_parity(online, q.text)
                   for q in AW_ONLINE_QUERIES) > 0

    def test_reseller_queries(self, reseller):
        assert sum(assert_ranked_parity(reseller, q.text)
                   for q in AW_RESELLER_QUERIES) > 0

    def test_front_end_texts(self, online):
        assert sum(assert_ranked_parity(online, text)
                   for text in FRONT_END_TEXTS) > 0


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
        # ledger's front-end texts.  The walk makes ~730 analyse calls
        # (~1.7k when every seed retried its phrase merges), rescores
        # ~370 distinct groups, tries ~2.2k distinct group pairs (~32.6k
        # merge attempts without the pair memo) and stems ~80 distinct
        # words (~4.9k stem calls without the stem memo); the unmemoised
        # walk made ~4.9k analyse calls on one of these texts alone
        schema, index, chain = online
        calls = merges = 0
        analyze = Analyzer.analyze
        try_merge = phrases.try_merge

        def counting(self, content):
            nonlocal calls
            calls += 1
            return analyze(self, content)

        def counting_merge(left, right, index):
            nonlocal merges
            merges += 1
            return try_merge(left, right, index)

        monkeypatch.setattr(Analyzer, "analyze", counting)
        monkeypatch.setattr(phrases, "try_merge", counting_merge)
        stem.cache_clear()
        tracer = Tracer()
        with tracing_scope(tracer):
            for text in FRONT_END_TEXTS:
                interpret_query(schema, index, text, chain=chain)
        spans = [s for s in tracer.spans() if s.name == "starnet.enumerate"]
        rescored = sum(s.tags["rescored"] for s in spans)
        assert calls <= 900
        assert rescored <= 450
        assert merges == sum(s.tags["pair_merges"] for s in spans) <= 2700
        assert stem.cache_info().misses <= 120


class TestConcurrentFrontEnd:
    def test_threads_sharing_index_and_chain_agree_with_a_serial_run(
            self, online):
        # the service's workers share one text index (and with it the
        # stem memo); here 4 threads also share one matcher chain and
        # rank the same enumerated candidates, so they race to fill the
        # same lazily built labels and mean scores
        schema, index, chain = online

        def candidates(text):
            return interpret_query(schema, index, text, chain=chain)[0]

        def differentiate(text):
            return _ranked(rank_interpretations(candidates(text)))

        expected = [differentiate(text) for text in FRONT_END_TEXTS]
        shared = [candidates(text) for text in FRONT_END_TEXTS]
        stem.cache_clear()
        barrier = threading.Barrier(4, timeout=30)

        def race(_):
            barrier.wait()
            return ([differentiate(text) for text in FRONT_END_TEXTS],
                    [_ranked(rank_interpretations(interps))
                     for interps in shared])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(race, range(4), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert results == [(expected, expected)] * 4


class TestEnumerateSpan:
    def test_span_tags_the_walk(self, online, monkeypatch):
        schema, index, chain = online
        merges = 0
        try_merge = phrases.try_merge

        def counting_merge(left, right, index):
            nonlocal merges
            merges += 1
            return try_merge(left, right, index)

        monkeypatch.setattr(phrases, "try_merge", counting_merge)
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
        # the distinct group pairs phrase merging tried, each once
        assert tags["pair_merges"] == merges > 0
