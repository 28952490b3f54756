"""Cache-state-independent facet ordering (PR 11 finding, ROADMAP aim 3).

``explore "Silver"`` / ``"Blue"`` on the scale star tie exactly on
several scores (correlation ±1 against a roll-up to ALL; the two shares
of a two-valued attribute deviate by ±the same amount).  If the path
that answered an aggregate — scan, plan cache, tier view, which worker's
session — changed its last bits, those bits would pick the facets and
their entry order.  Attribute ranking sorts on quantised scores; entry
order relies on every path adding the same floats in the same order.
The replay below runs the two queries between other requests, in
shuffled orders, alternating over two fresh sessions (sharing one tier,
or with the tier off) and demands one answer.
"""

import random

import pytest

from repro.core import KdapSession
from repro.datasets.scale import build_scale
from repro.warehouse import MaterializationTier

TIED = ("Silver", "Blue")
OTHERS = ("Silver May", "Blue August", "Black", "Bikes", "CY 2003",
          "Components")
SEEDS = range(5)


@pytest.fixture(scope="module")
def replays():
    """query -> list of (selected attributes, entry labels per attribute),
    one per time the query was answered in any replay."""
    schema = build_scale(100_000, seed=7)  # the ledger's scale star
    seen: dict[str, list] = {query: [] for query in TIED}
    for tier_on in (True, False):
        for seed in SEEDS:
            order = [*TIED, *OTHERS]
            random.Random(seed).shuffle(order)
            shared = MaterializationTier(schema) if tier_on else False
            sessions = [KdapSession(schema, materialize=shared)
                        for _ in range(2)]
            for turn, query in enumerate(order * 2):
                result = sessions[(turn + seed) % 2].search(query)
                if query in seen:
                    seen[query].append((
                        tuple((facet.dimension, str(attr.attribute.ref))
                              for facet in result.interface.facets
                              for attr in facet.attributes),
                        tuple(tuple(entry.label for entry in attr.entries)
                              for facet in result.interface.facets
                              for attr in facet.attributes),
                    ))
    return seen


@pytest.mark.parametrize("query", TIED)
def test_selected_attributes_do_not_depend_on_cache_state(replays, query):
    selections = {attributes for attributes, _ in replays[query]}
    assert len(selections) == 1, selections


def test_entry_order_does_not_depend_on_cache_state(replays):
    # instance ranking compares raw |score|; it is stable because every
    # path (scan, plan cache, tier view) runs the one grouped kernel
    for query in TIED:
        orders = {labels for _, labels in replays[query]}
        assert len(orders) == 1, (query, orders)
