"""Pipeline-vs-reference parity (property tests).

The staged pipeline's value-only chain must reproduce the paper's front
end *exactly*: same candidate star nets, same scores, same order.  The
pinned reference is ``oracle_front_end`` (tests/core/enumeration_oracle),
which builds value slots straight from the text index and ranks with the
bare star-net score, so any drift in matching, phrase merging,
enumeration caps, dedup, or ranking shows up here.

Also pins the fallback guarantee: with the full default chain enabled,
a query whose keywords all hit cell values never changes — metadata and
pattern matchers only ever *add* interpretations for keywords the value
matcher rejects.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    DEFAULT_CONFIG,
    KdapSession,
    RankingMethod,
    interpret_query,
    rank_interpretations,
)

from ..core.enumeration_oracle import oracle_front_end

# keyword pool mixing cell values (several attribute domains, phrase
# fragments, fuzzy-adjacent words) with a stopword, a measure predicate,
# and junk that matches nothing
KEYWORDS = [
    "Road", "Bikes", "Mountain", "France", "Germany", "October",
    "December", "Silver", "Touring", "Europe", "Clothing", "Manager",
    "the", "revenue>3000", "qqqzz",
]

def _shape(ranked):
    """The observable output: interpretation text + rounded score."""
    return [(str(s.star_net), round(s.score, 9)) for s in ranked]


def _exact(ranked):
    """Interpretation text + the score's exact ``repr``."""
    return [(str(s.star_net), repr(s.score)) for s in ranked]


@given(
    words=st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3),
    method=st.sampled_from(list(RankingMethod)),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_value_only_pipeline_matches_legacy(aw_online, online_session,
                                            words, method):
    query = " ".join(words)
    index = online_session.index

    reference = oracle_front_end(aw_online, index, query, DEFAULT_CONFIG,
                                 method)
    interps, _report = interpret_query(
        aw_online, index, query, DEFAULT_CONFIG, matchers=("value",),
        chain=online_session.chain)
    staged = rank_interpretations(interps, method)

    assert _exact(staged) == _exact(reference)
    for scored in staged:
        assert scored.interpretation.confidence == 1.0
        assert not scored.interpretation.has_hints


@given(words=st.lists(st.sampled_from(
    [w for w in KEYWORDS if w != "qqqzz"]), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_full_chain_is_identity_on_value_queries(aw_online,
                                                 online_session, words):
    """Fallback semantics: when every keyword value-matches, enabling
    metadata+pattern changes nothing."""
    query = " ".join(words)
    index = online_session.index

    value_only, _ = interpret_query(
        aw_online, index, query, DEFAULT_CONFIG, matchers=("value",),
        chain=online_session.chain)
    full_chain, report = interpret_query(
        aw_online, index, query, DEFAULT_CONFIG,
        chain=online_session.chain)

    if report.counters["value.accepted"] == len(set(
            report.keywords) - set(report.skipped)):
        assert _shape(rank_interpretations(full_chain)) == \
            _shape(rank_interpretations(value_only))


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_differentiate_previews_agree_across_backends(aw_online,
                                                      backend):
    """The refactored differentiate (sizes included) is backend-stable."""
    with KdapSession(aw_online, backend=backend) as session:
        ranked = session.differentiate("France Touring",
                                       preview_sizes=True)
        assert ranked
        baseline = [(str(s.star_net), round(s.score, 9),
                     s.subspace_size) for s in ranked]
    with KdapSession(aw_online, backend="memory") as session:
        ranked = session.differentiate("France Touring",
                                       preview_sizes=True)
        assert [(str(s.star_net), round(s.score, 9), s.subspace_size)
                for s in ranked] == baseline
