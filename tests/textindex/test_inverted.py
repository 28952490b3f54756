"""Inverted index: postings, statistics, phrase matching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.textindex import DEFAULT_ANALYZER, InvertedIndex


def make_index(*docs):
    index = InvertedIndex()
    for doc in docs:
        index.add_document(doc.split())
    return index


class TestConstruction:
    def test_doc_ids_sequential(self):
        index = InvertedIndex()
        assert index.add_document(["a"]) == 0
        assert index.add_document(["b"]) == 1
        assert index.num_docs == 2

    def test_doc_length(self):
        index = make_index("a b c", "a")
        assert index.doc_length(0) == 3
        assert index.doc_length(1) == 1

    def test_doc_freq(self):
        index = make_index("a b", "a c", "d")
        assert index.doc_freq("a") == 2
        assert index.doc_freq("d") == 1
        assert index.doc_freq("nope") == 0

    def test_vocabulary(self):
        index = make_index("a b", "b c")
        assert set(index.vocabulary()) == {"a", "b", "c"}


class TestPostings:
    def test_frequency_and_positions(self):
        index = make_index("a b a a")
        posting = index.postings("a")[0]
        assert posting.freq == 3
        assert posting.positions == (0, 2, 3)

    def test_missing_term_empty(self):
        assert make_index("a").postings("z") == []


class TestPrefixExpansion:
    def test_expansion(self):
        index = make_index("mountain", "mount", "motor")
        assert index.expand_prefix("moun") == ["mount", "mountain"]

    def test_limit(self):
        index = make_index(*[f"term{i}" for i in range(60)])
        assert len(index.expand_prefix("term", limit=10)) == 10

    def test_sorted_for_determinism(self):
        index = make_index("zebra", "zeal", "zest")
        assert index.expand_prefix("ze") == ["zeal", "zebra", "zest"]

    def test_sees_terms_added_after_a_lookup(self):
        index = make_index("mountain")
        assert index.expand_prefix("mo") == ["mountain"]
        index.add_document(["motor", "mountain"])
        assert index.expand_prefix("mo") == ["motor", "mountain"]


class TestCandidateDocs:
    def test_or_semantics(self):
        index = make_index("a b", "b c", "d")
        assert index.candidate_docs(["a", "d"]) == {0, 2}

    def test_empty_terms(self):
        assert make_index("a").candidate_docs([]) == set()


class TestTermFreqs:
    def test_per_doc(self):
        index = make_index("a a b", "a")
        assert index.term_freqs(0, ["a", "b", "z"]) == {"a": 2, "b": 1}


    def test_unknown_doc(self):
        assert make_index("a").term_freqs(7, ["a"]) == {}


class TestPhraseMatch:
    def test_contiguous(self):
        index = make_index("san jose metal plate")
        assert index.phrase_match(0, ["san", "jose"])
        assert index.phrase_match(0, ["metal", "plate"])

    def test_non_contiguous_rejected(self):
        index = make_index("san antonio jose")
        assert not index.phrase_match(0, ["san", "jose"])

    def test_single_term(self):
        index = make_index("alpha beta")
        assert index.phrase_match(0, ["beta"])

    def test_missing_term(self):
        index = make_index("alpha beta")
        assert not index.phrase_match(0, ["beta", "gamma"])

    def test_empty_phrase(self):
        index = make_index("alpha")
        assert not index.phrase_match(0, [])

    def test_three_term_phrase(self):
        index = make_index("new south wales professional")
        assert index.phrase_match(0, ["new", "south", "wales"])
        assert not index.phrase_match(0, ["south", "new", "wales"])


words = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1,
                 max_size=12)


class TestProperties:
    @given(doc=words, phrase=st.lists(
        st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_phrase_match_iff_sublist(self, doc, phrase):
        index = InvertedIndex()
        doc_id = index.add_document(doc)
        want = any(doc[i:i + len(phrase)] == phrase
                   for i in range(len(doc) - len(phrase) + 1))
        assert index.phrase_match(doc_id, phrase) == want

    @given(doc=words)
    @settings(max_examples=100, deadline=None)
    def test_freqs_sum_to_length(self, doc):
        index = InvertedIndex()
        doc_id = index.add_document(doc)
        freqs = index.term_freqs(doc_id, set(doc))
        assert sum(freqs.values()) == index.doc_length(doc_id)


class TestFuzzyExpansion:
    def test_one_edit_matches(self):
        index = make_index("columbus seattle")
        assert index.expand_fuzzy("colombus") == ["columbus"]

    def test_two_edits_rejected_at_max_one(self):
        index = make_index("columbus")
        assert index.expand_fuzzy("colunbos", max_edits=1) == []

    def test_exact_included(self):
        index = make_index("columbus")
        assert index.expand_fuzzy("columbus") == ["columbus"]

    def test_short_terms_exact_only(self):
        index = make_index("tv tb")
        assert index.expand_fuzzy("tv") == ["tv"]

    def test_insertion_and_deletion(self):
        index = make_index("mountain")
        assert index.expand_fuzzy("mountainn") == ["mountain"]
        assert index.expand_fuzzy("mountan") == ["mountain"]

    def test_limit(self):
        index = make_index(" ".join(f"term{i}" for i in range(10)))
        assert len(index.expand_fuzzy("term0", limit=3)) == 3


# ----------------------------------------------------------------------
# the sorted vocabulary and the per-document term map equal their
# definitions (a scan over every term / every postings list) over the
# whole AdventureWorks vocabulary
# ----------------------------------------------------------------------
def scan_expand_prefix(index, prefix, limit=50):
    return sorted(t for t in index.vocabulary() if t.startswith(prefix))[:limit]


def scan_term_freqs(index, doc_id, terms):
    out = {}
    for term in terms:
        for posting in index.postings(term):
            if posting.doc_id == doc_id:
                out[term] = posting.freq
                break
    return out


@pytest.fixture(scope="module")
def aw_documents(aw_online):
    docs = []
    for table, columns in aw_online.searchable.items():
        for column in columns:
            for value in sorted(aw_online.database.table(table)
                                .distinct(column), key=str):
                if isinstance(value, str) and value:
                    docs.append(DEFAULT_ANALYZER.analyze(value))
    return docs


@pytest.fixture(scope="module")
def aw_index(aw_documents):
    index = InvertedIndex()
    for terms in aw_documents:
        index.add_document(terms)
    return index


class TestOverAdventureWorks:
    def test_every_short_prefix(self, aw_index):
        prefixes = {t[:n] for t in aw_index.vocabulary() for n in (1, 2, 3)}
        prefixes |= {"", "zzz", "~", "0"}
        assert len(prefixes) > 500
        for prefix in prefixes:
            assert aw_index.expand_prefix(prefix) == \
                scan_expand_prefix(aw_index, prefix), prefix

    def test_limit_boundary(self, aw_index):
        for prefix in {t[:1] for t in aw_index.vocabulary()}:
            n = len(scan_expand_prefix(aw_index, prefix, limit=10**6))
            for limit in {0, 1, n - 1, n, n + 1}:
                if limit >= 0:
                    assert aw_index.expand_prefix(prefix, limit) == \
                        scan_expand_prefix(aw_index, prefix, limit)

    def test_term_freqs(self, aw_index, aw_documents):
        extra = ["bike", "road", "zzz"]
        for doc_id, terms in enumerate(aw_documents):
            asked = terms + extra
            assert aw_index.term_freqs(doc_id, asked) == \
                scan_term_freqs(aw_index, doc_id, asked)
