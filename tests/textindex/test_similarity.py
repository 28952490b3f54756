"""TF-IDF similarity scoring."""


from hypothesis import given, settings, strategies as st

from repro.textindex import DEFAULT_SIMILARITY, Similarity


class TestComponents:
    def test_tf_sqrt(self):
        assert DEFAULT_SIMILARITY.tf(4) == 2.0

    def test_idf_decreases_with_df(self):
        sim = DEFAULT_SIMILARITY
        assert sim.idf(1, 100) > sim.idf(50, 100)

    def test_length_norm(self):
        assert DEFAULT_SIMILARITY.length_norm(4) == 0.5

    def test_length_norm_disabled(self):
        sim = Similarity(use_length_norm=False)
        assert sim.length_norm(4) == 1.0

    def test_coord(self):
        assert DEFAULT_SIMILARITY.coord(1, 2) == 0.5
        assert DEFAULT_SIMILARITY.coord(2, 2) == 1.0

    def test_coord_disabled(self):
        assert Similarity(use_coord=False).coord(1, 2) == 1.0


class TestScore:
    def score(self, term_freqs, doc_len, terms, dfs, n=100):
        return DEFAULT_SIMILARITY.score(term_freqs, doc_len, terms, dfs, n)

    def test_no_match_is_zero(self):
        assert self.score({}, 3, ["a"], {"a": 1}) == 0.0

    def test_full_match_beats_partial(self):
        dfs = {"san": 5, "jose": 5}
        full = self.score({"san": 1, "jose": 1}, 2, ["san", "jose"], dfs)
        partial = self.score({"san": 1}, 2, ["san", "jose"], dfs)
        assert full > partial

    def test_rare_term_beats_common(self):
        rare = self.score({"t": 1}, 1, ["t"], {"t": 1})
        common = self.score({"t": 1}, 1, ["t"], {"t": 50})
        assert rare > common

    def test_short_doc_beats_long(self):
        dfs = {"t": 5}
        short = self.score({"t": 1}, 1, ["t"], dfs)
        long_ = self.score({"t": 1}, 9, ["t"], dfs)
        assert short > long_

    def test_empty_query(self):
        assert self.score({"a": 1}, 1, [], {}) == 0.0

    def test_repeated_query_term_counts_per_occurrence(self):
        # Lucene clause semantics: "t t" is two matching clauses, so it
        # scores twice "t" — coord stays 2/2, not 2/1
        once = self.score({"t": 1}, 3, ["t"], {"t": 4})
        twice = self.score({"t": 1}, 3, ["t", "t"], {"t": 4})
        assert twice == 2 * once

    def test_repeated_term_with_a_miss(self):
        dfs = {"t": 4, "u": 4}
        base = self.score({"t": 1}, 3, ["t"], dfs)
        assert self.score({"t": 1}, 3, ["t", "t", "u"], dfs) == \
            2 * base * (2 / 3)


class TestProperties:
    @given(freq=st.integers(1, 20), doc_len=st.integers(1, 50),
           df=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_score_positive_on_match(self, freq, doc_len, df):
        score = DEFAULT_SIMILARITY.score(
            {"t": freq}, doc_len, ["t"], {"t": df}, 100)
        assert score > 0.0

    @given(query=st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
           freqs=st.dictionaries(st.sampled_from("abcde"),
                                 st.integers(1, 5)),
           doc_len=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_coord_never_exceeds_one(self, query, freqs, doc_len):
        dfs = {t: 3 for t in "abcde"}
        with_coord = DEFAULT_SIMILARITY.score(freqs, doc_len, query, dfs, 100)
        without = Similarity(use_coord=False).score(freqs, doc_len, query,
                                                    dfs, 100)
        assert with_coord <= without

    @given(freq=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_tf(self, freq):
        low = DEFAULT_SIMILARITY.score({"t": freq}, 10, ["t"], {"t": 3}, 100)
        high = DEFAULT_SIMILARITY.score({"t": freq + 1}, 10, ["t"],
                                        {"t": 3}, 100)
        assert high > low
