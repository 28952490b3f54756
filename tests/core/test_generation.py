"""Candidate star-net generation (Algorithm 1) through the paper's
value-only front end."""


from repro.core import (
    DEFAULT_CONFIG,
    GenerationConfig,
    interpret_query,
    split_keywords,
    valid_ray_paths,
)


def value_nets(session, query, config=DEFAULT_CONFIG):
    """The star nets of the value-only front end, in enumeration order."""
    interpretations, _report = interpret_query(
        session.schema, session.index, query, config,
        matchers=("value",), chain=session.chain)
    return [i.star_net for i in interpretations]


class TestSplitKeywords:
    def test_basic(self):
        assert split_keywords("Columbus LCD") == ["Columbus", "LCD"]

    def test_extra_whitespace(self):
        assert split_keywords("  a   b ") == ["a", "b"]

    def test_empty(self):
        assert split_keywords("") == []


class TestValidRayPaths:
    def test_fact_table_hit_is_empty_path(self, ebiz):
        options = valid_ray_paths(ebiz, "TRANSITEM", 5)
        assert len(options) == 1
        path, dim = options[0]
        assert not path.steps and dim is None

    def test_shared_table_has_multiple_dimensions(self, ebiz):
        options = valid_ray_paths(ebiz, "LOCATION", 5)
        dims = [dim for _p, dim in options]
        assert dims.count("Customer") == 2  # buyer + seller
        assert dims.count("Store") == 1

    def test_paths_end_at_fact(self, ebiz):
        for path, _dim in valid_ray_paths(ebiz, "PGROUP", 5):
            assert path.target == "TRANSITEM"

    def test_cross_dimension_paths_rejected(self, ebiz):
        # every returned path must be attributable to a single dimension
        for _path, dim in valid_ray_paths(ebiz, "LOCATION", 6):
            assert dim in ("Customer", "Store")


class TestSeeds:
    def test_one_seed_per_hit_group_combo(self, ebiz_session):
        nets = value_nets(ebiz_session, "Columbus")
        domains = {n.hit_groups[0].domain for n in nets}
        assert ("LOCATION", "City") in domains
        assert ("HOLIDAY", "Event") in domains

    def test_phrase_merge_applied(self, ebiz_session):
        nets = value_nets(ebiz_session, "San Jose")
        merged = [n for n in nets if n.size == 1
                  and n.hit_groups[0].values == ("San Jose",)]
        assert merged

    def test_unmatched_keyword_fails_query(self, ebiz_session):
        assert value_nets(ebiz_session, "Columbus qqqqzz") == []

    def test_stopword_keywords_skipped(self, ebiz_session):
        with_stop = value_nets(ebiz_session, "the Columbus")
        without = value_nets(ebiz_session, "Columbus")
        assert {tuple(g.domain for g in n.hit_groups) for n in with_stop} \
            == {tuple(g.domain for g in n.hit_groups) for n in without}

    def test_hits_rescored_against_full_query(self, ebiz_session):
        nets = value_nets(ebiz_session, "Columbus LCD")
        assert nets
        for net in nets:
            for group in net.hit_groups:
                for hit in group.hits:
                    assert hit.retrieval_score is not None


class TestCandidates:
    def test_columbus_lcd_interpretations(self, ebiz_session):
        """Example 3.1: the ambiguity fan-out is fully enumerated."""
        candidates = value_nets(ebiz_session, "Columbus LCD")
        city_paths = {
            c.rays[0].path_to_fact.fk_names
            for c in candidates
            if c.rays[0].hit_group.domain == ("LOCATION", "City")
        }
        # store, buyer, and seller routes must all appear
        assert ("fk_store_loc", "fk_trans_store", "fk_item_trans") \
            in {tuple(reversed(p)) for p in city_paths} or \
            any("fk_trans_store" in p for p in city_paths)
        assert any("fk_trans_buyer" in p for p in city_paths)
        assert any("fk_trans_seller" in p for p in city_paths)

    def test_every_candidate_contains_fact(self, ebiz_session):
        candidates = value_nets(ebiz_session, "Columbus LCD")
        for candidate in candidates:
            assert candidate.fact_table == "TRANSITEM"
            for ray in candidate.rays:
                if ray.path_to_fact.steps:
                    assert ray.path_to_fact.target == "TRANSITEM"

    def test_candidates_unique(self, ebiz_session):
        candidates = value_nets(ebiz_session, "Columbus LCD")
        keys = [
            tuple(sorted((r.hit_group.domain, r.hit_group.values,
                          r.path_to_fact.fk_names) for r in c.rays))
            for c in candidates
        ]
        assert len(keys) == len(set(keys))

    def test_max_candidates_cap(self, ebiz_session):
        config = GenerationConfig(max_candidates=3)
        candidates = value_nets(ebiz_session, "Columbus LCD", config)
        assert len(candidates) == 3

    def test_no_hits_no_candidates(self, ebiz_session):
        assert value_nets(ebiz_session, "qqqqzz") == []
