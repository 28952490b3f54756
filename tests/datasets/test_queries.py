"""The Table 3 workload and its relevance machinery."""


from repro.core import HitGroup, Ray, StarNet
from repro.datasets import (
    AW_ONLINE_QUERIES,
    AW_RESELLER_QUERIES,
    BenchmarkQuery,
    Spec,
    is_relevant,
    relevant_rank,
)
from repro.textindex import SearchHit
from repro.warehouse import EMPTY_PATH


def make_net(*domains):
    """A star net whose rays hit the given (table, attr, value) domains."""
    rays = []
    for table, attr, value in domains:
        hit = SearchHit(table, attr, value, 1.0)
        rays.append(Ray(HitGroup(table, attr, (hit,), ("k",)),
                        EMPTY_PATH, None))
    return StarNet("F", tuple(rays))


class TestWorkloadShape:
    def test_fifty_queries(self):
        assert len(AW_ONLINE_QUERIES) == 50

    def test_ids_unique_and_ordered(self):
        ids = [q.qid for q in AW_ONLINE_QUERIES]
        assert ids == list(range(1, 51))

    def test_every_query_has_an_interpretation(self):
        for query in AW_ONLINE_QUERIES:
            assert query.interpretations

    def test_keyword_count_distribution(self):
        """Table 3's queries are 'evenly distributed in terms of the
        number of keywords contained'."""
        lengths = [len(q.text.split()) for q in AW_ONLINE_QUERIES]
        assert min(lengths) == 1
        assert max(lengths) >= 5
        singles = sum(1 for n in lengths if n == 1)
        assert singles >= 8

    def test_reseller_workload_present(self):
        assert len(AW_RESELLER_QUERIES) == 10


class TestRelevance:
    QUERY = BenchmarkQuery(
        99, "test",
        ((Spec("T", "A", "x"), Spec("T", "B")),),
    )

    def test_match(self):
        net = make_net(("T", "A", "x"), ("T", "B", "anything"))
        assert is_relevant(net, self.QUERY)

    def test_order_independent(self):
        net = make_net(("T", "B", "anything"), ("T", "A", "x"))
        assert is_relevant(net, self.QUERY)

    def test_wrong_value(self):
        net = make_net(("T", "A", "y"), ("T", "B", "z"))
        assert not is_relevant(net, self.QUERY)

    def test_wrong_size(self):
        assert not is_relevant(make_net(("T", "A", "x")), self.QUERY)

    def test_same_domain_distinct_values(self):
        query = BenchmarkQuery(
            98, "t", ((Spec("T", "A", "x"), Spec("T", "A", "y")),))
        assert is_relevant(make_net(("T", "A", "x"), ("T", "A", "y")),
                           query)
        assert not is_relevant(make_net(("T", "A", "x"), ("T", "A", "x")),
                               query)

    def test_alternative_interpretations(self):
        query = BenchmarkQuery(
            97, "t",
            ((Spec("T", "A", "x"),), (Spec("T", "B", "y"),)),
        )
        assert is_relevant(make_net(("T", "A", "x")), query)
        assert is_relevant(make_net(("T", "B", "y")), query)
        assert not is_relevant(make_net(("T", "C", "z")), query)

    def test_dimension_constraint(self):
        query = BenchmarkQuery(
            96, "t", ((Spec("T", "A", dimension="Store"),),))
        hit = SearchHit("T", "A", "v", 1.0)
        store_ray = Ray(HitGroup("T", "A", (hit,), ("k",)), EMPTY_PATH,
                        "Store")
        customer_ray = Ray(HitGroup("T", "A", (hit,), ("k",)), EMPTY_PATH,
                           "Customer")
        assert is_relevant(StarNet("F", (store_ray,)), query)
        assert not is_relevant(StarNet("F", (customer_ray,)), query)


class TestRelevantRank:
    def test_rank_found(self):
        from repro.core import Interpretation, ScoredInterpretation
        query = BenchmarkQuery(95, "t", ((Spec("T", "A", "x"),),))
        ranked = [
            ScoredInterpretation(Interpretation(make_net(("T", "B", "y"))),
                                 2.0),
            ScoredInterpretation(Interpretation(make_net(("T", "A", "x"))),
                                 1.0),
        ]
        assert relevant_rank(ranked, query) == 2

    def test_rank_missing(self):
        from repro.core import Interpretation, ScoredInterpretation
        query = BenchmarkQuery(94, "t", ((Spec("T", "A", "x"),),))
        ranked = [ScoredInterpretation(
            Interpretation(make_net(("T", "B", "y"))), 1.0)]
        assert relevant_rank(ranked, query) is None
