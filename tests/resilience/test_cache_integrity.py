"""PlanCache interaction with failures: errors must not poison the cache.

A backend error (or a budget/deadline abort) during evaluation must
leave the cache exactly as it was — no cached partial/None results — and
the hit/miss statistics must stay consistent so observability does not
drift under faults.
"""

import pytest

from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import (
    InMemoryBackend,
    QueryEngine,
    Scan,
    subspace_aggregate_plan,
)
from repro.relational.errors import DeadlineExceeded, TransientBackendError
from repro.resilience import Budget, FaultInjectingBackend, budget_scope

from ..counts import cache_counts


@pytest.fixture()
def engine(ebiz):
    """An engine whose backend fails on exactly its first call."""
    faulty = FaultInjectingBackend(InMemoryBackend(ebiz), fail_calls={1})
    return QueryEngine(ebiz, backend=faulty)


class TestBackendErrors:
    def test_failed_materialize_caches_nothing(self, engine, ebiz):
        plan = Scan(ebiz.fact_table)
        with metrics_scope(MetricsRegistry()) as registry, \
                pytest.raises(TransientBackendError):
            engine.materialize(plan)
        assert len(engine.cache) == 0
        assert cache_counts(registry)["misses"] == 1
        assert cache_counts(registry)["hits"] == 0

    def test_retry_after_failure_caches_cleanly(self, engine, ebiz):
        plan = Scan(ebiz.fact_table)
        with metrics_scope(MetricsRegistry()) as registry:
            with pytest.raises(TransientBackendError):
                engine.materialize(plan)
            rows = engine.materialize(plan)  # call 2 succeeds
            assert rows == tuple(range(ebiz.num_fact_rows))
            assert len(engine.cache) == 1
            # third lookup must be served from cache, not the backend
            backend_calls = engine.backend.calls
            assert engine.materialize(plan) == rows
        assert engine.backend.calls == backend_calls
        assert cache_counts(registry)["hits"] == 1
        assert cache_counts(registry)["misses"] == 2

    def test_failed_execute_caches_nothing(self, engine, ebiz):
        plan = subspace_aggregate_plan(ebiz, (0, 1, 2),
                                       ebiz.measures["revenue"])
        with pytest.raises(TransientBackendError):
            engine.execute(plan)
        assert len(engine.cache) == 0
        value = engine.execute(plan)[()][()]
        assert value == pytest.approx(
            sum(ebiz.measure_vector("revenue")[r] for r in (0, 1, 2)))
        assert len(engine.cache) == 1


class TestBudgetAborts:
    def test_deadline_abort_does_not_poison_cache(self, ebiz):
        engine = QueryEngine(ebiz, backend=InMemoryBackend(ebiz))
        plan = Scan(ebiz.fact_table)
        with budget_scope(Budget(deadline_ms=0)):
            with pytest.raises(DeadlineExceeded):
                engine.materialize(plan)
        assert len(engine.cache) == 0
        # the same plan evaluates cleanly once the deadline pressure ends
        rows = engine.materialize(plan)
        assert len(rows) == ebiz.num_fact_rows
        assert len(engine.cache) == 1

    def test_row_budget_abort_does_not_poison_cache(self, ebiz):
        engine = QueryEngine(ebiz, backend=InMemoryBackend(ebiz))
        plan = Scan(ebiz.fact_table)
        budget = Budget(max_rows=10)
        with budget_scope(budget):
            with pytest.raises(Exception):
                engine.materialize(plan)
        assert len(engine.cache) == 0
        assert engine.materialize(plan)  # clean re-evaluation


class TestFusedPlans:
    """The no-poison invariant extends to fused multi-aggregate plans."""

    def _gbs(self, ebiz):
        return [ebiz.groupby_attribute("PGROUP", "GroupName"),
                ebiz.groupby_attribute("LOCATION", "City")]

    def test_failed_fused_execute_caches_nothing(self, ebiz):
        from repro.plan import multi_partition_plan
        from repro.resilience import FaultInjectingBackend

        faulty = FaultInjectingBackend(InMemoryBackend(ebiz),
                                       fail_calls={1})
        engine = QueryEngine(ebiz, backend=faulty)
        plan = multi_partition_plan(ebiz, (0, 1, 2), self._gbs(ebiz),
                                    ebiz.measures["revenue"])
        with metrics_scope(MetricsRegistry()) as registry:
            with pytest.raises(TransientBackendError):
                engine.execute(plan)
            assert len(engine.cache) == 0
            assert cache_counts(registry)["misses"] == 1
            # the retry caches exactly one clean entry, then serves hits
            result = engine.execute(plan)
            assert len(engine.cache) == 1
            assert engine.execute(plan) == result
        assert cache_counts(registry)["hits"] == 1

    def test_group_budget_abort_leaves_fused_plan_uncached(self, ebiz):
        from repro.relational.errors import BudgetExceeded
        from repro.warehouse import Subspace

        engine = QueryEngine(ebiz, backend=InMemoryBackend(ebiz))
        sub = Subspace.full(ebiz, engine=engine)
        gbs = self._gbs(ebiz)
        with budget_scope(Budget(max_groups=1)):
            with pytest.raises(BudgetExceeded):
                engine.multi_partition_aggregates(sub, gbs, "revenue")
        # nothing cached for the aborted fused plan (child row-set
        # materialisation may legitimately have been cached)
        fresh = QueryEngine(ebiz, backend=InMemoryBackend(ebiz))
        want = fresh.multi_partition_aggregates(
            fresh.bind(sub), gbs, "revenue")
        assert engine.multi_partition_aggregates(sub, gbs, "revenue") == want
