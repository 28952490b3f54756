"""The memory backend's one grouped-aggregate kernel: parity,
determinism, budgets and concurrent callers.

Every keyed aggregate, one branch or several, runs
:func:`~repro.relational.operators.chunked_group_states` over the
schema's encoded fact chunks, at any row count — so the tests need no
size thresholds, and one large-star case checks the budget contract
past the row count where a parallel path used to take over.
"""

import sys
import threading

import pytest

from repro.datasets import build_scale
from repro.plan.backends import InMemoryBackend, SqliteBackend
from repro.plan.builders import (
    keyed_aggregate,
    multi_partition_plan,
    ray_filter,
)
from repro.plan.nodes import Scan
from repro.relational.chunks import CHUNK_SIZE
from repro.relational.errors import BudgetExceeded
from repro.resilience.budget import Budget, budget_scope

FACTS = 20_000
LARGE_FACTS = 140_000
"""More fact rows than one aggregate ever ran serially before the
kernel was unified (131 072)."""


@pytest.fixture(scope="module")
def scale():
    return build_scale(num_facts=FACTS, seed=11, num_days=200)


def month_sum_plan(scale):
    gb = scale.groupby_attribute("DimDate", "MonthName")
    return multi_partition_plan(scale, range(scale.num_fact_rows), [gb],
                                scale.measures["revenue"])


def groups_of(result: dict) -> dict:
    """The value → aggregate dict of a one-branch result."""
    (groups,) = result.values()
    return groups


def two_key_plan(scale, rows):
    gbs = [scale.groupby_attribute("DimDate", "MonthName"),
           scale.groupby_attribute("DimProduct", "Color")]
    return multi_partition_plan(scale, rows, gbs, scale.measures["revenue"])


def date_window(scale, low: int, high: int):
    """A DimDate ray keeping the facts dated ``low <= DateKey < high``
    (the facts are clustered on DateKey, so zone maps can skip)."""
    days = [key for key in
            scale.database.table("DimDate").column_values("DateKey")
            if low <= key < high]
    path = scale.groupby_attribute("DimDate", "MonthName").path_from_fact
    return ray_filter(Scan(scale.fact_table), "DimDate", "DateKey", days,
                      path.reversed())


def approx_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        b[k] == pytest.approx(a[k], rel=1e-9) for k in a)


class TestParity:
    def test_single_key_matches_sqlite(self, scale):
        plan = month_sum_plan(scale)
        memory = groups_of(InMemoryBackend(scale).execute(plan))
        with SqliteBackend(scale) as sqlite:
            assert approx_equal(groups_of(sqlite.execute(plan)), memory)

    def test_filtered_scan_matches_sqlite(self, scale):
        gb = scale.groupby_attribute("DimProduct", "Color")
        source = date_window(scale, 20030301, 20030501)
        plan = keyed_aggregate(source, [(gb,)], scale.measures["revenue"])
        memory = groups_of(InMemoryBackend(scale).execute(plan))
        assert memory, "the date window must select rows"
        with SqliteBackend(scale) as sqlite:
            assert approx_equal(groups_of(sqlite.execute(plan)), memory)

    def test_multi_aggregate_matches_sqlite(self, scale):
        # a strided selection: partial chunks take the per-row loop
        plan = two_key_plan(scale, range(0, FACTS, 3))
        memory = InMemoryBackend(scale).execute(plan)
        with SqliteBackend(scale) as sqlite:
            expected = sqlite.execute(plan)
        assert memory.keys() == expected.keys()    # one entry per key
        assert len(memory) == 2
        for fingerprint, groups in expected.items():
            assert approx_equal(groups, memory[fingerprint])


class TestDeterminism:
    @pytest.mark.parametrize("shape", ["single", "multi"])
    def test_run_to_run_deterministic(self, scale, shape):
        plan = (month_sum_plan(scale) if shape == "single"
                else two_key_plan(scale, range(FACTS)))
        first = InMemoryBackend(scale).execute(plan)
        for backend in (InMemoryBackend(scale), InMemoryBackend(scale)):
            for _ in range(2):
                again = backend.execute(plan)
                # same values, bit for bit, and the same group insertion
                # order on every run and every backend instance
                assert again == first
                assert list(again) == list(first)
                for fingerprint, groups in first.items():
                    assert list(again[fingerprint]) == list(groups)


class TestCountersAndBudget:
    def test_aggregate_counts_chunks_as_batches(self, scale):
        backend = InMemoryBackend(scale)
        backend.execute(month_sum_plan(scale))
        stats = backend.counters.as_dict()["MultiGroupAggregate"]
        assert stats["batches"] == -(-FACTS // CHUNK_SIZE)  # one per chunk
        # scan counters stay with the row-producing operators
        assert stats["chunks_scanned"] == 0
        assert "morsels" not in stats

    def test_zone_maps_skip_chunks_in_selective_filter(self, scale):
        gb = scale.groupby_attribute("DimDate", "MonthName")
        source = date_window(scale, 20030310, 20030320)
        plan = keyed_aggregate(source, [(gb,)], scale.measures["revenue"])
        backend = InMemoryBackend(scale)
        result = groups_of(backend.execute(plan))
        assert result, "the ten-day window must select rows"
        stats = backend.counters.as_dict()["Filter"]
        assert stats["chunks_skipped"] > 0

    def test_row_budget_truncates_aggregate(self, scale):
        plan = month_sum_plan(scale)
        backend = InMemoryBackend(scale)
        backend.execute(plan)    # warm caches outside the budget
        with budget_scope(Budget(max_rows=FACTS // 2)):
            with pytest.raises(BudgetExceeded) as excinfo:
                backend.execute(plan)
        assert excinfo.value.reason == "rows"

    def test_group_budget_counts_groups_once(self, scale):
        plan = month_sum_plan(scale)
        backend = InMemoryBackend(scale)
        groups = len(groups_of(backend.execute(plan)))
        # a budget admitting the true group count passes; one fewer fails
        with budget_scope(Budget(max_groups=groups)):
            assert len(groups_of(backend.execute(plan))) == groups
        with budget_scope(Budget(max_groups=groups - 1)):
            with pytest.raises(BudgetExceeded):
                backend.execute(plan)


def test_row_budget_admits_full_scan_of_exactly_n_rows():
    """The aggregate charges no rows of its own: a full-scan aggregate
    over N facts fits ``max_rows=N`` at any N (the scan pays them)."""
    large = build_scale(num_facts=LARGE_FACTS, seed=5, num_days=200)
    backend = InMemoryBackend(large)
    for plan in (month_sum_plan(large),
                 two_key_plan(large, range(LARGE_FACTS))):
        expected = backend.execute(plan)
        budget = Budget(max_rows=LARGE_FACTS)
        with budget_scope(budget):
            assert backend.execute(plan) == expected
        assert budget.rows_scanned == LARGE_FACTS


class TestThreadSafety:
    def test_concurrent_queries_on_shared_backend(self, scale):
        """Concurrent callers on one backend: the schema chunk cache and
        the counters must tolerate the cross traffic and every caller
        must see the same answer."""
        plan = month_sum_plan(scale)
        backend = InMemoryBackend(scale)
        expected = backend.execute(plan)
        errors: list[BaseException] = []

        def caller() -> None:
            try:
                for _ in range(5):
                    assert backend.execute(plan) == expected
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_backends_share_the_schema_measure_vector(self):
        """Worker sessions each own a backend over one schema; their
        measure values come from the schema's one lock-guarded cache.
        Concurrent cold fills must agree, and afterwards name-based and
        plan-based callers hold the same list."""
        schema = build_scale(num_facts=3000, seed=5)
        plan = month_sum_plan(schema)
        expected = InMemoryBackend(build_scale(num_facts=3000, seed=5)) \
            .execute(plan)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                backend = InMemoryBackend(schema)
                for _ in range(5):
                    assert backend.execute(plan) == expected
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert schema.measure_vector("revenue") is schema.expression_vector(
            plan.measure_sql, plan.measure_expr)
