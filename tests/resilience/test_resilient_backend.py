"""Retry-with-backoff and failover behavior of ResilientBackend."""

import pytest

from repro.core import KdapSession
from repro.obs import MetricsRegistry, metrics_scope
from repro.plan import InMemoryBackend, PlanCounters, SqliteBackend
from repro.relational.errors import (
    BackendUnavailableError,
    SchemaError,
    TransientBackendError,
)
from repro.resilience import (
    Budget,
    FaultInjectingBackend,
    ResilientBackend,
    RetryPolicy,
    budget_scope,
    create_resilient_backend,
)

from ..counts import resilience_counts


@pytest.fixture
def registry():
    """A fresh metrics registry, ambient for the test's backend calls."""
    with metrics_scope(MetricsRegistry()) as installed:
        yield installed


class FlakyBackend:
    """Fails the first ``failures`` calls, then succeeds forever."""

    name = "flaky"

    def __init__(self, failures: int, result=(1, 2)):
        self.counters = PlanCounters()
        self.failures = failures
        self.calls = 0
        self.result = result
        self.closed = False

    def materialize(self, plan):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError(f"flaky call {self.calls}")
        return self.result

    def execute(self, plan):
        return self.materialize(plan)

    def close(self):
        self.closed = True


class BrokenBackend:
    """Always fails."""

    name = "broken"

    def __init__(self, error=TransientBackendError("down")):
        self.counters = PlanCounters()
        self.calls = 0
        self.error = error
        self.closed = False

    def materialize(self, plan):
        self.calls += 1
        raise self.error

    def execute(self, plan):
        return self.materialize(plan)

    def close(self):
        self.closed = True


class GoodBackend:
    name = "good"

    def __init__(self, result=(7,)):
        self.counters = PlanCounters()
        self.calls = 0
        self.result = result
        self.closed = False

    def materialize(self, plan):
        self.calls += 1
        return self.result

    def execute(self, plan):
        return self.materialize(plan)

    def close(self):
        self.closed = True


NO_SLEEP = lambda s: None  # noqa: E731


class TestRetry:
    def test_transient_error_is_retried_to_success(self, registry):
        primary = FlakyBackend(failures=2)
        backend = ResilientBackend(primary, sleep=NO_SLEEP)
        assert backend.materialize(None) == (1, 2)
        assert primary.calls == 3
        stats = resilience_counts(registry)
        assert stats["retries"] == 2
        assert stats["failovers"] == 0
        assert stats["transient_errors"] == 2
        assert stats["errors_by_type"] == {"TransientBackendError": 2}
        assert backend.last_error == "TransientBackendError: flaky call 2"

    def test_backoff_is_exponential(self):
        naps = []
        primary = FlakyBackend(failures=3)
        backend = ResilientBackend(
            primary,
            policy=RetryPolicy(max_attempts=4, base_delay_s=0.01),
            sleep=naps.append)
        backend.materialize(None)
        assert naps == pytest.approx([0.01, 0.02, 0.04])

    def test_non_transient_error_propagates_immediately(self, registry):
        primary = BrokenBackend(error=SchemaError("bad plan"))
        backend = ResilientBackend(primary, fallback=GoodBackend(),
                                   sleep=NO_SLEEP)
        with pytest.raises(SchemaError):
            backend.materialize(None)
        assert primary.calls == 1
        assert resilience_counts(registry)["retries"] == 0

    def test_exhausted_retries_without_fallback_raise(self):
        primary = BrokenBackend()
        backend = ResilientBackend(primary, sleep=NO_SLEEP)
        with pytest.raises(BackendUnavailableError):
            backend.materialize(None)
        assert primary.calls == 3  # default max_attempts

    def test_deadline_cuts_backoff_short(self):
        primary = BrokenBackend()
        naps = []
        backend = ResilientBackend(primary, sleep=naps.append)
        expired = Budget(deadline_ms=0)
        with budget_scope(expired):
            with pytest.raises(BackendUnavailableError):
                backend.materialize(None)
        # no time to back off: a single attempt, no sleeps
        assert naps == []
        assert primary.calls == 1


class TestFailover:
    def test_failover_serves_from_fallback(self, registry):
        primary = BrokenBackend()
        fallback = GoodBackend()
        backend = ResilientBackend(primary, fallback=fallback,
                                   sleep=NO_SLEEP)
        assert backend.materialize(None) == (7,)
        assert resilience_counts(registry)["failovers"] == 1
        assert backend.name == "resilient(good)"

    def test_after_failover_primary_is_never_retried(self, registry):
        primary = BrokenBackend()
        fallback = GoodBackend()
        backend = ResilientBackend(primary, fallback=fallback,
                                   sleep=NO_SLEEP)
        backend.materialize(None)
        calls_after_failover = primary.calls
        backend.materialize(None)
        backend.execute(None)
        assert primary.calls == calls_after_failover
        assert fallback.calls == 3
        assert resilience_counts(registry)["failovers"] == 1

    def test_lazy_fallback_factory(self, registry):
        built = []

        def factory():
            built.append(True)
            return GoodBackend()

        backend = ResilientBackend(FlakyBackend(failures=1),
                                   fallback=factory, sleep=NO_SLEEP)
        backend.materialize(None)  # retry succeeds on the primary
        assert built == []
        assert resilience_counts(registry)["failovers"] == 0

    def test_failing_fallback_raises_unavailable(self):
        backend = ResilientBackend(BrokenBackend(),
                                   fallback=BrokenBackend(),
                                   sleep=NO_SLEEP)
        with pytest.raises(BackendUnavailableError):
            backend.execute(None)

    def test_close_is_idempotent_and_closes_both(self):
        primary = BrokenBackend()
        fallback = GoodBackend()
        backend = ResilientBackend(primary, fallback=fallback,
                                   sleep=NO_SLEEP)
        backend.materialize(None)
        backend.close()
        backend.close()
        assert primary.closed and fallback.closed


class TestWarehouseIntegration:
    def test_sqlite_to_memory_failover_preserves_results(self, ebiz):
        """The acid test: a sqlite primary that dies mid-session fails
        over to memory and the explore result is identical."""
        with KdapSession(ebiz) as plain:
            ranked = plain.differentiate("Columbus", limit=1)
            net = ranked[0].star_net
            expected = plain.explore(net)

        primary = FaultInjectingBackend(SqliteBackend(ebiz),
                                        error_rate=1.0, seed=5)
        resilient = ResilientBackend(
            primary, fallback=lambda: InMemoryBackend(ebiz),
            sleep=NO_SLEEP)
        with KdapSession(ebiz, backend=resilient) as session:
            result = session.explore(net)
            assert resilience_counts(session.metrics)["failovers"] == 1
            assert result.subspace.fact_rows == expected.subspace.fact_rows
            assert result.total_aggregate == expected.total_aggregate
            assert result.interface.facets == expected.interface.facets

    def test_create_resilient_backend_ladder(self, ebiz):
        backend = create_resilient_backend(ebiz, "sqlite", sleep=NO_SLEEP)
        assert backend.name == "resilient(sqlite)"
        assert backend._fallback_source is not None
        memory_only = create_resilient_backend(ebiz, "memory",
                                               sleep=NO_SLEEP)
        assert memory_only._fallback_source is None
        backend.close()
        memory_only.close()
