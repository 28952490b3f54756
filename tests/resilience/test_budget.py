"""Budget/deadline semantics and the ambient budget scope."""

import pytest

from repro.relational.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    ResourceExhausted,
)
from repro.resilience import (
    Budget,
    Diagnostics,
    budget_scope,
    charge_groups,
    charge_rows,
    check_deadline,
    current_budget,
)


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


class TestDeadline:
    def test_within_deadline_passes(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=100, clock=clock)
        clock.advance_ms(99)
        budget.check_deadline("stage")  # no raise

    def test_past_deadline_raises_typed_error(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=100, clock=clock)
        clock.advance_ms(150)
        with pytest.raises(DeadlineExceeded) as err:
            budget.check_deadline("scan")
        assert err.value.stage == "scan"
        assert err.value.reason == "deadline"
        assert isinstance(err.value, ResourceExhausted)

    def test_no_deadline_never_raises(self):
        budget = Budget()
        budget.check_deadline()
        assert budget.remaining_ms() is None

    def test_remaining_and_elapsed(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=100, clock=clock)
        clock.advance_ms(40)
        assert budget.elapsed_ms() == pytest.approx(40)
        assert budget.remaining_ms() == pytest.approx(60)


class TestCharges:
    def test_rows_within_budget(self):
        budget = Budget(max_rows=10)
        budget.charge_rows(4)
        budget.charge_rows(6)
        assert budget.rows_scanned == 10

    def test_rows_over_budget_raises(self):
        budget = Budget(max_rows=10)
        budget.charge_rows(8)
        with pytest.raises(BudgetExceeded) as err:
            budget.charge_rows(3, "Filter")
        assert err.value.reason == "rows"
        assert err.value.stage == "Filter"

    def test_groups_over_budget_raises(self):
        budget = Budget(max_groups=2)
        with pytest.raises(BudgetExceeded) as err:
            budget.charge_groups(3)
        assert err.value.reason == "groups"

    def test_interpretations_over_budget_raises(self):
        budget = Budget(max_interpretations=2)
        budget.charge_interpretations()
        budget.charge_interpretations()
        with pytest.raises(BudgetExceeded) as err:
            budget.charge_interpretations()
        assert err.value.reason == "interpretations"

    def test_unlimited_budget_charges_freely(self):
        budget = Budget()
        budget.charge_rows(10**9)
        budget.charge_groups(10**9)
        budget.charge_interpretations(10**9)
        assert not budget.truncated


class TestScope:
    def test_scope_installs_and_resets(self):
        assert current_budget() is None
        budget = Budget(max_rows=1)
        with budget_scope(budget):
            assert current_budget() is budget
        assert current_budget() is None

    def test_none_scope_is_a_noop(self):
        with budget_scope(None):
            assert current_budget() is None

    def test_scope_resets_after_error(self):
        budget = Budget(max_rows=0)
        with pytest.raises(BudgetExceeded):
            with budget_scope(budget):
                charge_rows(1)
        assert current_budget() is None

    def test_helpers_noop_without_budget(self):
        check_deadline("anywhere")
        charge_rows(10**9)
        charge_groups(10**9)

    def test_helpers_charge_ambient_budget(self):
        budget = Budget(max_rows=5)
        with budget_scope(budget):
            charge_rows(3)
            with pytest.raises(BudgetExceeded):
                charge_rows(3)
        assert budget.rows_scanned == 6

    def test_helpers_check_deadline_first(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=10, clock=clock)
        clock.advance_ms(20)
        with budget_scope(budget):
            with pytest.raises(DeadlineExceeded):
                charge_rows(1)


class TestDiagnostics:
    def test_truncations_accumulate(self):
        budget = Budget(max_rows=1)
        assert not budget.truncated
        budget.record_truncation("generation", "rows", "stopped at 3")
        assert budget.truncated
        assert budget.events[0].stage == "generation"

    def test_snapshot_round_trip(self):
        clock = FakeClock()
        budget = Budget(deadline_ms=500, max_rows=100, clock=clock)
        budget.charge_rows(7)
        budget.charge_groups(2)
        budget.charge_interpretations(3)
        budget.record_truncation("facet:Customer", "deadline")
        clock.advance_ms(42)
        diag = Diagnostics.from_budget(budget)
        assert diag.partial
        assert diag.rows_scanned == 7
        assert diag.groups_seen == 2
        assert diag.interpretations == 3
        assert diag.elapsed_ms == pytest.approx(42)
        payload = diag.as_dict()
        assert payload["limits"] == {"deadline_ms": 500, "max_rows": 100}
        assert payload["truncations"][0]["stage"] == "facet:Customer"
        lines = diag.describe()
        assert any("facet:Customer" in line for line in lines)

    def test_clean_budget_is_not_partial(self):
        diag = Diagnostics.from_budget(Budget(max_rows=10))
        assert not diag.partial
        assert diag.truncations == ()
