"""Resource budgets and deadlines, checked cooperatively across the engine.

A :class:`Budget` bounds one query's work by contract rather than by
luck: a wall-clock deadline plus caps on rows scanned, groups built, and
interpretations enumerated.  The budget is *ambient* — installed with
:func:`budget_scope`, read with :func:`current_budget` — so deep layers
(backend operator loops, star-net enumeration, facet building) can check
it without every call signature threading a budget through.

Checks are cooperative and operator-grained: each charge either succeeds
or raises a typed :class:`~repro.relational.errors.BudgetExceeded` /
:class:`~repro.relational.errors.DeadlineExceeded`.  Layers that can
degrade gracefully catch the error at their own loop boundary, record a
:class:`~repro.resilience.diagnostics.TruncationEvent` via
:meth:`Budget.record_truncation`, and return what they have; anything
escaping to :class:`~repro.core.session.KdapSession` is converted into a
partial result there.

The module-level helpers (:func:`check_deadline`, :func:`charge_rows`,
:func:`charge_groups`) are no-ops when no budget is active, so the
unbudgeted hot path pays one context-variable read per operator.

Scopes **nest safely**: entering a scope while another budget is already
ambient (a per-request budget inside a process-level ceiling, as the
service layer does) clamps the inner budget to the *minimum* of the two
contracts — its deadline cannot outlive the outer scope's remaining
time, and its row/group/interpretation caps cannot exceed the outer
scope's remaining allowance.  On exit the outer budget absorbs the inner
scope's consumption and truncation events, so sibling request scopes
draw down one shared outer pool.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from ..obs.metrics import current_registry
from ..relational.errors import BudgetExceeded, DeadlineExceeded
from .diagnostics import TruncationEvent

_ACTIVE: ContextVar["Budget | None"] = ContextVar("kdap_budget",
                                                  default=None)


class Budget:
    """Consumable resource limits for one query (all limits optional).

    Parameters
    ----------
    deadline_ms:
        Wall-clock deadline, measured from construction.
    max_rows:
        Cap on rows produced by plan operators (work done, not result
        size: a row flowing through two operators counts twice).
    max_groups:
        Cap on groups built by partition/aggregate operators.
    max_interpretations:
        Cap on candidate star nets enumerated during differentiation.
    clock:
        Injectable monotonic clock (tests pin time).
    """

    def __init__(self, deadline_ms: float | None = None,
                 max_rows: int | None = None,
                 max_groups: int | None = None,
                 max_interpretations: int | None = None,
                 clock=time.monotonic):
        self.deadline_ms = deadline_ms
        self.max_rows = max_rows
        self.max_groups = max_groups
        self.max_interpretations = max_interpretations
        self._clock = clock
        self._started = clock()
        # a budget handed to several threads must not over-admit:
        # charges stay read-check atomic
        self._lock = threading.Lock()
        self.rows_scanned = 0
        self.groups_seen = 0
        self.interpretations = 0
        self.events: list[TruncationEvent] = []
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> float | None:
        """Milliseconds until the deadline (None without one)."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms - self.elapsed_ms()

    def check_deadline(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` once the deadline has passed."""
        remaining = self.remaining_ms()
        if remaining is not None and remaining < 0:
            raise DeadlineExceeded(
                f"deadline of {self.deadline_ms:g} ms exceeded "
                f"({self.elapsed_ms():.0f} ms elapsed)", stage=stage)

    # ------------------------------------------------------------------
    # consumable charges
    # ------------------------------------------------------------------
    def charge_rows(self, rows: int, stage: str = "scan") -> None:
        """Count operator output rows; raise once over ``max_rows``."""
        with self._lock:
            self.rows_scanned += rows
            over = (self.max_rows is not None
                    and self.rows_scanned > self.max_rows)
            scanned = self.rows_scanned
        if over:
            raise BudgetExceeded(
                f"row budget of {self.max_rows} exceeded "
                f"({scanned} rows scanned)",
                stage=stage, reason="rows")

    def charge_groups(self, groups: int, stage: str = "aggregate") -> None:
        """Count groups built; raise once over ``max_groups``."""
        with self._lock:
            self.groups_seen += groups
            over = (self.max_groups is not None
                    and self.groups_seen > self.max_groups)
            seen = self.groups_seen
        if over:
            raise BudgetExceeded(
                f"group budget of {self.max_groups} exceeded "
                f"({seen} groups built)",
                stage=stage, reason="groups")

    def charge_interpretations(self, count: int = 1,
                               stage: str = "generation") -> None:
        """Count enumerated candidates; raise once over the cap."""
        with self._lock:
            self.interpretations += count
            over = (self.max_interpretations is not None
                    and self.interpretations > self.max_interpretations)
        if over:
            raise BudgetExceeded(
                f"interpretation budget of {self.max_interpretations} "
                f"exceeded", stage=stage, reason="interpretations")

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def record_truncation(self, stage: str, reason: str,
                          detail: str = "") -> None:
        """Note that ``stage`` gave up work because of ``reason``.

        Every truncation is also counted per cause in the ambient
        metrics registry (``kdap.truncations.<reason>``), so budget and
        deadline degradation shows up in metrics snapshots without
        anyone holding on to the partial result's diagnostics.
        """
        with self._lock:
            self.events.append(TruncationEvent(stage, reason, detail))
        current_registry().counter(f"kdap.truncations.{reason}").inc()

    def add_note(self, note: str) -> None:
        """Attach an informational diagnostics note (non-fatal, does not
        mark the result partial): e.g. a keyword no matcher accepted.
        Duplicate notes collapse."""
        with self._lock:
            if note not in self.notes:
                self.notes.append(note)

    @property
    def truncated(self) -> bool:
        """True once any layer recorded a truncation."""
        return bool(self.events)

    # ------------------------------------------------------------------
    # scope nesting
    # ------------------------------------------------------------------
    def clamp_to(self, outer: "Budget") -> None:
        """Tighten this budget to ``outer``'s remaining allowance.

        Called by :func:`budget_scope` when this budget is installed
        inside an already-active scope: every ceiling becomes the
        minimum of what this budget asked for and what the outer
        contract still permits (its deadline's remaining milliseconds;
        its caps minus what it has already consumed).  A nested scope
        can therefore never out-spend the scope it runs inside.
        """
        with outer._lock:
            consumed = (outer.rows_scanned, outer.groups_seen,
                        outer.interpretations)
        self.deadline_ms = _min_limit(self.deadline_ms,
                                      outer.remaining_ms())
        self.max_rows = _min_limit(
            self.max_rows, _remaining(outer.max_rows, consumed[0]))
        self.max_groups = _min_limit(
            self.max_groups, _remaining(outer.max_groups, consumed[1]))
        self.max_interpretations = _min_limit(
            self.max_interpretations,
            _remaining(outer.max_interpretations, consumed[2]))

    def absorb(self, child: "Budget") -> None:
        """Account a nested scope's consumption against this budget.

        Pure bookkeeping — no limit is re-checked here (the child was
        clamped on entry, so it could not have spent more than this
        budget's remaining allowance by more than one charge's
        overshoot).  Truncation events carry over so the outer scope's
        diagnostics describe the whole nested execution.
        """
        with child._lock:
            rows, groups, interps = (child.rows_scanned, child.groups_seen,
                                     child.interpretations)
            events = list(child.events)
            notes = list(child.notes)
        with self._lock:
            self.rows_scanned += rows
            self.groups_seen += groups
            self.interpretations += interps
            self.events.extend(events)
            for note in notes:
                if note not in self.notes:
                    self.notes.append(note)

    def limits(self) -> dict[str, float]:
        """The configured (non-None) limits by name."""
        pairs = {
            "deadline_ms": self.deadline_ms,
            "max_rows": self.max_rows,
            "max_groups": self.max_groups,
            "max_interpretations": self.max_interpretations,
        }
        return {name: value for name, value in pairs.items()
                if value is not None}

    def __repr__(self) -> str:
        limits = ", ".join(f"{k}={v:g}" for k, v in self.limits().items())
        return f"Budget({limits or 'unlimited'})"


def _min_limit(a: float | None, b: float | None) -> float | None:
    """Minimum of two optional ceilings (None = unlimited)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _remaining(limit: int | None, consumed: int) -> int | None:
    """What is left of an optional cap after ``consumed`` charges."""
    return None if limit is None else limit - consumed


# ----------------------------------------------------------------------
# ambient scope
# ----------------------------------------------------------------------
@contextmanager
def budget_scope(budget: Budget | None):
    """Install ``budget`` as the ambient budget for the duration.

    ``None`` is accepted (and installs nothing) so callers can write one
    ``with budget_scope(maybe_budget):`` regardless of whether a budget
    was requested.

    When a *different* budget is already ambient, the new budget is
    clamped to the outer one's remaining allowance on entry
    (:meth:`Budget.clamp_to`) and its consumption is absorbed into the
    outer budget on exit (:meth:`Budget.absorb`) — nesting a request
    scope inside a process-level scope takes the minimum of the two
    contracts rather than silently shadowing the outer one.
    Re-installing the budget that is already ambient (the session's
    explore path does this) stays a plain no-op shadow.
    """
    if budget is None:
        yield None
        return
    outer = _ACTIVE.get()
    nested = outer is not None and outer is not budget
    if nested:
        budget.clamp_to(outer)
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)
        if nested:
            outer.absorb(budget)


def current_budget() -> Budget | None:
    """The ambient budget, or None outside any :func:`budget_scope`."""
    return _ACTIVE.get()


def check_deadline(stage: str = "") -> None:
    """Deadline check against the ambient budget (no-op without one)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_deadline(stage)


def charge_rows(rows: int, stage: str = "scan") -> None:
    """Charge rows to the ambient budget (no-op without one)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_deadline(stage)
        budget.charge_rows(rows, stage)


def charge_groups(groups: int, stage: str = "aggregate") -> None:
    """Charge groups to the ambient budget (no-op without one)."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check_deadline(stage)
        budget.charge_groups(groups, stage)
