"""Materialized full-space aggregates: lattice answering + append upkeep.

The paper's §7 names aggregation over keyword-selected sub-dataspaces as
the dominant cost and calls for "new specialized techniques optimized
for KDAP".  :class:`MaterializationTier` is the classic OLAP
materialized-view move for the one space every explore revisits: the
whole dataspace, which is the roll-up space of every single-dimension
query.  Keyword-selected subspaces are rarely asked twice, so the tier
holds no views over them; :class:`~repro.plan.engine.QueryEngine`
consults it only for full-space lookups.

* **exact hits** — a materialized ``(group-by, measure)`` view answers
  the identical aggregate from its mergeable states, no scan;
* **lattice roll-up answering** — a miss at a coarser hierarchy level is
  answered by re-aggregating a *finer* materialized view (per-Product
  sums merge into per-Category sums) through the dimension hierarchy's
  child→parent value maps.  Sound only across *functional* steps with no
  NULL child keys, which the tier verifies per step; the derived coarse
  view is registered so the next query is an exact hit;
* **incremental maintenance** — fact tables are append-only, so each
  view keeps a high-water mark of folded rows and folds only the delta
  on refresh (cost ∝ appended rows).  Dimension mutations can re-map
  existing fact rows and fall back to a full rebuild;
* **cost-based admission** — views are not built eagerly: after
  ``admit_after`` fingerprint-distinct misses that share a finer
  ancestor, that ancestor is materialized (one view then serves its
  whole hierarchy upward).  Views are bounded by group-by attributes ×
  measures, so there is no eviction.

Maintenance work (builds, delta folds, rebuilds) deliberately does not
charge the ambient row :class:`~repro.resilience.budget.Budget` — budget
caps bound *query* work, and truncating a half-built view would corrupt
it — but it does honor deadlines cooperatively: an expired deadline
aborts the build into fresh state dicts, leaving existing views intact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from ..obs.metrics import current_registry
from ..plan.builders import attr_key
from ..relational.errors import ResourceExhausted, SchemaError
from ..relational.operators import (
    AGGREGATE_STATES,
    chunked_group_states,
    finalize_group_states,
    merge_group_states,
)
from ..resilience.budget import check_deadline
from .schema import GroupByAttribute, Hierarchy, StarSchema

__all__ = [
    "MaterializationTier",
    "MaterializeStats",
    "MaterializedView",
]

_NULLS_UNKNOWN = -1
"""Sentinel ``null_rows``: a derived view that dropped unmapped children
cannot vouch for its NULL-key rows, so it must not seed further roll-ups."""


@dataclass
class MaterializeStats:
    """Tier-level effectiveness counters (mirrored into the ambient
    metrics registry as ``kdap.materialize.*`` for /v1/statz rollup)."""

    hits: int = 0
    rollup_hits: int = 0
    misses: int = 0
    admitted: int = 0
    refreshes: int = 0
    refreshed_rows: int = 0
    rebuilds: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "rollup_hits": self.rollup_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "admitted": self.admitted,
            "refreshes": self.refreshes,
            "refreshed_rows": self.refreshed_rows,
            "rebuilds": self.rebuilds,
        }


@dataclass
class MaterializedView:
    """One materialized full-space group-by partition with mergeable
    states.

    ``states`` maps each group value to the aggregate's decomposable
    state (see :data:`~repro.relational.operators.AGGREGATE_STATES`;
    avg stores ``[sum, count]``), so views merge upward through the
    lattice and fold append deltas without touching finalized numbers.
    ``hwm_rows`` is the fact-row high-water mark already folded in;
    ``null_rows`` counts rows whose group key resolved to NULL (only a
    view with zero may seed a roll-up).
    """

    gb: GroupByAttribute
    measure_name: str
    aggregate: str
    states: dict
    hwm_rows: int
    null_rows: int
    dim_versions: tuple


class MaterializationTier:
    """Lattice-aware materialized full-space aggregates over one star
    schema.

    Thread-safe: one lock covers lookup, roll-up derivation, admission,
    and maintenance, so the service can share one tier across its
    worker sessions (cheap relative to the scans it avoids).
    """

    def __init__(self, schema: StarSchema, admit_after: int = 2):
        if admit_after < 1:
            raise ValueError("admit_after must be positive")
        self.schema = schema
        self.admit_after = admit_after
        self.stats = MaterializeStats()
        self._lock = threading.RLock()
        self._views: dict[tuple, MaterializedView] = {}
        # admission log: anchor view key -> distinct missed fingerprints
        self._miss_log: dict[tuple, set] = {}

    def __len__(self) -> int:
        return len(self._views)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MaterializationTier({len(self._views)} views, "
                f"{self.stats.hits} hits / {self.stats.misses} misses)")

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def answer(self, gb: GroupByAttribute, measure_name: str,
               domain: Iterable | None = None) -> dict | None:
        """value → aggregate for ``(gb, measure)`` over the whole
        dataspace, or None.

        Served from an exact view when one exists (after folding any
        append delta), else derived by lattice roll-up from a finer view
        in the same hierarchy; a true miss returns None and the caller
        should execute the plan and report it via :meth:`note_miss`.
        """
        if self._supported(measure_name) is None:
            return None
        domain_key = None if domain is None else tuple(domain)
        with self._lock:
            view = self._get_fresh(self._view_key(gb, measure_name))
            rolled = False
            if view is None:
                view = self._rollup(gb, measure_name)
                if view is None:
                    return None
                rolled = True
            self.stats.hits += 1
            current_registry().counter("kdap.materialize.hit").inc()
            if rolled:
                self.stats.rollup_hits += 1
                current_registry().counter(
                    "kdap.materialize.rollup").inc()
            return finalize_group_states(view.aggregate, view.states,
                                         domain=domain_key)

    def note_miss(self, gb: GroupByAttribute, measure_name: str,
                  fingerprint) -> None:
        """Admission accounting for a full-space query the tier could
        not answer.

        After :attr:`admit_after` fingerprint-distinct misses that share
        a finer ancestor — the finest hierarchy level reachable from the
        missed attribute across functional steps, or the attribute
        itself — that ancestor is materialized, so one build serves its
        whole hierarchy upward via roll-up.
        """
        with self._lock:
            self.stats.misses += 1
            current_registry().counter("kdap.materialize.miss").inc()
            if self._supported(measure_name) is None:
                return
            anchor = self._finest_ancestor(gb)
            akey = self._view_key(anchor, measure_name)
            if akey in self._views and anchor is not gb:
                # the ancestor exists yet could not answer (NULL child
                # keys, non-functional suffix): admit the attribute itself
                anchor = gb
                akey = self._view_key(anchor, measure_name)
            if akey in self._views:
                return
            log = self._miss_log.setdefault(akey, set())
            log.add(fingerprint)
            if len(log) < self.admit_after:
                return
            try:
                view = self._build_view(anchor, measure_name)
            except ResourceExhausted:
                return  # deadline pressure: retry on a later miss
            self._miss_log.pop(akey, None)
            self._views[akey] = view
            self.stats.admitted += 1
            current_registry().counter("kdap.materialize.admitted").inc()

    def precompute(self, measure_name: str,
                   attributes: Iterable[GroupByAttribute]) -> int:
        """Materialize full-space views eagerly; returns views built."""
        if self._supported(measure_name) is None:
            raise SchemaError(
                f"measure {measure_name!r} has no mergeable aggregate "
                "states; cannot materialize")
        count = 0
        with self._lock:
            for gb in attributes:
                key = self._view_key(gb, measure_name)
                if self._get_fresh(key) is not None:
                    continue
                self._views[key] = self._build_view(gb, measure_name)
                self.stats.admitted += 1
                count += 1
        return count

    def snapshot(self) -> dict:
        """Stats plus view count, for ``--stats`` / ``/v1/statz``."""
        with self._lock:
            return {"views": len(self._views), **self.stats.as_dict()}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _supported(self, measure_name: str):
        measure = self.schema.measures.get(measure_name)
        if measure is None or measure.aggregate not in AGGREGATE_STATES:
            return None
        return measure

    @staticmethod
    def _view_key(gb: GroupByAttribute, measure_name: str) -> tuple:
        return (attr_key(gb).fingerprint(), measure_name)

    def _dim_versions(self, gb: GroupByAttribute) -> tuple:
        return self.schema._path_versions(gb.path_from_fact)

    def _get_fresh(self, key: tuple) -> MaterializedView | None:
        view = self._views.get(key)
        if view is None:
            return None
        try:
            self._freshen(view)
        except ResourceExhausted:
            # deadline mid-maintenance: the view is untouched (folds go
            # into fresh dicts); report a miss and let the query path
            # surface the deadline itself
            return None
        return view

    def _freshen(self, view: MaterializedView) -> None:
        """Bring a view up to date with the live tables.

        Fact appends fold only the delta rows past the high-water mark;
        dimension mutations can re-map existing fact rows — the
        non-foldable case — and trigger the full-rebuild fallback.
        """
        if view.dim_versions != self._dim_versions(view.gb):
            self._rebuild(view)
            return
        n = self.schema.num_fact_rows
        if n > view.hwm_rows:
            self._fold_delta(view, n)

    def _fold_delta(self, view: MaterializedView, n: int) -> None:
        gb = view.gb
        chunks = self.schema.fact_chunks(gb.path_from_fact, gb.ref.column)
        measure = self.schema.measure_vector(view.measure_name)
        delta = range(view.hwm_rows, n)
        # fold into fresh states first: an abort mid-fold must not leave
        # the view half-updated
        fresh = chunked_group_states(
            [chunks], measure, view.aggregate, row_ids=delta,
            on_chunk=lambda _rows: check_deadline("materialize.refresh"),
        )[0]
        vector = self.schema.fact_vector(gb.path_from_fact, gb.ref.column)
        nulls = sum(1 for r in delta if vector[r] is None)
        merge_group_states(view.aggregate, view.states, fresh)
        if view.null_rows != _NULLS_UNKNOWN:
            view.null_rows += nulls
        view.hwm_rows = n
        self.stats.refreshes += 1
        self.stats.refreshed_rows += len(delta)
        current_registry().counter("kdap.materialize.refresh").inc()

    def _rebuild(self, view: MaterializedView) -> None:
        view.states, view.null_rows = self._compute(view.gb,
                                                    view.measure_name)
        view.hwm_rows = self.schema.num_fact_rows
        view.dim_versions = self._dim_versions(view.gb)
        self.stats.rebuilds += 1
        current_registry().counter("kdap.materialize.rebuild").inc()

    def _compute(self, gb: GroupByAttribute,
                 measure_name: str) -> tuple[dict, int]:
        measure = self.schema.measures[measure_name]
        chunks = self.schema.fact_chunks(gb.path_from_fact, gb.ref.column)
        mvec = self.schema.measure_vector(measure_name)
        states = chunked_group_states(
            [chunks], mvec, measure.aggregate,
            on_chunk=lambda _rows: check_deadline("materialize.build"),
        )[0]
        return states, sum(c.zone.null_count for c in chunks)

    def _build_view(self, gb: GroupByAttribute,
                    measure_name: str) -> MaterializedView:
        states, nulls = self._compute(gb, measure_name)
        return MaterializedView(
            gb=gb, measure_name=measure_name,
            aggregate=self.schema.measures[measure_name].aggregate,
            states=states, hwm_rows=self.schema.num_fact_rows,
            null_rows=nulls, dim_versions=self._dim_versions(gb),
        )

    # ------------------------------------------------------------------
    # lattice
    # ------------------------------------------------------------------
    def _rollup(self, gb: GroupByAttribute,
                measure_name: str) -> MaterializedView | None:
        """Derive ``gb``'s view from a finer materialized one, merging
        its states through the hierarchy's child→parent value maps.

        Requires every traversed step to be functional (each child value
        owns exactly one non-NULL parent) and the source view to have no
        NULL child keys — otherwise per-row partitioning and per-value
        mapping could disagree and the tier refuses, falling back to the
        scan path.  The derived view is registered so later queries at
        this level are exact hits.
        """
        position = self.schema.hierarchy_position(gb.ref)
        if position is None:
            return None
        _dim, hierarchy, idx = position
        for level in range(idx - 1, -1, -1):
            child_gb = self._level_groupby(hierarchy, level, gb)
            if child_gb is None:
                continue
            child_view = self._get_fresh(
                self._view_key(child_gb, measure_name))
            if child_view is None or child_view.null_rows != 0:
                continue
            mapping = self._composed_map(hierarchy, level, idx)
            if mapping is None:
                continue
            acc = AGGREGATE_STATES[child_view.aggregate]
            states: dict = {}
            dropped = False
            for child_value, state in child_view.states.items():
                parent = mapping.get(child_value)
                if parent is None:
                    dropped = True  # coarse key is NULL for these rows
                    continue
                target = states.get(parent)
                if target is None:
                    states[parent] = list(state)
                else:
                    acc.merge(target, state)
            view = MaterializedView(
                gb=gb, measure_name=measure_name,
                aggregate=child_view.aggregate, states=states,
                hwm_rows=child_view.hwm_rows,
                null_rows=(_NULLS_UNKNOWN if dropped else 0),
                dim_versions=self._dim_versions(gb),
            )
            self._views[self._view_key(gb, measure_name)] = view
            return view
        return None

    def _level_groupby(self, hierarchy: Hierarchy, level: int,
                       gb: GroupByAttribute) -> GroupByAttribute | None:
        """The declared group-by for a finer level, role-checked: its
        fact path must be a prefix of ``gb``'s (same shared-table role)."""
        ref = hierarchy.levels[level]
        try:
            child_gb = self.schema.groupby_attribute(ref.table, ref.column)
        except SchemaError:
            return None
        prefix = child_gb.path_from_fact.fk_names
        if gb.path_from_fact.fk_names[:len(prefix)] != prefix:
            return None
        return child_gb

    def _composed_map(self, hierarchy: Hierarchy, level: int,
                      idx: int) -> dict | None:
        """child→ancestor value map across ``level .. idx``, or None when
        any step is non-functional."""
        composed: dict | None = None
        for step in range(level, idx):
            step_map = self.schema.functional_parent_map(hierarchy, step)
            if step_map is None:
                return None
            if composed is None:
                composed = dict(step_map)
            else:
                composed = {
                    child: step_map[parent]
                    for child, parent in composed.items()
                    if parent in step_map
                }
        return composed

    def _finest_ancestor(self, gb: GroupByAttribute) -> GroupByAttribute:
        """The finest hierarchy level below ``gb`` reachable across
        functional steps with compatible paths; ``gb`` itself otherwise."""
        position = self.schema.hierarchy_position(gb.ref)
        if position is None:
            return gb
        _dim, hierarchy, idx = position
        best = gb
        for level in range(idx - 1, -1, -1):
            if self.schema.functional_parent_map(hierarchy, level) is None:
                break
            child_gb = self._level_groupby(hierarchy, level, gb)
            if child_gb is None:
                break
            best = child_gb
        return best
