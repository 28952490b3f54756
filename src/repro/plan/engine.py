"""The query engine: plans + a backend + a fingerprint-keyed cache.

:class:`QueryEngine` is the single evaluation seam between the KDAP
layers (star nets, subspaces, OLAP operators, facets) and query
execution.  Consumers describe *what* they need as a logical plan (built
via :mod:`repro.plan.builders`); the engine memoises results by plan
fingerprint and delegates cache misses to the configured
:class:`~repro.plan.backends.ExecutionBackend`.

Because cache keys are canonical fingerprints rather than per-consumer
ad-hoc keys, a ray materialised for subspace-size preview, the same ray
evaluated inside a star net, and a facet roll-up over the resulting rows
all share one cache — repeated exploration of related interpretations
hits instead of recomputing, on either backend.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..obs.metrics import current_registry
from ..obs.tracer import (
    current_request_id,
    current_tracer,
    fingerprint_digest,
)
from ..relational.operators import AGGREGATES
from ..resilience.budget import check_deadline
from ..warehouse.subspace import Subspace
from .backends import ExecutionBackend, create_backend
from .builders import (
    attr_key,
    keyed_aggregate,
    pivot_plan,
    ray_filter,
    rowset,
    subspace_aggregate_plan,
)
from .cache import EVICTIONS, HITS, MISSES, PlanCache
from .nodes import Filter, GroupAggregate, MultiGroupAggregate, PlanNode, Scan

_MISS = object()


class QueryEngine:
    """Evaluate logical plans with caching over a pluggable backend.

    Partition aggregates have one route: every (attribute, domain)
    branch is cached under its own one-branch ``MultiGroupAggregate``
    fingerprint, and the branches a call misses run as one
    ``MultiGroupAggregate`` plan (one scan in memory, one batched
    statement on sqlite), whether one branch missed or many.
    """

    def __init__(self, schema, backend: str | ExecutionBackend = "memory",
                 max_cache_entries: int = 4096,
                 materialize: bool | object = False):
        self.schema = schema
        self.backend = create_backend(schema, backend)
        self.cache = PlanCache(max_entries=max_cache_entries)
        # the materialization tier answers full-space partition
        # aggregates from mergeable states (exact views or lattice
        # roll-ups) before the backend is consulted; off by default at
        # this level — sessions opt in — so counter-sensitive consumers
        # see raw execution.
        # Pass a MaterializationTier instance to share one tier (and its
        # admission history) across engines.
        if materialize is True:
            from ..warehouse.materialize import MaterializationTier

            self.tier = MaterializationTier(schema)
        elif materialize is False or materialize is None:
            self.tier = None
        else:
            # identity checks above, not truthiness: an empty shared
            # tier is len() == 0 and must still be adopted
            self.tier = materialize

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def counters(self):
        """The backend's per-operator execution counters."""
        return self.backend.counters

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:
        return (f"QueryEngine(backend={self.backend_name!r}, "
                f"cached={len(self.cache)})")

    # ------------------------------------------------------------------
    # primitive evaluation (cached)
    # ------------------------------------------------------------------
    def cache_key(self, fingerprint):
        """Epoch-qualified plan-cache key for a plan fingerprint.

        Plan fingerprints are pure descriptions of the question (a
        ``Scan`` of the fact table prints the same before and after an
        append), so raw fingerprints could serve stale rows once tables
        grow.  Every cache access is therefore keyed by the database
        epoch — the sum of all table version counters, monotonic under
        the append-only contract — and a mutation simply strands the old
        epoch's entries for LRU eviction.
        """
        return (sum(table.version
                    for table in self.schema.database.tables()),
                fingerprint)

    def materialize(self, plan: PlanNode) -> tuple[int, ...]:
        """Row ids selected by a row-producing plan (cached)."""
        fingerprint = plan.fingerprint()
        key = self.cache_key(fingerprint)
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            self._note_hit(fingerprint, kind="materialize")
            return cached
        self._count_lookup(hit=False)
        check_deadline("materialize")
        # a failing backend call leaves the cache untouched: partial or
        # poisoned entries must never be served to later callers
        with current_tracer().span("plan.materialize",
                                   **self._request_tag()) as span:
            rows = self.backend.materialize(plan)
            span.set_tag("rows", len(rows))
        self._store(key, rows)
        return rows

    def execute(self, plan: GroupAggregate | MultiGroupAggregate):
        """Aggregate result of a plan (cached; dicts, and a keyed
        aggregate's per-branch dicts, are copied on the way out so
        callers cannot corrupt cache entries)."""
        fingerprint = plan.fingerprint()
        key = self.cache_key(fingerprint)
        cached = self.cache.get(key, _MISS)
        if cached is _MISS:
            self._count_lookup(hit=False)
            cached = self._run(plan)
            self._store(key, cached)
        else:
            self._note_hit(fingerprint, kind="execute")
        if isinstance(plan, MultiGroupAggregate):
            return {fp: dict(groups) for fp, groups in cached.items()}
        return dict(cached) if isinstance(cached, dict) else cached

    def _run(self, plan: GroupAggregate | MultiGroupAggregate):
        """Execute an aggregate plan on the backend (no cache access)."""
        check_deadline("execute")
        with current_tracer().span("plan.execute", **self._request_tag()):
            return self.backend.execute(plan)

    @staticmethod
    def _request_tag() -> dict:
        """``{"request": id}`` when a service request is ambient.

        Engine spans carry the request id so one shared trace — or the
        per-request trace the service writes — can attribute backend
        work to the HTTP request that caused it, across worker threads.
        """
        request_id = current_request_id()
        return {} if request_id is None else {"request": request_id}

    @staticmethod
    def _count_lookup(hit: bool) -> None:
        """The one place a plan-cache lookup is counted."""
        current_registry().counter(HITS if hit else MISSES).inc()

    def _store(self, key, value) -> None:
        """Cache one result, counting the entries it evicts."""
        evicted = self.cache.put(key, value)
        if evicted:
            current_registry().counter(EVICTIONS).inc(evicted)

    def _note_hit(self, fingerprint, kind: str) -> None:
        """Count one plan-cache hit and (when tracing) record it as a
        zero-duration marker span so EXPLAIN can attribute cache hits to
        plan nodes."""
        self._count_lookup(hit=True)
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(f"plan.{kind}", cached=True,
                             fp=fingerprint_digest(fingerprint),
                             **self._request_tag()):
                pass

    def _note_materialized(self, fingerprint) -> None:
        """Marker span for an aggregate answered by the materialization
        tier (no backend scan ran); EXPLAIN ANALYZE attributes it to the
        plan node like a cache hit, under its own ``materialized`` tag."""
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("plan.execute", materialized=True,
                             fp=fingerprint_digest(fingerprint),
                             **self._request_tag()):
                pass

    # ------------------------------------------------------------------
    # star-net evaluation
    # ------------------------------------------------------------------
    def evaluate(self, star_net) -> Subspace:
        """SUP(N): the subspace selected by a star net, engine-bound so
        later aggregation over it routes back through this engine."""
        check_deadline("evaluate")
        rows = self.materialize(star_net.to_plan(self.schema))
        return Subspace(self.schema, rows, label=str(star_net), engine=self)

    def semijoin_rows(self, source_table: str, column: str,
                      values: Iterable, path) -> tuple[int, ...]:
        """Fact rows selected by one ray (``path`` oriented
        ``source_table`` → fact): the ray's attribute filter over the
        whole fact table, cached, so repeated previews of a ray are
        free."""
        return self.materialize(ray_filter(Scan(self.schema.fact_table),
                                           source_table, column, values,
                                           path))

    def bind(self, subspace: Subspace) -> Subspace:
        """The same subspace with aggregation bound to this engine."""
        if subspace.engine is self:
            return subspace
        return Subspace(subspace.schema, subspace.fact_rows,
                        subspace.label, engine=self)

    # ------------------------------------------------------------------
    # subspace aggregation
    # ------------------------------------------------------------------
    def _tier_covers(self, subspace: Subspace) -> bool:
        """Whether the tier may answer over ``subspace``: it holds
        full-space views only, and an engine subspace's rows are sorted
        distinct fact-row ids, so a full-length row set IS the whole
        dataspace."""
        return (self.tier is not None
                and len(subspace.fact_rows) == self.schema.num_fact_rows)

    def subspace_aggregate(self, subspace: Subspace, measure_name: str):
        """G(DS') — the measure aggregated over a subspace."""
        measure = self.schema.measures[measure_name]
        if subspace.is_empty:
            return AGGREGATES[measure.aggregate](())
        plan = subspace_aggregate_plan(self.schema, subspace.fact_rows,
                                       measure)
        return self.execute(plan)

    def subspace_partition_aggregates(
        self,
        subspace: Subspace,
        gb,
        measure_name: str,
        domain: Iterable | None = None,
    ) -> dict:
        """value → aggregated measure per group (NULL keys dropped; with a
        ``domain``, exactly those categories, absent ones aggregating over
        zero rows)."""
        domain_key = None if domain is None else tuple(domain)
        return self._partition_aggregates(subspace, [gb], measure_name,
                                          [domain_key])[0]

    def multi_partition_aggregates(
        self,
        subspace: Subspace,
        gbs: Sequence,
        measure_name: str,
        domains: Sequence[Iterable | None] | None = None,
    ) -> list[dict]:
        """One value→aggregate dict per group-by, over one subspace.

        Semantically identical to calling
        :meth:`subspace_partition_aggregates` once per ``gb``, but the
        branches the cache misses run as one plan: the subspace's rows
        are scanned (memory) or shipped to SQL (sqlite) **once** for all
        of them.  ``domains``, when given, aligns with ``gbs`` (None
        entries meaning unrestricted).
        """
        gbs = list(gbs)
        if domains is None:
            domain_keys: list[tuple | None] = [None] * len(gbs)
        else:
            domain_keys = [None if d is None else tuple(d) for d in domains]
            if len(domain_keys) != len(gbs):
                raise ValueError("domains must align one-to-one with gbs")
        return self._partition_aggregates(subspace, gbs, measure_name,
                                          domain_keys)

    def _partition_aggregates(self, subspace: Subspace, gbs: list,
                              measure_name: str,
                              domain_keys: list[tuple | None]) -> list[dict]:
        """The one body behind both partition-aggregate entry points.

        Each (gb, domain) branch is looked up under its own one-branch
        ``MultiGroupAggregate`` fingerprint (a hit counts one lookup),
        then asked of the tier; the branches both miss run as one plan
        per round of distinct attributes (each round counts one miss)
        and are cached branch by branch.  The multi-branch plan itself
        is never cached: no lookup would ever name it.
        """
        measure = self.schema.measures[measure_name]
        fill = AGGREGATES[measure.aggregate](())
        tier = self.tier if self._tier_covers(subspace) else None
        source = rowset(self.schema, subspace.fact_rows)
        results: list[dict | None] = [None] * len(gbs)
        # one-branch fingerprint -> (gb, domain, fingerprint, result slots)
        pending: dict[tuple, tuple] = {}
        for index, (gb, dk) in enumerate(zip(gbs, domain_keys)):
            if subspace.is_empty or (dk is not None and not dk):
                # nothing to aggregate: the domain fill, without a query
                # (which also keeps ``IN ()`` out of the SQL path)
                results[index] = ({} if dk is None
                                  else {value: fill for value in dk})
                continue
            fingerprint = keyed_aggregate(source, [gb], measure,
                                          [dk]).fingerprint()
            entry = pending.get(fingerprint)
            if entry is not None:
                entry[3].append(index)
                continue
            key = self.cache_key(fingerprint)
            cached = self.cache.get(key, _MISS)
            if cached is not _MISS:
                self._note_hit(fingerprint, kind="execute")
                results[index] = dict(cached)
                continue
            if tier is not None:
                answer = tier.answer(gb, measure_name, domain=dk)
                if answer is not None:
                    self._note_materialized(fingerprint)
                    self._store(key, answer)
                    results[index] = dict(answer)
                    continue
            pending[fingerprint] = (gb, dk, fingerprint, [index])
        while pending:
            # a plan's branch keys are distinct, so an attribute asked
            # for under a second domain waits for the next round
            branches: dict[tuple, tuple] = {}
            for fingerprint, (gb, *_) in list(pending.items()):
                attr = attr_key(gb).fingerprint()
                if attr not in branches:
                    branches[attr] = pending.pop(fingerprint)
            plan = keyed_aggregate(
                source, [gb for gb, _, _, _ in branches.values()], measure,
                [dk for _, dk, _, _ in branches.values()])
            self._count_lookup(hit=False)
            executed = self._run(plan)
            for attr, (gb, _, fingerprint, slots) in branches.items():
                groups = executed[attr]
                self._store(self.cache_key(fingerprint), groups)
                if tier is not None:
                    tier.note_miss(gb, measure_name, fingerprint)
                for slot in slots:
                    # the groups dict is the cache entry's: copy it out
                    results[slot] = dict(groups)
        return results

    def pivot_aggregates(self, subspace: Subspace, rows_gb, cols_gb,
                         measure_name: str) -> dict:
        """(row value, column value) → aggregated measure."""
        if subspace.is_empty:
            return {}
        measure = self.schema.measures[measure_name]
        plan = pivot_plan(self.schema, subspace.fact_rows,
                          rows_gb, cols_gb, measure)
        return self.execute(plan)

    # ------------------------------------------------------------------
    # subspace filtering (slice / dice)
    # ------------------------------------------------------------------
    def filter_rows(self, subspace: Subspace,
                    selections: Sequence[tuple]) -> tuple[int, ...]:
        """Rows of ``subspace`` matching every ``(gb, values)`` selection
        (an empty value set selects nothing, answered without a query)."""
        selections = [(gb, tuple(values)) for gb, values in selections]
        if subspace.is_empty or any(not values for _, values in selections):
            return ()
        plan: PlanNode = rowset(self.schema, subspace.fact_rows)
        for gb, values in selections:
            plan = Filter(plan, attr=attr_key(gb), values=values)
        return self.materialize(plan)
