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
from ..obs.tracer import current_request_id, current_tracer, plan_digest
from ..relational.operators import AGGREGATES
from ..resilience.budget import check_deadline
from ..warehouse.subspace import Subspace
from .backends import ExecutionBackend, create_backend
from .builders import (
    attr_key,
    multi_partition_plan,
    pivot_plan,
    rowset,
    subspace_aggregate_plan,
    subspace_partition_plan,
)
from .cache import CacheStats, PlanCache
from .nodes import Filter, GroupAggregate, PlanNode, Scan, SemiJoin

_MISS = object()


class QueryEngine:
    """Evaluate logical plans with caching over a pluggable backend.

    :meth:`multi_partition_aggregates` always fuses: N group-bys over one
    subspace become a single ``MultiGroupAggregate`` plan (one scan in
    memory, one batched statement on sqlite).
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
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

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
        key = self.cache_key(plan.fingerprint())
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            self._note_cache(plan, hit=True, kind="materialize")
            return cached
        self._note_cache(plan, hit=False, kind="materialize")
        check_deadline("materialize")
        # a failing backend call leaves the cache untouched: partial or
        # poisoned entries must never be served to later callers
        with current_tracer().span("plan.materialize",
                                   **self._request_tag()) as span:
            rows = self.backend.materialize(plan)
            span.set_tag("rows", len(rows))
        self.cache.put(key, rows)
        return rows

    def execute(self, plan: GroupAggregate):
        """Aggregate result of a plan (cached; dicts are copied on the
        way out so callers cannot corrupt cache entries)."""
        key = self.cache_key(plan.fingerprint())
        cached = self.cache.get(key, _MISS)
        if cached is _MISS:
            self._note_cache(plan, hit=False, kind="execute")
            cached = self._execute_miss(plan, key)
        else:
            self._note_cache(plan, hit=True, kind="execute")
        return dict(cached) if isinstance(cached, dict) else cached

    def _execute_miss(self, plan: GroupAggregate, key):
        """Run a plan the cache missed (already counted) and cache it."""
        check_deadline("execute")
        with current_tracer().span("plan.execute", **self._request_tag()):
            result = self.backend.execute(plan)
        self.cache.put(key, result)
        return result

    @staticmethod
    def _request_tag() -> dict:
        """``{"request": id}`` when a service request is ambient.

        Engine spans carry the request id so one shared trace — or the
        per-request trace the service writes — can attribute backend
        work to the HTTP request that caused it, across worker threads.
        """
        request_id = current_request_id()
        return {} if request_id is None else {"request": request_id}

    def _count_lookup(self, hit: bool) -> None:
        """Count one plan-cache lookup in :class:`CacheStats` and the
        ambient metrics registry — the one place either counts, so the
        two always agree."""
        self.cache.record(hit)
        current_registry().counter(
            "kdap.plan.cache.hits" if hit
            else "kdap.plan.cache.misses").inc()

    def _note_cache(self, plan: PlanNode, hit: bool, kind: str) -> None:
        """Count one plan-cache lookup and (when tracing) record a hit as
        a zero-duration marker span so EXPLAIN can attribute cache hits
        to plan nodes."""
        self._count_lookup(hit)
        tracer = current_tracer()
        if tracer.enabled and hit:
            with tracer.span(f"plan.{kind}", cached=True,
                             fp=plan_digest(plan),
                             **self._request_tag()):
                pass

    def _note_materialized(self, plan: PlanNode) -> None:
        """Marker span for an aggregate answered by the materialization
        tier (no backend scan ran); EXPLAIN ANALYZE attributes it to the
        plan node like a cache hit, under its own ``materialized`` tag."""
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("plan.execute", materialized=True,
                             fp=plan_digest(plan),
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
                      values: Iterable, path,
                      dimension: str | None = None) -> tuple[int, ...]:
        """Fact rows reached by one semi-join ray (cached — the same ray
        inside a full star-net plan shares the per-ray entry's work only
        indirectly, but repeated previews of a ray are free)."""
        plan = SemiJoin(
            child=Scan(self.schema.fact_table),
            source_table=source_table,
            column=column,
            values=tuple(values),
            path=path,
            dimension=dimension,
        )
        return self.materialize(plan)

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
        measure = self.schema.measures[measure_name]
        domain_key = None if domain is None else tuple(domain)
        if subspace.is_empty:
            if domain_key is None:
                return {}
            fill = AGGREGATES[measure.aggregate](())
            return {value: fill for value in domain_key}
        plan = subspace_partition_plan(self.schema, subspace.fact_rows,
                                       gb, measure, domain=domain_key)
        if not self._tier_covers(subspace):
            return self.execute(plan)
        fingerprint = plan.fingerprint()
        key = self.cache_key(fingerprint)
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            self._note_cache(plan, hit=True, kind="execute")
            return dict(cached)
        answer = self.tier.answer(gb, measure_name, domain=domain_key)
        if answer is not None:
            self._note_materialized(plan)
            self.cache.put(key, answer)
            return dict(answer)
        self._note_cache(plan, hit=False, kind="execute")
        result = self._execute_miss(plan, key)
        self.tier.note_miss(gb, measure_name, fingerprint)
        return dict(result)

    def multi_partition_aggregates(
        self,
        subspace: Subspace,
        gbs: Sequence,
        measure_name: str,
        domains: Sequence[Iterable | None] | None = None,
    ) -> list[dict]:
        """One value→aggregate dict per group-by, over one subspace.

        Semantically identical to calling
        :meth:`subspace_partition_aggregates` once per ``gb``, but
        executes a single ``MultiGroupAggregate`` plan: the subspace's
        rows are scanned (memory) or shipped to SQL (sqlite) **once** for
        all group-bys instead of once per group-by.  ``domains``, when
        given, aligns with ``gbs`` (None entries meaning unrestricted).
        """
        gbs = list(gbs)
        if domains is None:
            domain_keys: list[tuple | None] = [None] * len(gbs)
        else:
            domain_keys = [None if d is None else tuple(d) for d in domains]
            if len(domain_keys) != len(gbs):
                raise ValueError("domains must align one-to-one with gbs")
        if not gbs:
            return []
        measure = self.schema.measures[measure_name]
        if subspace.is_empty:
            fill = AGGREGATES[measure.aggregate](())
            return [
                {} if dk is None else {value: fill for value in dk}
                for dk in domain_keys
            ]
        results: list[dict | None] = [None] * len(gbs)
        tier = self.tier if self._tier_covers(subspace) else None
        # key fingerprint -> (gb, domain, single plan, single fp, result
        # slots); duplicates of the same attribute share a branch when
        # domains agree
        fused: dict[tuple, tuple] = {}
        singles: list[int] = []
        for index, (gb, dk) in enumerate(zip(gbs, domain_keys)):
            if dk is not None and not dk:
                # an empty domain aggregates over nothing; answering it
                # here also keeps ``IN ()`` out of the SQL path
                results[index] = {}
                continue
            fingerprint = attr_key(gb).fingerprint()
            entry = fused.get(fingerprint)
            if entry is None:
                # a branch already answered as a *single* partition plan
                # (by an earlier single or fused call) is served from
                # cache rather than re-fused: fusion never loses the
                # cross-call sharing the single path would have had
                single = subspace_partition_plan(
                    self.schema, subspace.fact_rows, gb, measure,
                    domain=dk)
                single_fp = single.fingerprint()
                single_key = self.cache_key(single_fp)
                # a cached branch counts one hit; a missing one counts
                # nothing here, because the fused execute counts its miss.
                # No marker span: the single plan is not part of the fused
                # plan EXPLAIN renders, and digesting its row set would
                # cost more than the hit saves.
                cached = self.cache.get(single_key, _MISS)
                if cached is not _MISS:
                    self._count_lookup(hit=True)
                    results[index] = dict(cached)
                    continue
                if tier is not None:
                    answer = tier.answer(gb, measure_name, domain=dk)
                    if answer is not None:
                        self._note_materialized(single)
                        self.cache.put(single_key, answer)
                        results[index] = dict(answer)
                        continue
                fused[fingerprint] = (gb, dk, single, single_fp, [index])
            elif entry[1] == dk:
                entry[4].append(index)
            else:  # same attribute, different domain: separate query
                singles.append(index)
        if len(fused) == 1:
            # a lone branch is just a single partition query, already
            # missed in the cache and the tier above: execute it under
            # its single-plan key so that cache entry is shared
            (gb, dk, single, single_fp, slots), = fused.values()
            self._note_cache(single, hit=False, kind="execute")
            groups = self._execute_miss(single, self.cache_key(single_fp))
            if tier is not None:
                tier.note_miss(gb, measure_name, single_fp)
            for slot in slots:
                results[slot] = dict(groups)
        elif fused:
            plan_items = list(fused.values())
            plan = multi_partition_plan(
                self.schema, subspace.fact_rows,
                [item[0] for item in plan_items], measure,
                domains=[item[1] for item in plan_items])
            executed = self.execute(plan)
            for fingerprint, (gb, _, _, single_fp, slots) in fused.items():
                groups = executed[fingerprint]
                # seed the equivalent single-plan entry so later
                # single-key (or partially-overlapping fused) calls hit
                self.cache.put(self.cache_key(single_fp), groups)
                if tier is not None:
                    tier.note_miss(gb, measure_name, single_fp)
                for slot in slots:
                    # inner dicts belong to the cache entry: copy out
                    results[slot] = dict(groups)
        for index in singles:
            results[index] = self.subspace_partition_aggregates(
                subspace, gbs[index], measure_name,
                domain=domain_keys[index])
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
                    selections: Sequence[tuple] ) -> tuple[int, ...]:
        """Rows of ``subspace`` matching every ``(gb, values)`` selection."""
        if subspace.is_empty:
            return ()
        plan: PlanNode = rowset(self.schema, subspace.fact_rows)
        for gb, values in selections:
            plan = Filter(plan, attr=attr_key(gb), values=tuple(values))
        return self.materialize(plan)
