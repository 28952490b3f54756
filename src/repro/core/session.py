"""The end-to-end KDAP session API.

:class:`KdapSession` wires together both phases of Figure 1:

* :meth:`differentiate` — keyword query → ranked candidate star nets;
* :meth:`explore` — chosen star net → aggregated subspace + dynamic facets.

:meth:`search` runs both with the top-ranked interpretation, which is the
"I'll know it when I see it" happy path.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Sequence

from ..obs.explain import ExplainResult, profile_plan
from ..obs.metrics import MetricsRegistry, metrics_scope
from ..obs.tracer import Tracer, current_tracer, tracing_scope
from ..plan.backends import ExecutionBackend
from ..plan.builders import subspace_aggregate_plan
from ..plan.engine import QueryEngine
from ..relational.errors import ResourceExhausted
from ..resilience.budget import Budget, budget_scope, current_budget
from ..resilience.diagnostics import Diagnostics
from ..textindex.index import AttributeTextIndex
from ..warehouse.operations import drill_down as _drill_subspace
from ..warehouse.schema import GroupByAttribute, StarSchema
from ..warehouse.subspace import Subspace
from .facets import (
    ExploreConfig,
    FacetedInterface,
    apply_modifier,
    build_facets,
    replay_cached_build,
)
from .interestingness import (
    BUILTIN_MEASURES,
    SURPRISE,
    InterestingnessMeasure,
)
from .interpret import (
    DEFAULT_CONFIG,
    GenerationConfig,
    Interpretation,
    MatchReport,
    ScoredInterpretation,
    interpret_query,
    rank_interpretations,
)
from .matching import DEFAULT_MATCHERS, MatcherChain, validate_matchers
from .ranking import RankingMethod
from .starnet import StarNet
from .synonyms import SynonymRegistry


@dataclass(frozen=True)
class ExploreResult:
    """Outcome of the explore phase for one chosen star net.

    Under a :class:`~repro.resilience.budget.Budget` the result may be
    *partial*: ``diagnostics`` then records which stages were truncated,
    why, and how much work was done before the budget ran out.
    """

    star_net: StarNet
    subspace: Subspace
    interface: FacetedInterface
    diagnostics: Diagnostics | None = None
    interpretation: Interpretation | None = None
    """The full interpretation explored, when the caller passed one
    (hints + provenance beyond the bare star net)."""

    @property
    def total_aggregate(self) -> float:
        """The aggregated measure over the whole subspace."""
        return self.interface.total_aggregate

    @property
    def is_partial(self) -> bool:
        """True when a budget truncated part of this result."""
        return self.diagnostics is not None and self.diagnostics.partial


logger = logging.getLogger(__name__)


class KdapSession:
    """A stateful KDAP session over one star schema.

    Parameters
    ----------
    schema:
        The warehouse to search.
    index:
        An attribute-level full-text index over the schema; built on the
        fly from ``schema.searchable`` when omitted.
    backend:
        Execution backend name (``"memory"`` or ``"sqlite"``) or a
        pre-built :class:`~repro.plan.backends.ExecutionBackend`.  All
        query evaluation — subspace-size previews, star-net
        materialisation, facet aggregation, drill-down — goes through one
        :class:`~repro.plan.engine.QueryEngine` on this backend, with
        plan-fingerprint caching.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the session's
        latency histograms, cache counters, and truncation counters go
        to.  Each session gets its own registry by default, so two
        sessions in one process never mix numbers; pass
        ``repro.obs.metrics.DEFAULT_REGISTRY`` to aggregate
        process-wide instead.
    materialize:
        Materialization tier (default True): partition aggregates over
        the whole dataspace — the roll-up space of every
        single-dimension query — are answered from materialized
        mergeable states (exact views, or lattice roll-ups of
        finer-grained ones) with incremental maintenance on fact
        appends, instead of re-scanning fact rows.  Aggregates over
        keyword-selected subspaces always run on the backend.
        ``kdap.materialize.*`` counters land in :attr:`metrics`.  False
        disables the tier; passing a
        :class:`~repro.warehouse.materialize.MaterializationTier`
        shares one (as the service does across its workers).

    **Threading**: a session is a single-caller object — its
    last-match bookkeeping is not synchronised for concurrent public
    calls, and it starts no threads of its own: every
    request runs serially on the caller's thread.  A sqlite-backed
    session may be driven from a foreign thread because the mirror hands
    each thread its own connection; but those per-thread connections
    only die with the session, so thread-per-request callers leak one
    connection per thread.  Concurrent servers therefore keep **one
    session per long-lived worker thread** (see :mod:`repro.service`);
    those sessions still share the schema's vector/chunk caches and the
    materialization tier, which stay lock-guarded.  Using a
    closed sqlite-backed session raises a typed
    :class:`~repro.relational.errors.BackendError` — never a raw
    ``sqlite3.ProgrammingError``.
    """

    def __init__(self, schema: StarSchema,
                 index: AttributeTextIndex | None = None,
                 backend: str | ExecutionBackend = "memory",
                 metrics: MetricsRegistry | None = None,
                 materialize: bool | object = True,
                 matchers: Sequence[str] | None = None,
                 synonyms: SynonymRegistry | None = None):
        self.schema = schema
        if index is None:
            index = AttributeTextIndex()
            index.index_database(schema.database, schema.searchable)
        self.index = index
        # the interpretation front end: matcher chain (value/metadata/
        # pattern) built once — the metadata name table is derived from
        # the schema and its synonym registry, not per query
        self.matchers = (validate_matchers(matchers)
                         if matchers is not None else DEFAULT_MATCHERS)
        self.chain = MatcherChain(schema, index, synonyms)
        self.last_match_report: MatchReport | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # sessions default the materialization tier ON (full-space
        # roll-up facets recur across queries); pass False
        # for raw execution or a shared MaterializationTier instance to
        # pool admission history across sessions
        self.engine = QueryEngine(schema, backend=backend,
                                  materialize=materialize)
        self._closed = False

    def close(self) -> None:
        """Release backend resources (e.g. the sqlite mirror); idempotent."""
        if self._closed:
            return
        self._closed = True
        self.engine.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "KdapSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # subspace sizing
    # ------------------------------------------------------------------
    def subspace_size(self, star_net) -> int:
        """Fact-row count of a star net's subspace: the star net's own
        plan through the engine, so a preview and an explore of the same
        candidate are one plan-cache entry."""
        return len(self.engine.evaluate(star_net))

    # ------------------------------------------------------------------
    # phase 1: differentiate
    # ------------------------------------------------------------------
    def differentiate(
        self,
        query: str,
        method: RankingMethod = RankingMethod.STANDARD,
        limit: int | None = 10,
        config: GenerationConfig = DEFAULT_CONFIG,
        preview_sizes: bool = False,
        budget: Budget | None = None,
        matchers: Sequence[str] | None = None,
    ) -> list[ScoredInterpretation]:
        """Ranked candidate interpretations of a keyword query.

        Runs the staged pipeline (tokenize → match → enumerate → rank):
        the matcher chain turns keywords into typed candidates — cell-
        value hit groups, metadata attribute/measure references, pattern
        modifiers — and enumeration crosses them into
        :class:`~repro.core.interpret.Interpretation` candidates.
        ``matchers`` overrides the session's chain selection for this
        query (e.g. ``("value",)`` for the paper's value-only front end).

        With ``preview_sizes`` each returned candidate carries the number
        of fact rows its subspace would contain: the star net's plan,
        evaluated and cached exactly as :meth:`explore` evaluates it, so
        exploring a previewed candidate is a plan-cache hit.

        Under a ``budget`` (explicit, or ambient via
        :func:`~repro.resilience.budget.budget_scope`) enumeration is
        truncated cooperatively instead of raising: the ranked prefix
        produced so far is returned and the truncation is recorded on the
        budget's diagnostics.  Keywords no matcher accepted become notes
        on the budget's diagnostics (and :attr:`last_match_report`)
        instead of disappearing silently.
        """
        budget = budget or current_budget()
        tracer = current_tracer()
        selection = (validate_matchers(matchers) if matchers is not None
                     else self.matchers)
        started = time.perf_counter()
        with metrics_scope(self.metrics), budget_scope(budget), \
                tracer.span("differentiate", query=query) as span:
            candidates, report = interpret_query(
                self.schema, self.index, query, config,
                matchers=selection, chain=self.chain)
            self.last_match_report = report
            for name, value in report.counters.items():
                if value:
                    self.metrics.counter(f"kdap.match.{name}").inc(value)
            if budget is not None:
                for note in report.notes():
                    budget.add_note(note)
            with tracer.span("starnet.rank", method=method.value):
                ranked = rank_interpretations(candidates, method)
            logger.info("differentiate %r: %d candidates (%s)", query,
                        len(candidates), method.value)
            if limit is not None:
                ranked = ranked[:limit]
            if preview_sizes:
                with tracer.span("preview.sizes",
                                 candidates=len(ranked)):
                    ranked = self._preview_sizes(ranked, budget)
            span.set_tag("candidates", len(candidates))
        self.metrics.counter("kdap.queries").inc()
        self.metrics.histogram("kdap.differentiate.seconds").observe(
            time.perf_counter() - started)
        return ranked

    def _preview_sizes(self, ranked: list[ScoredInterpretation],
                       budget: Budget | None
                       ) -> list[ScoredInterpretation]:
        """Attach subspace sizes, stopping (not failing) on exhaustion."""
        previewed: list[ScoredInterpretation] = []
        for position, scored in enumerate(ranked):
            try:
                size = self.subspace_size(scored.star_net)
            except ResourceExhausted as exc:
                if budget is None:
                    raise
                budget.record_truncation(
                    "preview", exc.reason,
                    f"subspace sizes missing for {len(ranked) - position} "
                    f"of {len(ranked)} candidates")
                previewed.extend(ranked[position:])
                break
            previewed.append(ScoredInterpretation(
                scored.interpretation, scored.score, size))
        return previewed

    # ------------------------------------------------------------------
    # phase 2: explore
    # ------------------------------------------------------------------
    def explore(
        self,
        star_net: (StarNet | Interpretation | ScoredInterpretation),
        interestingness: InterestingnessMeasure = SURPRISE,
        config: ExploreConfig = ExploreConfig(),
        budget: Budget | None = None,
    ) -> ExploreResult:
        """Aggregate a chosen interpretation's subspace and build facets.

        Accepts a bare :class:`~repro.core.starnet.StarNet` or a full
        :class:`~repro.core.interpret.Interpretation` (scored or not).
        With an interpretation its hints shape the result: a matched
        measure overrides ``config.measure_name``, hinted group-by
        attributes are promoted into their dimensions' facets, and
        order/limit modifiers ("top 3") re-rank and truncate the hinted
        facet entries.

        Evaluation goes through the session's query engine: the star net
        compiles to a logical plan, the subspace comes back engine-bound,
        and every facet aggregation over it is a fingerprint-cached plan
        on the configured backend.  The built interface is itself one
        plan-cache entry, keyed by the star net's plan fingerprint,
        ``config``, the class of ``interestingness`` and the group-by
        hints at the data epoch, so a repeat rebuilds nothing; an
        order/limit modifier reshapes the cached entry afterwards, an
        append moves the epoch, and an explore a budget truncated is not
        stored.  Only the built-in measures (``BUILTIN_MEASURES``) are
        keyed: an explore with a caller's own measure, which may not
        hash, is built every time.

        Under a ``budget`` this never raises on exhaustion: it degrades
        to a partial :class:`ExploreResult` whose ``diagnostics`` records
        the truncated stages (empty subspace + no facets in the worst
        case of a deadline hit during materialisation).
        """
        interpretation: Interpretation | None = None
        if isinstance(star_net, ScoredInterpretation):
            interpretation = star_net.interpretation
        elif isinstance(star_net, Interpretation):
            interpretation = star_net
        net = (interpretation.star_net if interpretation is not None
               else star_net)
        if interpretation is not None:
            hint = interpretation.measure_hint
            if hint is not None and hint in self.schema.measures \
                    and hint != config.measure_name:
                config = replace(config, measure_name=hint)
        label = (interpretation.describe() if interpretation is not None
                 else str(net))
        budget = budget or current_budget()
        started = time.perf_counter()
        with metrics_scope(self.metrics), budget_scope(budget), \
                current_tracer().span("explore", star_net=label):
            result = self._explore_inner(net, interestingness,
                                         config, budget, interpretation)
        self.metrics.histogram("kdap.explore.seconds").observe(
            time.perf_counter() - started)
        return result

    def _explore_inner(
        self,
        star_net: StarNet,
        interestingness: InterestingnessMeasure,
        config: ExploreConfig,
        budget: Budget | None,
        interpretation: Interpretation | None = None,
    ) -> ExploreResult:
        try:
            subspace = self.engine.evaluate(star_net)
        except ResourceExhausted as exc:
            if budget is None:
                raise
            budget.record_truncation(
                "subspace", exc.reason,
                "subspace not materialised; facets skipped")
            subspace = Subspace(self.schema, (), label=str(star_net),
                                engine=self.engine)
            interface = FacetedInterface(subspace, 0.0, ())
            return ExploreResult(star_net, subspace, interface,
                                 diagnostics=Diagnostics.from_budget(
                                     budget),
                                 interpretation=interpretation)
        logger.info("explore %s: %d fact rows (%s backend)", star_net,
                    len(subspace), self.engine.backend_name)
        promote = (interpretation.group_by_hints
                   if interpretation is not None else ())

        def build() -> FacetedInterface:
            return build_facets(
                self.schema, star_net, subspace=subspace,
                interestingness=interestingness, config=config,
                engine=self.engine, promote=promote,
            )

        if type(interestingness) in BUILTIN_MEASURES:
            # the built interface is one plan-cache entry: a pure
            # function of the star net's plan, the config, the measure
            # and the hints at this epoch (the modifier only reshapes
            # it, below)
            interface = self.engine.cached(
                ("facets", star_net.to_plan(self.schema).fingerprint(),
                 config, type(interestingness), tuple(promote)),
                "facets", build,
                on_hit=lambda cached: replay_cached_build(
                    self.schema, cached, config, self.engine))
        else:
            # a caller's own measure may not hash, or hash by identity
            # with a per-process repr: it is built every time
            interface = build()
        if interpretation is not None \
                and interpretation.modifier.active:
            interface = apply_modifier(interface,
                                       interpretation.modifier,
                                       promote)
        diagnostics = (Diagnostics.from_budget(budget)
                       if budget is not None else None)
        return ExploreResult(star_net, interface.subspace, interface,
                             diagnostics=diagnostics,
                             interpretation=interpretation)

    def drill_down(
        self,
        result: "ExploreResult",
        gb: GroupByAttribute,
        value,
        interestingness: InterestingnessMeasure = SURPRISE,
        config: ExploreConfig = ExploreConfig(),
    ) -> "ExploreResult":
        """Use a facet entry as a drill-down entry point (paper §3).

        The new sub-dataspace fixes ``gb = value`` inside the current
        result's subspace; facets are rebuilt with the *previous* subspace
        as the roll-up background, so interestingness now measures
        deviation from the space the user just left.
        """
        current = self.engine.bind(result.subspace)
        finer, _next_level = _drill_subspace(current, gb, value)
        interface = build_facets(
            self.schema, result.star_net, subspace=finer,
            interestingness=interestingness, config=config,
            rollups=[current], engine=self.engine,
        )
        return ExploreResult(result.star_net, finer, interface)

    # ------------------------------------------------------------------
    # happy path
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        interestingness: InterestingnessMeasure = SURPRISE,
        method: RankingMethod = RankingMethod.STANDARD,
        explore_config: ExploreConfig = ExploreConfig(),
        generation_config: GenerationConfig = DEFAULT_CONFIG,
        budget: Budget | None = None,
    ) -> ExploreResult | None:
        """Differentiate, pick the top star net, and explore it.

        Returns None when the query has no interpretation.  A ``budget``
        covers both phases (it is one per-query contract).
        """
        with metrics_scope(self.metrics), \
                current_tracer().span("query", query=query):
            ranked = self.differentiate(query, method=method, limit=1,
                                        config=generation_config,
                                        budget=budget)
            if not ranked:
                return None
            return self.explore(ranked[0],
                                interestingness=interestingness,
                                config=explore_config, budget=budget)

    # ------------------------------------------------------------------
    # EXPLAIN ANALYZE
    # ------------------------------------------------------------------
    def explain(
        self,
        query: str,
        pick: int = 1,
        interestingness: InterestingnessMeasure = SURPRISE,
        method: RankingMethod = RankingMethod.STANDARD,
        explore_config: ExploreConfig = ExploreConfig(),
        generation_config: GenerationConfig = DEFAULT_CONFIG,
        budget: Budget | None = None,
        matchers: Sequence[str] | None = None,
    ) -> ExplainResult | None:
        """EXPLAIN ANALYZE: run a keyword query traced, report actuals.

        Differentiates ``query``, explores its ``pick``-th ranked
        interpretation (1-based), and returns an
        :class:`~repro.obs.explain.ExplainResult` whose plan tree is
        annotated per node with the calls, rows, batches, and inclusive
        seconds the backends actually recorded — plus the phase-level
        span breakdown.  Returns None when the query has fewer than
        ``pick`` interpretations.

        When an enabled tracer is already ambient (e.g. the CLI's
        ``--trace-out``), its trace is reused so the explained spans end
        up in the exported trace too; otherwise a private tracer lives
        just for this call.
        """
        if pick < 1:
            raise ValueError("pick is 1-based and must be >= 1")
        ambient = current_tracer()
        tracer = ambient if ambient.enabled else Tracer()
        started = time.perf_counter()
        with tracing_scope(tracer), metrics_scope(self.metrics), \
                tracer.span("query", query=query, mode="explain"):
            ranked = self.differentiate(query, method=method, limit=pick,
                                        config=generation_config,
                                        budget=budget, matchers=matchers)
            if len(ranked) < pick:
                return None
            scored = ranked[pick - 1]
            net = scored.star_net
            result = self.explore(scored,
                                  interestingness=interestingness,
                                  config=explore_config, budget=budget)
        elapsed_s = time.perf_counter() - started
        measure_name = explore_config.measure_name
        hint = scored.interpretation.measure_hint
        if hint is not None and hint in self.schema.measures:
            measure_name = hint
        total_plan = None
        if not result.subspace.is_empty:
            measure = self.schema.measures[measure_name]
            total_plan = subspace_aggregate_plan(
                self.schema, result.subspace.fact_rows, measure)
        return ExplainResult(
            query=query,
            interpretation=scored.interpretation.describe(),
            backend=self.engine.backend_name,
            elapsed_s=elapsed_s,
            plan=profile_plan(net.to_plan(self.schema), tracer),
            total_plan=(profile_plan(total_plan, tracer)
                        if total_plan is not None else None),
            tracer=tracer,
            match=(self.last_match_report.as_dict()
                   if self.last_match_report is not None else None),
        )
