"""Command-line interface.

Usage (see ``python -m repro --help``)::

    python -m repro query "California Mountain Bikes"
    python -m repro explore "California Mountain Bikes" --pick 1
    python -m repro sql "Road Bikes revenue>3000"
    python -m repro experiment figure4

The warehouse is rebuilt per invocation (deterministic given --seed);
use --facts to trade startup time for fidelity.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import KdapSession, RankingMethod
from .obs import Tracer, tracing_scope
from .relational.errors import (
    BackendError,
    BudgetExceeded,
    DeadlineExceeded,
    RelationalError,
)
from .plan import cache_stats
from .resilience import Budget, create_resilient_backend, resilience_stats
from .datasets import (
    AW_ONLINE_QUERIES,
    AW_RESELLER_QUERIES,
    build_aw_online,
    build_aw_reseller,
    build_ebiz,
)
from .datasets.scale import build_scale
from .evalkit import (
    ALL_METHODS,
    DEFAULT_BUCKET_COUNTS,
    evaluate_annealing,
    evaluate_buckets_online,
    evaluate_buckets_reseller,
    evaluate_ranking,
    render_facets,
    render_series,
    render_star_nets,
)

_WAREHOUSES = {
    "online": lambda facts, seed: build_aw_online(num_facts=facts,
                                                  seed=seed),
    "reseller": lambda facts, seed: build_aw_reseller(num_facts=facts,
                                                      seed=seed),
    "ebiz": lambda facts, seed: build_ebiz(num_trans=max(facts // 2, 100),
                                           seed=seed),
    "scale": lambda facts, seed: build_scale(num_facts=facts, seed=seed),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Keyword-Driven Analytical Processing (SIGMOD 2007 "
                    "reproduction)",
    )
    parser.add_argument("--warehouse", choices=sorted(_WAREHOUSES),
                        default="online",
                        help="which synthetic warehouse to build")
    parser.add_argument("--facts", type=int, default=20000,
                        help="approximate fact-table size")
    parser.add_argument("--seed", type=int, default=42,
                        help="generation seed")
    parser.add_argument("--backend", choices=["memory", "sqlite"],
                        default="memory",
                        help="query execution backend (logical plans run "
                             "on in-memory row-id chains or a sqlite3 "
                             "mirror)")
    parser.add_argument("--no-materialize", action="store_true",
                        help="disable the materialization tier "
                             "(sessions enable it by default: recurring "
                             "full-space aggregates, such as a single-"
                             "dimension query's roll-up facets, are "
                             "answered from materialized states instead "
                             "of re-scanning fact rows)")
    parser.add_argument("--resilient", action="store_true",
                        help="wrap the backend in retry-with-backoff and "
                             "automatic failover to the in-memory "
                             "interpreter")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="wall-clock deadline per query; on expiry a "
                             "partial result is returned with diagnostics "
                             "instead of an error")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="cap on rows scanned by plan operators per "
                             "query (graceful truncation, like "
                             "--deadline-ms)")
    parser.add_argument("--max-interpretations", type=int, default=None,
                        help="cap on candidate star nets enumerated per "
                             "query")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="trace the whole command and write Chrome "
                             "trace_event JSON to PATH (open in "
                             "chrome://tracing or Perfetto)")
    parser.add_argument("--matchers", default=None, metavar="LIST",
                        help="comma-separated matcher chain for the "
                             "interpretation front end, in order "
                             "(default value,metadata,pattern); e.g. "
                             "--matchers value for the paper's value-only "
                             "front end")
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query",
                           help="differentiate: rank interpretations")
    query.add_argument("keywords")
    query.add_argument("--limit", type=int, default=5)
    query.add_argument("--method", choices=[m.value for m in RankingMethod],
                       default=RankingMethod.STANDARD.value)

    explore = sub.add_parser("explore",
                             help="explore one interpretation's facets")
    explore.add_argument("keywords")
    explore.add_argument("--pick", type=int, default=1,
                         help="1-based interpretation rank to explore")
    explore.add_argument("--measure", choices=["surprise", "bellwether"],
                         default="surprise")
    explore.add_argument("--stats", action="store_true",
                         help="print per-operator execution counters and "
                              "plan-cache statistics after exploring")
    explore.add_argument("--stats-json", metavar="PATH", default=None,
                         help="write the --stats data (plus the session "
                              "metrics snapshot) as JSON to PATH; '-' "
                              "writes to stdout")

    explain = sub.add_parser(
        "explain",
        help="EXPLAIN ANALYZE: run one interpretation traced and print "
             "its plan with per-operator actuals")
    explain.add_argument("keywords")
    explain.add_argument("--pick", type=int, default=1,
                         help="1-based interpretation rank to explain")
    explain.add_argument("--measure", choices=["surprise", "bellwether"],
                         default="surprise")
    explain.add_argument("--json", action="store_true",
                         help="emit the annotated plan and span tree as "
                              "JSON instead of the ASCII rendering")

    sql = sub.add_parser("sql",
                         help="print the SQL of one interpretation")
    sql.add_argument("keywords")
    sql.add_argument("--pick", type=int, default=1)

    experiment = sub.add_parser("experiment",
                                help="regenerate one paper artifact")
    experiment.add_argument(
        "which",
        choices=["figure4", "figure5", "figure6", "figure7"],
    )

    warehouse = sub.add_parser(
        "warehouse",
        help="warehouse tooling: generate million-row scale warehouses "
             "from the command line and persist them to sqlite")
    wsub = warehouse.add_subparsers(dest="warehouse_command",
                                    required=True)
    generate = wsub.add_parser(
        "generate",
        help="build datasets.scale:build_scale (seeded, deterministic) "
             "and dump data + schema metadata to a sqlite file; reload "
             "with datasets.scale:load_scale (top-level --seed applies)")
    generate.add_argument("--scale", type=int, default=1_000_000,
                          help="fact rows (default 1,000,000)")
    generate.add_argument("--products", type=int, default=24,
                          help="DimProduct catalogue size")
    generate.add_argument("--days", type=int, default=730,
                          help="DimDate calendar length")
    generate.add_argument("--out", required=True, metavar="PATH",
                          help="sqlite file to write (replaced if "
                               "present)")
    generate.add_argument("--synonyms", metavar="PATH", default=None,
                          help="also dump the schema's synonym registry "
                               "(business term -> attribute/measure, for "
                               "the metadata matcher) as editable JSON")

    serve = sub.add_parser(
        "serve",
        help="run the KDAP HTTP service: one shared warehouse, many "
             "concurrent clients, admission control and load shedding "
             "(the top-level --deadline-ms/--max-rows/"
             "--max-interpretations become server-side budget ceilings; "
             "--backend/--resilient shape each worker session)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default loopback)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free one")
    serve.add_argument("--pool-workers", type=int, default=4,
                       help="query worker threads, each with its own "
                            "session")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="admission queue capacity; arrivals beyond "
                            "it are shed with 429 + Retry-After")
    serve.add_argument("--enqueue-deadline-ms", type=float, default=2000.0,
                       help="longest a request may wait queued before "
                            "it is shed as stale")
    serve.add_argument("--drain-deadline-s", type=float, default=10.0,
                       help="how long SIGTERM drain waits for in-flight "
                            "work before 503-aborting the remainder")
    serve.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="write one Chrome trace per request to "
                            "DIR/trace-<request_id>.json")
    serve.add_argument("--chaos-error-rate", type=float, default=0.0,
                       help="inject this fraction of transient backend "
                            "faults per worker (behind retry/failover)")
    serve.add_argument("--chaos-latency-s", type=float, default=0.0,
                       help="inject this much latency per backend call")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="base seed for per-worker fault schedules")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the always-on telemetry pipeline "
                            "(event log, tail-based trace sampling, SLO "
                            "tracking); with "
                            "--trace-dir this also reverts to writing "
                            "every request's trace unconditionally")
    serve.add_argument("--event-log", metavar="PATH", default=None,
                       help="mirror every structured event to PATH as "
                            "append-only JSONL (the in-memory ring "
                            "behind /v1/eventz is always on)")
    serve.add_argument("--event-capacity", type=int, default=512,
                       help="in-memory event ring size (oldest events "
                            "drop first)")
    serve.add_argument("--trace-slow-ms", type=float, default=1000.0,
                       help="tail sampling: always persist traces of "
                            "requests slower than this")
    serve.add_argument("--trace-head-n", type=int, default=10,
                       help="tail sampling: keep 1-in-N traces of "
                            "healthy fast requests (0 disables the "
                            "head sample; errored and budget-truncated "
                            "requests are always persisted)")
    serve.add_argument("--slo-target-p95-ms", type=float, default=1000.0,
                       help="SLO: a request slower than this (or any "
                            "5xx) is 'bad' and burns error budget")
    serve.add_argument("--slo-error-budget", type=float, default=0.01,
                       help="SLO: tolerated bad-request fraction "
                            "(0.01 = 99%% of requests must be good)")
    serve.add_argument("--slo-burn-alert", type=float, default=2.0,
                       help="SLO: burn-rate threshold that must be "
                            "exceeded in both the short and long "
                            "window to raise a slo.burn event")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running service: polls "
             "/v1/statz and /v1/metricz and renders load, SLO burn, "
             "trace sampling, and recent events (no warehouse is "
             "built; this is a pure HTTP client)")
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="base URL of the service")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=None,
                     help="render this many frames then exit "
                          "(default: run until interrupted)")

    events = sub.add_parser(
        "events",
        help="query a running service's structured event log")
    esub = events.add_subparsers(dest="events_command", required=True)
    tail = esub.add_parser(
        "tail",
        help="print the newest events from GET /v1/eventz (one line "
             "per event; --follow keeps polling for new ones)")
    tail.add_argument("--url", default="http://127.0.0.1:8080",
                      help="base URL of the service")
    tail.add_argument("-n", type=int, default=20,
                      help="how many recent events to fetch")
    tail.add_argument("--json", action="store_true",
                      help="emit raw event JSON, one object per line")
    tail.add_argument("--follow", action="store_true",
                      help="poll for new events (by sequence number) "
                           "until interrupted")
    tail.add_argument("--interval", type=float, default=1.0,
                      help="poll period with --follow")
    return parser


def _session(args) -> KdapSession:
    schema = _WAREHOUSES[args.warehouse](args.facts, args.seed)
    backend = (create_resilient_backend(schema, args.backend)
               if args.resilient else args.backend)
    matchers = None
    if args.matchers is not None:
        matchers = tuple(name.strip() for name in args.matchers.split(",")
                         if name.strip())
    return KdapSession(schema, backend=backend,
                       materialize=not args.no_materialize,
                       matchers=matchers)


def _budget(args) -> Budget | None:
    """A per-query budget when any limit flag was given."""
    if (args.deadline_ms is None and args.max_rows is None
            and args.max_interpretations is None):
        return None
    return Budget(deadline_ms=args.deadline_ms, max_rows=args.max_rows,
                  max_interpretations=args.max_interpretations)


def _print_diagnostics(result) -> None:
    if not result.is_partial:
        return
    print("\npartial result (budget exhausted):")
    for line in result.diagnostics.describe():
        print(f"  {line}")


def _stats_payload(session) -> dict:
    """The machine-readable twin of ``render_counters`` plus the
    session's metrics snapshot (--stats-json)."""
    engine = session.engine
    metrics = session.metrics.snapshot()
    cache = cache_stats(metrics["counters"])
    payload = {
        "backend": engine.backend_name,
        "plan_cache": {**cache, "hit_rate": round(cache["hit_rate"], 4)},
        "operators": engine.counters.as_dict(),
        "metrics": metrics,
    }
    tier = getattr(engine, "tier", None)
    if tier is not None:
        payload["materialize"] = tier.snapshot()
    last_error = getattr(engine.backend, "last_error", None)
    if last_error is not None:
        payload["resilience"] = resilience_stats(metrics["counters"],
                                                 last_error)
    return payload


def _print_match_notes(session) -> None:
    """Keywords the matcher chain dropped, so empty/odd results are
    explainable from the terminal (satellite: no silent drops)."""
    report = session.last_match_report
    if report is None:
        return
    for note in report.notes():
        print(f"  note: {note}")


def _cmd_query(args) -> int:
    with _session(args) as session:
        ranked = session.differentiate(args.keywords,
                                       method=RankingMethod(args.method),
                                       limit=args.limit,
                                       budget=_budget(args))
        if not ranked:
            print("no interpretation found")
            _print_match_notes(session)
            return 1
        print(render_star_nets(ranked, limit=args.limit))
        _print_match_notes(session)
        return 0


def _pick(session, args, budget=None):
    """The ``--pick``-th ranked interpretation (scored), or None."""
    ranked = session.differentiate(args.keywords, limit=max(args.pick, 5),
                                   budget=budget)
    if len(ranked) < args.pick:
        print(f"only {len(ranked)} interpretations found")
        _print_match_notes(session)
        return None
    return ranked[args.pick - 1]


def _cmd_explore(args) -> int:
    from .core import BELLWETHER, SURPRISE

    with _session(args) as session:
        budget = _budget(args)
        scored = _pick(session, args, budget=budget)
        if scored is None:
            return 1
        measure = SURPRISE if args.measure == "surprise" else BELLWETHER
        result = session.explore(scored, interestingness=measure,
                                 budget=budget)
        print(f"interpretation: {scored.interpretation.describe()}")
        print(f"{len(result.subspace)} fact rows, total = "
              f"{result.total_aggregate:,.2f}\n")
        print(render_facets(result.interface))
        _print_diagnostics(result)
        if args.stats:
            from .evalkit import render_counters

            print()
            print(render_counters(session.engine, session.metrics))
        if args.stats_json is not None:
            payload = json.dumps(_stats_payload(session), indent=2,
                                 sort_keys=True)
            if args.stats_json == "-":
                print(payload)
            else:
                with open(args.stats_json, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
        return 0


def _cmd_explain(args) -> int:
    from .core import BELLWETHER, SURPRISE

    with _session(args) as session:
        measure = SURPRISE if args.measure == "surprise" else BELLWETHER
        result = session.explain(args.keywords, pick=args.pick,
                                 interestingness=measure,
                                 budget=_budget(args))
        if result is None:
            print(f"fewer than {args.pick} interpretations found")
            return EXIT_NO_RESULT
        if args.json:
            print(json.dumps(result.as_dict(), indent=2))
        else:
            print(result.render())
        return 0


def _cmd_sql(args) -> int:
    with _session(args) as session:
        scored = _pick(session, args)
        if scored is None:
            return 1
        measure = scored.interpretation.measure_hint or "revenue"
        if measure not in session.schema.measures:
            measure = "revenue"
        print(scored.star_net.to_sql(session.schema, measure))
        return 0


def _cmd_experiment(args) -> int:
    if args.which == "figure4":
        queries = (AW_ONLINE_QUERIES if args.warehouse == "online"
                   else AW_RESELLER_QUERIES)
        session = _session(args)
        evaluation = evaluate_ranking(session, queries)
        ranks = list(range(1, 11))
        series = {m.value: evaluation.curve(m, 10) for m in ALL_METHODS}
        print(render_series(ranks, series, x_label="top-x"))
        return 0
    if args.which in ("figure5", "figure6"):
        if args.which == "figure5":
            schema = build_aw_online(num_facts=args.facts, seed=args.seed)
            evaluation = evaluate_buckets_online(schema)
        else:
            schema = build_aw_reseller(num_facts=args.facts,
                                       seed=args.seed)
            evaluation = evaluate_buckets_reseller(schema)
        counts = list(DEFAULT_BUCKET_COUNTS)
        series = {line.label: [line.errors[b] for b in counts]
                  for line in evaluation.lines}
        print(render_series(counts, series, x_label="buckets"))
        return 0
    # figure7
    session = KdapSession(build_aw_online(num_facts=args.facts,
                                          seed=args.seed))
    scenario = evaluate_annealing(session, "France Clothing",
                                  "DimCustomer", "YearlyIncome")
    checkpoints = [1, 10, 50, 100, 200, 500]
    series = {c.label: [c.error_at(i) for i in checkpoints]
              for c in scenario.curves}
    print(f"query='France Clothing', {scenario.basic_intervals} basic "
          "intervals")
    print(render_series(checkpoints, series, x_label="iteration"))
    return 0


def _cmd_warehouse(args) -> int:
    import os

    from .relational.persistence import dump_database

    schema = build_scale(num_facts=args.scale, seed=args.seed,
                         num_products=args.products, num_days=args.days)
    if os.path.exists(args.out):
        os.remove(args.out)
    dump_database(schema.database, args.out)
    message = (f"wrote {schema.num_fact_rows:,} fact rows "
               f"(seed {args.seed}) to {args.out}")
    if args.synonyms is not None:
        from .core import SynonymRegistry

        registry = SynonymRegistry(schema.synonyms)
        registry.save(args.synonyms)
        message += (f"; wrote {len(registry)} synonym terms to "
                    f"{args.synonyms}")
    print(message)
    return 0


def _serve_config(args):
    """Map CLI flags onto a :class:`~repro.service.ServiceConfig`.

    The top-level budget flags become *server ceilings* (clamping every
    client's hints) rather than per-query budgets, and the top-level
    --backend/--resilient shape each worker's session.  Kept
    separate from :func:`_cmd_serve` so tests can check the mapping
    without binding a socket.
    """
    from .service import ServiceConfig

    overrides = {}
    if args.deadline_ms is not None:
        overrides["max_deadline_ms"] = args.deadline_ms
    return ServiceConfig(
        workers=args.pool_workers,
        queue_depth=args.queue_depth,
        enqueue_deadline_ms=args.enqueue_deadline_ms,
        drain_deadline_s=args.drain_deadline_s,
        max_rows=args.max_rows,
        max_interpretations=args.max_interpretations,
        backend=args.backend,
        resilient=args.resilient,
        chaos_error_rate=args.chaos_error_rate,
        chaos_latency_s=args.chaos_latency_s,
        chaos_seed=args.chaos_seed,
        materialize=not args.no_materialize,
        trace_dir=args.trace_dir,
        telemetry=not args.no_telemetry,
        event_capacity=args.event_capacity,
        event_path=args.event_log,
        trace_slow_ms=args.trace_slow_ms,
        trace_head_n=args.trace_head_n,
        slo_target_p95_ms=args.slo_target_p95_ms,
        slo_error_budget=args.slo_error_budget,
        slo_burn_alert=args.slo_burn_alert,
        **overrides,
    )


def _cmd_serve(args) -> int:
    from .service import KdapService, serve_until_signalled

    schema = _WAREHOUSES[args.warehouse](args.facts, args.seed)
    service = KdapService(schema, _serve_config(args))
    return serve_until_signalled(service, args.host, args.port)


def _cmd_top(args) -> int:
    from .obs.top import run_top

    return run_top(args.url, interval_s=args.interval,
                   iterations=args.iterations)


def _cmd_events(args) -> int:
    """``repro events tail``: print the service's newest events.

    A pure HTTP client like ``repro top`` — dogfooding ``/v1/eventz``
    the way an external collector would.  ``--follow`` polls using the
    per-event sequence number as a cursor, so nothing prints twice and
    ring overwrites between polls surface as a gap warning.
    """
    import time as _time
    import urllib.error
    import urllib.request

    from .obs.events import Event

    base = args.url.rstrip("/")

    def fetch():
        with urllib.request.urlopen(f"{base}/v1/eventz?n={args.n}",
                                    timeout=5.0) as response:
            return json.loads(response.read().decode("utf-8"))

    def render(event: dict) -> str:
        if args.json:
            return json.dumps(event, sort_keys=True)
        fields = {key: value for key, value in event.items()
                  if key not in ("seq", "ts", "kind")}
        return Event(event["seq"], event.get("ts", 0.0),
                     event["kind"], fields).describe()

    last_seq = 0
    try:
        while True:
            try:
                payload = fetch()
            except (urllib.error.URLError, OSError) as exc:
                print(f"could not reach {base}: {exc}", file=sys.stderr)
                return EXIT_BACKEND
            fresh = [event for event in payload.get("events", [])
                     if event["seq"] > last_seq]
            if last_seq and fresh and fresh[0]["seq"] > last_seq + 1:
                print(f"... {fresh[0]['seq'] - last_seq - 1} event(s) "
                      "dropped by the ring between polls ...",
                      file=sys.stderr)
            for event in fresh:
                print(render(event))
                last_seq = event["seq"]
            if not args.follow:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


_COMMANDS = {
    "query": _cmd_query,
    "explore": _cmd_explore,
    "explain": _cmd_explain,
    "sql": _cmd_sql,
    "experiment": _cmd_experiment,
    "warehouse": _cmd_warehouse,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "events": _cmd_events,
}

# Exit codes per error-taxonomy branch (argparse itself exits with 2 on
# usage errors; 1 means "ran fine, found nothing").  Observability
# outputs never shift exit codes: --stats-json / --trace-out files are
# written on the success paths and exit code 0 still means "explored
# something", so scripts can parse the JSON without re-checking stderr.
EXIT_NO_RESULT = 1
EXIT_USAGE = 2
EXIT_DEADLINE = 3
EXIT_BUDGET = 4
EXIT_BACKEND = 5
EXIT_ENGINE = 6


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Engine errors surface as one-line stderr messages with distinct exit
    codes, never tracebacks: deadline → 3, budget → 4, backend failure
    (after retries/failover) → 5, any other engine error → 6.

    With ``--trace-out PATH`` the whole command runs under a tracer and
    the Chrome trace is written even on an error exit — a trace of the
    failing query is exactly what the flag is for.
    """
    args = _build_parser().parse_args(argv)
    tracer = Tracer() if args.trace_out is not None else None
    try:
        with tracing_scope(tracer):
            return _COMMANDS[args.command](args)
    except ValueError as exc:
        # bad flag *values* argparse can't see (e.g. --matchers junk)
        # rank with its usage errors, not with engine failures
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DeadlineExceeded as exc:
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except RelationalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.to_chrome_trace(), fh)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
