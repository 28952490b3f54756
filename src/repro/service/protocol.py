"""Wire protocol: strict request parsing, budget clamping, envelopes.

Everything that crosses the HTTP boundary is defined here, away from
sockets and threads, so it is unit-testable (and hypothesis-fuzzable)
in isolation:

* :func:`parse_request` — strict JSON validation.  Malformed bodies,
  unknown fields, wrong types, and absurd budget hints (negative,
  ``10**18``) raise a typed :class:`RequestError` that the server maps
  to a 400 with a machine-readable error payload — a client bug never
  produces a traceback or a 500.
* :func:`make_budget` — the admission→execution contract: a fresh
  per-request :class:`~repro.resilience.budget.Budget` derived from the
  client's hints but clamped element-wise by the server's ceilings.
  Every request gets a finite deadline (the ceiling when no hint).
* envelope builders — JSON-serialisable forms of ranked star nets,
  faceted explore results, and degradation diagnostics, all carrying
  the request id.
* :data:`EXIT_TO_HTTP` — the CLI exit-code taxonomy mapped onto HTTP
  statuses (deadline→504, backend→502, budget-partial→200 + flag), so
  scripting against the CLI and against the service sees one taxonomy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core import RankingMethod
from ..resilience.budget import Budget
from .config import MAX_HINT_COUNT, MAX_HINT_DEADLINE_MS, ServiceConfig

# The CLI's exit-code taxonomy (repro.cli) projected onto HTTP statuses.
# Exit 4 (budget exhausted) intentionally maps to 200: under a budget the
# session degrades to a *partial* result, flagged in the envelope, rather
# than failing the request.
EXIT_TO_HTTP = {
    0: 200,  # explored something
    1: 404,  # ran fine, found no interpretation
    2: 400,  # malformed request (argparse usage error on the CLI)
    3: 504,  # deadline exceeded before any partial result existed
    4: 200,  # budget exhausted -> partial result + "partial": true
    5: 502,  # backend failure after retries/failover
    6: 500,  # any other engine error
}

HTTP_SHED = 429  # queue full or enqueue deadline expired
HTTP_DRAINING = 503  # server shutting down
RETRY_AFTER_S = 1  # Retry-After hint (seconds) sent with 429 and 503


class RequestError(Exception):
    """A client-side request defect (always surfaces as HTTP 400).

    ``field`` names the offending JSON field (empty for body-level
    defects like invalid JSON), ``message`` says what was wrong.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field

    def payload(self) -> dict:
        return error_payload("bad_request", str(self), field=self.field)


def error_payload(kind: str, message: str, **extra) -> dict:
    """The uniform machine-readable error body."""
    error = {"type": kind, "message": message}
    error.update({k: v for k, v in extra.items() if v})
    return {"error": error}


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------
_METHODS = {m.value for m in RankingMethod}
_MEASURES = ("surprise", "bellwether")

#: Accepted fields per endpoint (anything else is a 400: silently
#: ignoring unknown fields hides client typos like "buget").
_FIELDS = {
    "explore": ("query", "pick", "measure", "budget", "matchers"),
    "differentiate": ("query", "limit", "method", "preview_sizes",
                      "budget", "matchers"),
    "explain": ("query", "pick", "measure", "budget", "matchers"),
}

_BUDGET_FIELDS = ("deadline_ms", "max_rows", "max_groups",
                  "max_interpretations")


@dataclass(frozen=True)
class RequestSpec:
    """A validated, normalised request, ready for the admission queue."""

    kind: str
    query: str
    pick: int = 1
    limit: int = 10
    method: str = RankingMethod.STANDARD.value
    measure: str = "surprise"
    preview_sizes: bool = False
    budget_hints: dict = field(default_factory=dict)
    matchers: tuple | None = None


def _require_int(value, field_name: str, low: int, high: int) -> int:
    # bool is an int subclass; a client sending `"pick": true` is a bug
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field_name} must be an integer",
                           field=field_name)
    if not low <= value <= high:
        raise RequestError(
            f"{field_name} must be between {low} and {high}, got {value}",
            field=field_name)
    return value


def _require_choice(value, field_name: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise RequestError(
            f"{field_name} must be one of {sorted(choices)}",
            field=field_name)
    return value


def _parse_budget_hints(raw) -> dict:
    if not isinstance(raw, dict):
        raise RequestError("budget must be an object", field="budget")
    unknown = set(raw) - set(_BUDGET_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown budget field(s): {', '.join(sorted(unknown))}",
            field="budget")
    hints: dict = {}
    for name, value in raw.items():
        qualified = f"budget.{name}"
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            raise RequestError(f"{qualified} must be a number",
                               field=qualified)
        if value != value or value in (float("inf"), float("-inf")):
            raise RequestError(f"{qualified} must be finite",
                               field=qualified)
        if value <= 0:
            raise RequestError(f"{qualified} must be positive",
                               field=qualified)
        ceiling = (MAX_HINT_DEADLINE_MS if name == "deadline_ms"
                   else MAX_HINT_COUNT)
        if value > ceiling:
            raise RequestError(
                f"{qualified} is absurdly large (> {ceiling:g})",
                field=qualified)
        if name != "deadline_ms" and not isinstance(value, int):
            raise RequestError(f"{qualified} must be an integer",
                               field=qualified)
        hints[name] = value
    return hints


def parse_request(kind: str, body: bytes) -> RequestSpec:
    """Validate one POST body into a :class:`RequestSpec` (or raise
    :class:`RequestError`)."""
    if kind not in _FIELDS:
        raise RequestError(f"unknown endpoint kind {kind!r}")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"body is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RequestError("body must be a JSON object")
    unknown = set(data) - set(_FIELDS[kind])
    if unknown:
        raise RequestError(
            f"unknown field(s) for {kind}: {', '.join(sorted(unknown))}")
    query = data.get("query")
    if not isinstance(query, str) or not query.strip():
        raise RequestError("query must be a non-empty string",
                           field="query")
    if len(query) > 10_000:
        raise RequestError("query is too long (max 10000 characters)",
                           field="query")
    spec = {"kind": kind, "query": query.strip()}
    if "pick" in data:
        spec["pick"] = _require_int(data["pick"], "pick", 1, 1000)
    if "limit" in data:
        spec["limit"] = _require_int(data["limit"], "limit", 1, 1000)
    if "method" in data:
        spec["method"] = _require_choice(data["method"], "method",
                                         _METHODS)
    if "measure" in data:
        spec["measure"] = _require_choice(data["measure"], "measure",
                                          _MEASURES)
    if "preview_sizes" in data:
        if not isinstance(data["preview_sizes"], bool):
            raise RequestError("preview_sizes must be a boolean",
                               field="preview_sizes")
        spec["preview_sizes"] = data["preview_sizes"]
    if "budget" in data:
        spec["budget_hints"] = _parse_budget_hints(data["budget"])
    if "matchers" in data:
        spec["matchers"] = _parse_matchers(data["matchers"])
    return RequestSpec(**spec)


_MATCHERS = ("value", "metadata", "pattern")


def _parse_matchers(raw) -> tuple:
    """An ordered, duplicate-free subset of the known matcher names."""
    if not isinstance(raw, list) or not raw:
        raise RequestError(
            "matchers must be a non-empty array of matcher names",
            field="matchers")
    names = []
    for name in raw:
        if not isinstance(name, str) or name not in _MATCHERS:
            raise RequestError(
                f"matchers entries must be one of {list(_MATCHERS)}",
                field="matchers")
        if name in names:
            raise RequestError(f"duplicate matcher {name!r}",
                               field="matchers")
        names.append(name)
    return tuple(names)


# ----------------------------------------------------------------------
# budget clamping
# ----------------------------------------------------------------------
def _clamped(hint, ceiling):
    if ceiling is None:
        return hint
    if hint is None:
        return ceiling
    return min(hint, ceiling)


def make_budget(spec: RequestSpec, config: ServiceConfig) -> Budget:
    """The per-request budget: client hints clamped by server ceilings.

    The deadline is always finite — a request without a hint gets the
    server ceiling, so no admitted request can occupy a worker forever.
    Built at *execution* time (not admission), so queue wait does not
    eat into the query's own deadline; queue sojourn is bounded
    separately by the enqueue deadline.
    """
    hints = spec.budget_hints
    return Budget(
        deadline_ms=_clamped(hints.get("deadline_ms"),
                             config.max_deadline_ms),
        max_rows=_clamped(hints.get("max_rows"), config.max_rows),
        max_groups=_clamped(hints.get("max_groups"), config.max_groups),
        max_interpretations=_clamped(hints.get("max_interpretations"),
                                     config.max_interpretations),
    )


# ----------------------------------------------------------------------
# response envelopes
# ----------------------------------------------------------------------
def _json_value(value):
    """Coerce one cell value to something JSON-serialisable (dates are
    already ISO strings; Intervals and other engine objects stringify)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def star_net_payload(scored) -> dict:
    """One ranked interpretation."""
    net = scored.star_net
    interp = getattr(scored, "interpretation", None)
    payload = {
        "interpretation": (interp.describe() if interp is not None
                           else str(net)),
        "score": round(scored.score, 6),
        "rays": [
            {
                "table": ray.hit_group.table,
                "attribute": ray.hit_group.attribute,
                "values": [_json_value(v)
                           for v in ray.hit_group.values],
                "dimension": ray.dimension,
            }
            for ray in net.rays
        ],
    }
    if interp is not None:
        if interp.attributes:
            payload["attributes"] = [str(gb.ref)
                                     for gb in interp.attributes]
        if interp.measures:
            payload["measures"] = list(interp.measures)
        if interp.modifier.active:
            payload["modifier"] = str(interp.modifier)
        payload["confidence"] = round(interp.confidence, 6)
    if scored.subspace_size is not None:
        payload["subspace_size"] = scored.subspace_size
    return payload


def facets_payload(interface) -> list[dict]:
    """The explore phase's dynamic facets as plain JSON."""
    return [
        {
            "dimension": facet.dimension,
            "attributes": [
                {
                    "table": attr.attribute.ref.table,
                    "column": attr.attribute.ref.column,
                    "score": round(attr.score, 6),
                    "promoted": attr.promoted,
                    "entries": [
                        {
                            "label": entry.label,
                            "value": _json_value(entry.value),
                            "aggregate": entry.aggregate,
                            "score": round(entry.score, 6),
                        }
                        for entry in attr.entries
                    ],
                }
                for attr in facet.attributes
            ],
        }
        for facet in interface.facets
    ]


def diagnostics_payload(diagnostics) -> dict | None:
    """Degradation diagnostics (None when the result was complete)."""
    if diagnostics is None:
        return None
    return diagnostics.as_dict()


def explore_payload(result) -> dict:
    """The `/v1/explore` success envelope body (without request id)."""
    interp = getattr(result, "interpretation", None)
    payload = {
        "interpretation": (interp.describe() if interp is not None
                           else str(result.star_net)),
        "rows": len(result.subspace),
        "total_aggregate": result.total_aggregate,
        "facets": facets_payload(result.interface),
        "partial": result.is_partial,
    }
    diagnostics = diagnostics_payload(result.diagnostics)
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    return payload


def differentiate_payload(ranked, budget) -> dict:
    """The `/v1/differentiate` success envelope body."""
    payload = {
        "interpretations": [star_net_payload(s) for s in ranked],
        "partial": budget is not None and budget.truncated,
    }
    if budget is not None and (budget.truncated
                               or getattr(budget, "notes", None)):
        from ..resilience.diagnostics import Diagnostics

        payload["diagnostics"] = Diagnostics.from_budget(budget).as_dict()
    return payload
