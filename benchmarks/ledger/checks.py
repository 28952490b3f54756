"""Answer checking: structural checks, golden digests, and a brute-force
oracle for the scale warehouse.

A response counts as *failed* when the transport failed, the status is
not 200, the body is not a JSON object, ``partial`` is not ``false``,
its golden digest differs, or the oracle disagrees.

Golden files (``golden/<workload>.json``) map a request's canonical key
to a digest of the parts of the answer that must not change:
interpretation strings, ``rows``, ``total_aggregate`` and facet labels /
aggregates, numbers rounded to 6 significant figures.  Because the
request population does not depend on ``--seed`` (see workloads.py),
every seed is checked against them; a request with no golden entry gets
the structural checks only and is reported as unchecked.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ORACLE_SAMPLES = 5


def sig6(value):
    """Round to 6 significant figures (None / inf / nan pass through as
    text so they still digest)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            return repr(value)
        return float(f"{value:.6g}")
    return value


def answer_view(endpoint: str, payload: dict):
    """The stable part of a 200 response, as plain JSON data."""
    if endpoint == "differentiate":
        return [[i.get("interpretation"), i.get("subspace_size")]
                for i in payload["interpretations"]]
    if endpoint == "explain":
        return payload["explain"]["interpretation"]
    return {
        "interpretation": payload["interpretation"],
        "rows": payload["rows"],
        "total_aggregate": sig6(payload["total_aggregate"]),
        "facets": [
            [facet["dimension"],
             [[attr["table"], attr["column"],
               [[entry["label"], sig6(entry["aggregate"])]
                for entry in attr["entries"]]]
              for attr in facet["attributes"]]]
            for facet in payload["facets"]],
    }


def digest(view) -> str:
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def write_golden(workload: str, digests: dict) -> Path:
    path = GOLDEN_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload,
                   "digests": dict(sorted(digests.items()))},
                  fh, indent=1)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# brute-force oracle (scale warehouse)
# ----------------------------------------------------------------------
class ScaleOracle:
    """``rows`` and ``total_aggregate`` of a conjunctive filter, by a
    plain Python loop over the generated columns."""

    _DIM_OF = {"ProductName": "DimProduct", "Color": "DimProduct",
               "CategoryName": "DimProduct", "MonthName": "DimDate",
               "CalendarYearName": "DimDate"}
    _KEY_OF = {"DimProduct": "ProductKey", "DimDate": "DateKey"}

    def __init__(self, schema):
        self._db = schema.database
        fact = self._db.table(schema.fact_table)
        self._fact = {name: fact.column_values(name)
                      for name in ("ProductKey", "DateKey", "UnitPrice",
                                   "Quantity")}

    def _keys(self, column: str, value: str) -> tuple[str, set]:
        table = self._db.table(self._DIM_OF[column])
        key = self._KEY_OF[table.name]
        return key, {k for k, v in zip(table.column_values(key),
                                       table.column_values(column))
                     if v == value}

    def expected(self, filters) -> tuple[int, float]:
        wanted = [self._keys(column, value) for column, value in filters]
        rows = 0
        total = 0.0
        fact = self._fact
        for i in range(len(fact["UnitPrice"])):
            if all(fact[key][i] in keys for key, keys in wanted):
                rows += 1
                total += fact["UnitPrice"][i] * fact["Quantity"][i]
        return rows, total


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------
def parse_ok(sample) -> tuple[dict | None, str | None]:
    """(payload, None) for a complete 200 answer, else (None, reason)."""
    if sample.status is None:
        return None, f"transport: {sample.error}"
    if sample.status != 200:
        return None, f"status {sample.status}"
    try:
        payload = json.loads(sample.body)
    except ValueError as exc:
        return None, f"malformed JSON: {exc}"
    if not isinstance(payload, dict):
        return None, "body is not a JSON object"
    if payload.get("partial") is not False:
        return None, f"partial={payload.get('partial')!r}"
    return payload, None


def verify(samples, golden: dict, oracle: ScaleOracle | None,
           seed: int) -> dict:
    """Check every sample; returns counts plus the failure reasons.

    The oracle recomputes ``ORACLE_SAMPLES`` distinct requests, chosen
    by ``seed`` among those that carry filters.
    """
    failures: list[str] = []
    failed = [False] * len(samples)
    unchecked = 0
    payloads: dict[str, dict] = {}
    for position, sample in enumerate(samples):
        payload, reason = parse_ok(sample)
        key = sample.request.key
        if reason is None:
            try:
                found = digest(answer_view(sample.request.endpoint,
                                           payload))
            except (KeyError, TypeError) as exc:
                reason = f"unexpected answer shape: {exc!r}"
            else:
                payloads.setdefault(key, payload)
                wanted = golden.get(key)
                if wanted is None:
                    unchecked += 1
                elif wanted != found:
                    reason = f"golden digest {wanted} != {found}"
        if reason is not None:
            failed[position] = True
            failures.append(f"{key}: {reason}")

    oracle_checked = 0
    if oracle is not None:
        with_filters = {s.request.key: s.request for s in samples
                        if s.request.filters and s.request.key in payloads}
        rng = random.Random(f"oracle/{seed}")
        for key in rng.sample(sorted(with_filters),
                              min(ORACLE_SAMPLES, len(with_filters))):
            request = with_filters[key]
            rows, total = oracle.expected(request.filters)
            payload = payloads[request.key]
            oracle_checked += 1
            if payload["rows"] != rows or not math.isclose(
                    payload["total_aggregate"], total, rel_tol=1e-9,
                    abs_tol=1e-6):
                failures.append(
                    f"{request.key}: oracle rows={rows} total={total!r}, "
                    f"server rows={payload['rows']} "
                    f"total={payload['total_aggregate']!r}")
                for position, sample in enumerate(samples):
                    if sample.request.key == request.key:
                        failed[position] = True
    return {"failed_flags": failed, "failures": failures,
            "unchecked": unchecked, "oracle_checked": oracle_checked}
