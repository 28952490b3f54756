"""Figure 7: numerical partitioning quality vs. annealing iterations.

Each sub-figure fixes a keyword query and a numerical attribute domain,
then runs the splitting-point annealing (Algorithm 2) at target interval
counts K ∈ {5, 6, 7}.  The plotted series is the best-so-far error — the
absolute difference between the correlation over the merged intervals and
over the basic intervals — after each iteration, in correlation
percentage points.

The subspace comes from the full KDAP pipeline: the query is run through
differentiate, the top star net is evaluated, and the first hitted
dimension's roll-up supplies the background series (exactly what a real
explore-phase facet build does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.annealing import AnnealingConfig, AnnealingResult, anneal_splits
from ..core.attribute_ranking import numerical_series
from ..core.facets import rollup_subspaces
from ..core.session import KdapSession


@dataclass
class AnnealingCurve:
    """One Figure 7 line: best-so-far error (%) per iteration."""

    label: str
    num_intervals: int
    errors: list[float]
    result: AnnealingResult

    def error_at(self, iteration: int) -> float:
        """Best-so-far error (percentage points) after ``iteration``."""
        idx = min(iteration, len(self.errors)) - 1
        return self.errors[idx]


@dataclass
class AnnealingScenario:
    """One sub-figure: a query, an attribute, and its K-curves."""

    query: str
    attribute: str
    basic_intervals: int
    curves: list[AnnealingCurve]


def basic_series_for_query(
    session: KdapSession,
    query: str,
    attr_table: str,
    attr_column: str,
    num_buckets: int = 40,
    measure_name: str = "revenue",
) -> tuple[list[float], list[float]]:
    """Run differentiate, take the top star net, and return the
    basic-interval series pair (X over DS', Y over RUP(DS'))."""
    ranked = session.differentiate(query, limit=1)
    if not ranked:
        raise ValueError(f"query {query!r} produced no interpretation")
    star_net = ranked[0].star_net
    subspace = session.engine.evaluate(star_net)
    rollup = rollup_subspaces(session.schema, star_net, session.engine)[0]
    gb = session.schema.groupby_attribute(attr_table, attr_column)
    pair, _ = numerical_series(subspace, rollup, gb, measure_name,
                               num_buckets)
    return list(pair.subspace_series), list(pair.rollup_series)


def evaluate_annealing(
    session: KdapSession,
    query: str,
    attr_table: str,
    attr_column: str,
    interval_counts: Sequence[int] = (5, 6, 7),
    iterations: int = 500,
    num_buckets: int = 40,
    skew_limit: float = 4.0,
    seed: int = 7,
    measure_name: str = "revenue",
) -> AnnealingScenario:
    """Run one Figure 7 sub-figure end to end."""
    x, y = basic_series_for_query(session, query, attr_table, attr_column,
                                  num_buckets, measure_name)
    curves = []
    for k in interval_counts:
        if k > len(x):
            continue
        result = anneal_splits(
            x, y,
            AnnealingConfig(num_intervals=k, skew_limit=skew_limit,
                            iterations=iterations, seed=seed),
        )
        curves.append(AnnealingCurve(
            label=f"K={k}",
            num_intervals=k,
            errors=[e * 100.0 for e in result.error_history],
            result=result,
        ))
    return AnnealingScenario(
        query=query,
        attribute=f"{attr_table}.{attr_column}",
        basic_intervals=len(x),
        curves=curves,
    )
