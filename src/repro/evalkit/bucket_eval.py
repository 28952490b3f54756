"""Figures 5 & 6: bucket count vs. group-by attribute score error.

Protocol (paper §6.4): for a roll-up pair (child level → parent level) and
a numerical candidate attribute, every child value defines one *roll-up
case*: the sub-dataspace DS' selects the child value, RUP(DS') selects its
parent value.  For each case we compute the correlation between the
bucketized aggregate series of DS' and RUP(DS') at various basic-interval
counts and compare against the ground truth (one bucket per distinct
value).  The figure reports the error averaged over all cases.

Error metric: the paper plots an unspecified "error percentage"; we use
the absolute difference between the computed and ground-truth correlation
values, in percentage points of the correlation range ([-1, 1] spans 200
points, so a difference of 0.05 reads as 5%).  The *shape* — rapid decay,
<5% by ~40 buckets, convergence by ~80 — is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.attribute_ranking import ground_truth_series, numerical_series
from ..core.interestingness import pearson_correlation
from ..plan.engine import QueryEngine
from ..warehouse.schema import GroupByAttribute, StarSchema
from ..warehouse.subspace import Subspace

DEFAULT_BUCKET_COUNTS: tuple[int, ...] = (5, 10, 20, 40, 80, 160)


@dataclass(frozen=True)
class RollupCase:
    """One roll-up case: DS' (child value) inside RUP(DS') (parent value)."""

    child_value: object
    parent_value: object
    subspace: Subspace
    rollup: Subspace


def rollup_cases(
    schema: StarSchema,
    child_gb: GroupByAttribute,
    parent_gb: GroupByAttribute,
    parent_of: dict,
    min_rows: int = 50,
    *,
    engine,
) -> list[RollupCase]:
    """Enumerate roll-up cases for a child → parent hierarchy pair.

    ``parent_of`` maps child values to parent values (from
    :meth:`StarSchema.parent_map` or equivalent).  Cases with fewer than
    ``min_rows`` fact rows in DS' are skipped: correlations over a handful
    of points are pure noise.  Both spaces of every case are bound to
    ``engine``.
    """
    child_vector = schema.groupby_vector(child_gb)
    parent_vector = schema.groupby_vector(parent_gb)
    by_child: dict = {}
    by_parent: dict = {}
    for rid, (child, parent) in enumerate(zip(child_vector, parent_vector)):
        if child is not None:
            by_child.setdefault(child, []).append(rid)
        if parent is not None:
            by_parent.setdefault(parent, []).append(rid)
    cases = []
    for child_value, rows in sorted(by_child.items(), key=lambda kv: str(kv[0])):
        if len(rows) < min_rows:
            continue
        parent_value = parent_of.get(child_value)
        if parent_value is None or parent_value not in by_parent:
            continue
        cases.append(RollupCase(
            child_value=child_value,
            parent_value=parent_value,
            subspace=Subspace.of(schema, rows, label=str(child_value),
                                 engine=engine),
            rollup=Subspace.of(schema, by_parent[parent_value],
                               label=str(parent_value), engine=engine),
        ))
    return cases


def case_error(
    case: RollupCase,
    target_gb: GroupByAttribute,
    measure_name: str,
    num_buckets: int,
) -> float | None:
    """Error (correlation percentage points) of one case at one bucket
    count; None when the case is degenerate for this attribute."""
    try:
        truth = ground_truth_series(case.subspace, case.rollup, target_gb,
                                    measure_name)
        approx, _ = numerical_series(case.subspace, case.rollup, target_gb,
                                     measure_name, num_buckets)
    except ValueError:
        return None
    if len(truth.subspace_series) < 2 or len(approx.subspace_series) < 2:
        return None
    truth_corr = pearson_correlation(truth.subspace_series,
                                     truth.rollup_series)
    approx_corr = pearson_correlation(approx.subspace_series,
                                      approx.rollup_series)
    return abs(approx_corr - truth_corr) * 100.0


@dataclass
class BucketLine:
    """One line of Figure 5/6: mean error per bucket count."""

    label: str
    errors: dict[int, float]
    num_cases: int


def bucket_error_line(
    schema: StarSchema,
    cases: Sequence[RollupCase],
    target_gb: GroupByAttribute,
    measure_name: str,
    label: str,
    bucket_counts: Sequence[int] = DEFAULT_BUCKET_COUNTS,
) -> BucketLine:
    """Average the per-case errors into one figure line."""
    errors: dict[int, float] = {}
    used = 0
    for num_buckets in bucket_counts:
        values = [
            err for case in cases
            if (err := case_error(case, target_gb, measure_name,
                                  num_buckets)) is not None
        ]
        used = max(used, len(values))
        errors[num_buckets] = (sum(values) / len(values)) if values else 0.0
    return BucketLine(label=label, errors=errors, num_cases=used)


@dataclass
class BucketEvaluation:
    """All lines of one bucket-convergence figure."""

    lines: list[BucketLine]

    def converged_by(self, num_buckets: int, threshold: float) -> bool:
        """True when every line's error at ``num_buckets`` is below
        ``threshold`` percentage points."""
        return all(line.errors[num_buckets] < threshold
                   for line in self.lines)


def _hierarchy_parent_map(schema: StarSchema, child_gb: GroupByAttribute,
                          parent_gb: GroupByAttribute) -> dict:
    """child value → parent value derived from the fact-aligned vectors."""
    child_vector = schema.groupby_vector(child_gb)
    parent_vector = schema.groupby_vector(parent_gb)
    mapping: dict = {}
    for child, parent in zip(child_vector, parent_vector):
        if child is not None and parent is not None:
            mapping.setdefault(child, parent)
    return mapping


def evaluate_buckets_online(
    schema: StarSchema,
    bucket_counts: Sequence[int] = DEFAULT_BUCKET_COUNTS,
    measure_name: str = "revenue",
    min_rows: int = 50,
) -> BucketEvaluation:
    """Figure 5: YearlyIncome and DealerPrice, each under the
    StateProvince→Country and Subcategory→Category roll-ups (4 lines)."""
    state = schema.groupby_attribute("DimGeography", "StateProvinceName")
    country = schema.groupby_attribute("DimGeography", "CountryRegionName")
    sub = schema.groupby_attribute("DimProductSubcategory",
                                   "ProductSubcategoryName")
    cat = schema.groupby_attribute("DimProductCategory",
                                   "ProductCategoryName")
    income = schema.groupby_attribute("DimCustomer", "YearlyIncome")
    dealer = schema.groupby_attribute("DimProduct", "DealerPrice")

    engine = QueryEngine(schema)
    geo_cases = rollup_cases(
        schema, state, country,
        _hierarchy_parent_map(schema, state, country), min_rows,
        engine=engine)
    product_cases = rollup_cases(
        schema, sub, cat,
        _hierarchy_parent_map(schema, sub, cat), min_rows, engine=engine)

    lines = [
        bucket_error_line(schema, geo_cases, income, measure_name,
                          "YearlyIncome / State->Country", bucket_counts),
        bucket_error_line(schema, product_cases, income, measure_name,
                          "YearlyIncome / Subcat->Category", bucket_counts),
        bucket_error_line(schema, geo_cases, dealer, measure_name,
                          "DealerPrice / State->Country", bucket_counts),
        bucket_error_line(schema, product_cases, dealer, measure_name,
                          "DealerPrice / Subcat->Category", bucket_counts),
    ]
    return BucketEvaluation(lines)


def evaluate_buckets_reseller(
    schema: StarSchema,
    bucket_counts: Sequence[int] = DEFAULT_BUCKET_COUNTS,
    measure_name: str = "revenue",
    min_rows: int = 50,
) -> BucketEvaluation:
    """Figure 6: AnnualSales, AnnualRevenue, NumberOfEmployees under the
    Subcategory→Category roll-up (3 lines)."""
    sub = schema.groupby_attribute("DimProductSubcategory",
                                   "ProductSubcategoryName")
    cat = schema.groupby_attribute("DimProductCategory",
                                   "ProductCategoryName")
    cases = rollup_cases(
        schema, sub, cat,
        _hierarchy_parent_map(schema, sub, cat), min_rows,
        engine=QueryEngine(schema))
    lines = [
        bucket_error_line(
            schema, cases,
            schema.groupby_attribute("DimReseller", column),
            measure_name, f"{column} / Subcat->Category", bucket_counts)
        for column in ("AnnualSales", "AnnualRevenue", "NumberOfEmployees")
    ]
    return BucketEvaluation(lines)
