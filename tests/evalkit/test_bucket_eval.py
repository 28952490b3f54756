"""Figures 5 & 6 harness: bucket-count convergence."""

import pytest

from repro.evalkit import (
    evaluate_buckets_online,
    evaluate_buckets_reseller,
    rollup_cases,
)
from repro.evalkit.bucket_eval import _hierarchy_parent_map, case_error


@pytest.fixture(scope="module")
def online_eval(aw_online):
    return evaluate_buckets_online(aw_online, bucket_counts=(5, 20, 80))


@pytest.fixture(scope="module")
def reseller_eval(aw_reseller):
    return evaluate_buckets_reseller(aw_reseller,
                                     bucket_counts=(5, 20, 80))


class TestRollupCases:
    def test_subspace_inside_rollup(self, aw_online, aw_engine):
        state = aw_online.groupby_attribute("DimGeography",
                                            "StateProvinceName")
        country = aw_online.groupby_attribute("DimGeography",
                                              "CountryRegionName")
        cases = rollup_cases(aw_online, state, country,
                             _hierarchy_parent_map(aw_online, state,
                                                   country),
                             engine=aw_engine)
        assert cases
        for case in cases:
            assert set(case.subspace.fact_rows) <= set(case.rollup.fact_rows)

    def test_min_rows_respected(self, aw_online, aw_engine):
        state = aw_online.groupby_attribute("DimGeography",
                                            "StateProvinceName")
        country = aw_online.groupby_attribute("DimGeography",
                                              "CountryRegionName")
        mapping = _hierarchy_parent_map(aw_online, state, country)
        cases = rollup_cases(aw_online, state, country, mapping,
                             min_rows=200, engine=aw_engine)
        for case in cases:
            assert len(case.subspace) >= 200


class TestFigure5Shape:
    def test_four_lines(self, online_eval):
        assert len(online_eval.lines) == 4

    def test_errors_nonnegative(self, online_eval):
        for line in online_eval.lines:
            assert all(e >= 0.0 for e in line.errors.values())

    def test_error_decreases_with_buckets(self, online_eval):
        """The headline: error at 80 buckets is no worse than at 5."""
        for line in online_eval.lines:
            assert line.errors[80] <= line.errors[5] + 1e-9

    def test_converged_under_five_percent(self, online_eval):
        assert online_eval.converged_by(80, threshold=5.0)


class TestFigure6Shape:
    def test_three_lines(self, reseller_eval):
        assert len(reseller_eval.lines) == 3
        labels = {line.label.split(" /")[0] for line in reseller_eval.lines}
        assert labels == {"AnnualSales", "AnnualRevenue",
                          "NumberOfEmployees"}

    def test_error_decreases(self, reseller_eval):
        for line in reseller_eval.lines:
            assert line.errors[80] <= line.errors[5] + 1e-9

    def test_converged_under_five_percent(self, reseller_eval):
        assert reseller_eval.converged_by(80, threshold=5.0)


class TestCaseError:
    def test_exact_at_distinct_granularity(self, aw_online, aw_engine):
        """With enough buckets a case's error vanishes."""
        sub = aw_online.groupby_attribute("DimProductSubcategory",
                                          "ProductSubcategoryName")
        cat = aw_online.groupby_attribute("DimProductCategory",
                                          "ProductCategoryName")
        cases = rollup_cases(aw_online, sub, cat,
                             _hierarchy_parent_map(aw_online, sub, cat),
                             engine=aw_engine)
        income = aw_online.groupby_attribute("DimCustomer", "YearlyIncome")
        errors = [
            err for case in cases
            if (err := case_error(case, income, "revenue", 2000))
            is not None
        ]
        assert errors
        assert max(errors) < 1e-6
