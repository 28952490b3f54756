"""Seeded scale generator: a small star schema with a huge fact table.

The AdventureWorks builders model realistic *content* (names, promotions,
injected surprises) at tens of thousands of rows.  Benchmarking the
columnar chunk store and its grouped-aggregate kernel needs the opposite
trade-off: a deliberately minimal dimension layout inflated to a million
or more fact rows, generated in a couple of seconds, with value
distributions that exercise every encoding:

* ``DateKey`` is drawn with seasonal weights and then **sorted**, so the
  fact table is clustered on date — long runs for RLE encoding and
  tight, disjoint zone maps that a selective date range can skip.
* ``ProductKey`` is a skewed (zipf) draw over a small catalogue — low
  cardinality, dictionary-encodable, but unordered.
* ``UnitPrice`` is the product's list price, so it shares the product
  column's low cardinality; ``Quantity`` is a small skewed integer.

Everything is driven by one :func:`~repro.datasets.rng.make_rng` seed and
bulk-loaded through :meth:`~repro.relational.table.Table.load_columns`,
so two builds with the same arguments are identical bit for bit.
"""

from __future__ import annotations

import datetime as _dt

from ..relational.catalog import Database
from ..relational.table import Table
from ..relational.types import float_, integer, text
from ..warehouse.graph import path_from_fk_names
from ..warehouse.schema import (
    AttributeKind,
    AttributeRef,
    Dimension,
    GroupByAttribute,
    Hierarchy,
    StarSchema,
)
from .adventureworks import REVENUE
from .rng import make_rng, zipf_weights

_COLORS = ("Black", "Silver", "Red", "Blue", "Yellow", "White")
_CATEGORIES = ("Bikes", "Components", "Clothing", "Accessories")
_MONTHS = ("January", "February", "March", "April", "May", "June",
           "July", "August", "September", "October", "November",
           "December")


def build_scale(num_facts: int = 1_000_000, seed: int = 7,
                num_products: int = 24, num_days: int = 730,
                start: _dt.date = _dt.date(2003, 1, 1)) -> StarSchema:
    """A two-dimension star with ``num_facts`` clustered fact rows."""
    rng = make_rng(seed)
    db = Database("scale")

    # DimProduct: a small catalogue with low-cardinality attributes ----
    products = db.add_table(Table("DimProduct", [
        integer("ProductKey", nullable=False),
        text("ProductName"),
        text("Color"),
        text("CategoryName"),
        float_("ListPrice"),
    ], primary_key="ProductKey"))
    prices: list[float] = []
    for key in range(1, num_products + 1):
        price = round(rng.uniform(5.0, 60.0), 2) * rng.choice((1, 1, 10))
        prices.append(round(price, 2))
        products.insert({
            "ProductKey": key,
            "ProductName": f"Scale Product {key:03d}",
            "Color": _COLORS[(key * 7) % len(_COLORS)],
            "CategoryName": _CATEGORIES[key % len(_CATEGORIES)],
            "ListPrice": prices[-1],
        })

    # DimDate: consecutive days so DateKey ranges map onto time spans --
    dates = db.add_table(Table("DimDate", [
        integer("DateKey", nullable=False),
        text("MonthName"),
        text("CalendarYearName"),
    ], primary_key="DateKey"))
    date_keys: list[int] = []
    day_weights: list[float] = []
    for offset in range(num_days):
        day = start + _dt.timedelta(days=offset)
        key = day.year * 10000 + day.month * 100 + day.day
        date_keys.append(key)
        # mild seasonality: summer and December sell more
        day_weights.append(1.0 + 0.5 * (day.month in (6, 7, 8))
                           + 0.8 * (day.month == 12))
        dates.insert({
            "DateKey": key,
            "MonthName": _MONTHS[day.month - 1],
            "CalendarYearName": f"CY {day.year}",
        })

    # FactScaleSales: bulk column load, clustered on DateKey -----------
    fact = db.add_table(Table("FactScaleSales", [
        integer("OrderKey", nullable=False),
        integer("ProductKey"),
        integer("DateKey"),
        float_("UnitPrice"),
        integer("Quantity"),
    ]))
    db.add_foreign_key("fk_scale_product", "FactScaleSales", "ProductKey",
                       "DimProduct", "ProductKey")
    db.add_foreign_key("fk_scale_date", "FactScaleSales", "DateKey",
                       "DimDate", "DateKey")

    product_keys = rng.choices(range(1, num_products + 1),
                               weights=zipf_weights(num_products, 1.1),
                               k=num_facts)
    fact_dates = sorted(rng.choices(date_keys, weights=day_weights,
                                    k=num_facts))
    fact.load_columns({
        "OrderKey": range(1, num_facts + 1),
        "ProductKey": product_keys,
        "DateKey": fact_dates,
        "UnitPrice": [prices[key - 1] for key in product_keys],
        "Quantity": rng.choices((1, 2, 3, 4), weights=(8, 4, 2, 1),
                                k=num_facts),
    })

    return _scale_schema(db)


def load_scale(path: str) -> StarSchema:
    """Rehydrate a scale warehouse dumped by ``repro warehouse generate``
    (the sqlite file written via
    :func:`~repro.relational.persistence.dump_database`)."""
    from ..relational.persistence import load_database

    return _scale_schema(load_database(path))


def _scale_schema(db: Database) -> StarSchema:
    fact = "FactScaleSales"

    def gb(table: str, column: str, kind: AttributeKind,
           fk_chain: list[str]) -> GroupByAttribute:
        return GroupByAttribute(
            AttributeRef(table, column), kind,
            path_from_fk_names(db, fact, fk_chain),
        )

    product = Dimension(
        name="Product",
        tables=("DimProduct",),
        hierarchies=(
            Hierarchy("ProductCategory", (
                AttributeRef("DimProduct", "ProductName"),
                AttributeRef("DimProduct", "CategoryName"),
            )),
        ),
        groupbys=(
            gb("DimProduct", "ProductName", AttributeKind.CATEGORICAL,
               ["fk_scale_product"]),
            gb("DimProduct", "Color", AttributeKind.CATEGORICAL,
               ["fk_scale_product"]),
            gb("DimProduct", "CategoryName", AttributeKind.CATEGORICAL,
               ["fk_scale_product"]),
            gb("DimProduct", "ListPrice", AttributeKind.NUMERICAL,
               ["fk_scale_product"]),
        ),
    )
    dates = Dimension(
        name="Date",
        tables=("DimDate",),
        hierarchies=(
            Hierarchy("Calendar", (
                AttributeRef("DimDate", "MonthName"),
                AttributeRef("DimDate", "CalendarYearName"),
            )),
        ),
        groupbys=(
            gb("DimDate", "MonthName", AttributeKind.CATEGORICAL,
               ["fk_scale_date"]),
            gb("DimDate", "CalendarYearName", AttributeKind.CATEGORICAL,
               ["fk_scale_date"]),
        ),
    )
    searchable = {
        "DimProduct": ["ProductName", "Color", "CategoryName"],
        "DimDate": ["MonthName", "CalendarYearName"],
    }
    return StarSchema(db, fact, (product, dates), (REVENUE,), searchable,
                      synonyms=SCALE_SYNONYMS)


#: Business-term seed for the metadata matcher ("revenue by month top 3"
#: resolves without any cell-value hit).  Dump/extend via
#: ``repro warehouse generate --synonyms out.json``.
SCALE_SYNONYMS: dict[str, tuple[str, ...]] = {
    "product": ("DimProduct.ProductName",),
    "item": ("DimProduct.ProductName",),
    "category": ("DimProduct.CategoryName",),
    "color": ("DimProduct.Color",),
    "price": ("DimProduct.ListPrice",),
    "month": ("DimDate.MonthName",),
    "year": ("DimDate.CalendarYearName",),
    "revenue": ("measure:revenue",),
    "sales": ("measure:revenue",),
    "turnover": ("measure:revenue",),
}
