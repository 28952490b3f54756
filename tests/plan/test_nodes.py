"""Plan-node fingerprints: canonical, hashable, collision-averse."""

import pytest

from repro.plan import (
    AttrKey,
    Filter,
    MultiGroupAggregate,
    RowSet,
    Scan,
    row_source,
)
from repro.plan.builders import ray_filter
from repro.relational.expressions import Col, Compare, Const
from repro.warehouse import EMPTY_PATH, path_from_fk_names


@pytest.fixture(scope="module")
def paths(ebiz):
    product = path_from_fk_names(
        ebiz.database, "TRANSITEM",
        ["fk_item_product", "fk_product_group"])
    store = path_from_fk_names(
        ebiz.database, "TRANSITEM",
        ["fk_item_trans", "fk_trans_store", "fk_store_loc"])
    return product, store


def ray(path, values=("LCD TVs",)):
    """A star-net ray on PGROUP.GroupName, lowered to its filter."""
    return ray_filter(Scan("TRANSITEM"), "PGROUP", "GroupName", values,
                      path.reversed())


class TestFingerprints:
    def test_hashable_and_stable(self, paths):
        product, _ = paths
        plan = ray(product)
        assert plan.fingerprint() == plan.fingerprint()
        hash(plan.fingerprint())

    def test_value_order_is_canonical(self, paths):
        product, _ = paths
        a = ray(product, ("LCD TVs", "VCR"))
        b = ray(product, ("VCR", "LCD TVs"))
        assert a.fingerprint() == b.fingerprint()

    def test_different_values_differ(self, paths):
        product, _ = paths
        assert (ray(product, ("VCR",)).fingerprint()
                != ray(product, ("LCD TVs",)).fingerprint())

    def test_different_paths_differ(self, paths):
        product, store = paths
        a = ray_filter(Scan("TRANSITEM"), "LOCATION", "City", ("Seattle",),
                       store.reversed())
        b = ray_filter(Scan("TRANSITEM"), "LOCATION", "City", ("Seattle",),
                       product.reversed())
        assert a.fingerprint() != b.fingerprint()

    def test_node_kinds_do_not_collide(self, paths):
        product, _ = paths
        scan = Scan("TRANSITEM")
        nodes = [
            scan,
            RowSet("TRANSITEM", (1, 2, 3)),
            ray(product),
            Filter(scan, predicate=Compare(">", Col("Quantity"),
                                           Const(2))),
            MultiGroupAggregate(scan, ((),), "sum",
                                "(UnitPrice * Quantity)"),
            MultiGroupAggregate(
                scan, ((AttrKey("TRANSITEM", "Quantity", EMPTY_PATH),),),
                "sum", "(UnitPrice * Quantity)"),
        ]
        fingerprints = [n.fingerprint() for n in nodes]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_rowset_content_key(self):
        a = RowSet("TRANSITEM", (1, 2, 3))
        b = RowSet("TRANSITEM", (1, 2, 3))
        c = RowSet("TRANSITEM", (1, 2, 4))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestValidation:
    def test_filter_requires_exactly_one_flavour(self):
        scan = Scan("TRANSITEM")
        with pytest.raises(ValueError):
            Filter(scan)
        with pytest.raises(ValueError):
            Filter(scan,
                   predicate=Compare(">", Col("Quantity"), Const(2)),
                   attr=AttrKey("TRANSITEM", "Quantity", EMPTY_PATH),
                   values=(1,))

    def test_partition_requires_keys(self):
        """The aggregate node that holds partitions needs at least one
        grouping (a grouping itself may have no key: the total)."""
        with pytest.raises(ValueError, match="at least one grouping"):
            MultiGroupAggregate(Scan("TRANSITEM"), (), "sum", "1")
        MultiGroupAggregate(Scan("TRANSITEM"), ((),), "sum", "1")

    def test_grouping_keys_are_distinct(self):
        """A pivot groups by two different attributes."""
        key = AttrKey("TRANSITEM", "Quantity", EMPTY_PATH)
        with pytest.raises(ValueError, match="keys of a grouping"):
            MultiGroupAggregate(Scan("TRANSITEM"), ((key, key),), "sum",
                                "1")

    def test_row_source_unwraps(self):
        scan = Scan("TRANSITEM")
        keys = (AttrKey("TRANSITEM", "Quantity", EMPTY_PATH),
                AttrKey("TRANSITEM", "UnitPrice", EMPTY_PATH))
        pivot = MultiGroupAggregate(scan, (keys,), "sum", "1")
        keyed = MultiGroupAggregate(scan, (keys[:1],), "sum", "1")
        assert row_source(pivot) is scan
        assert row_source(keyed) is scan
        assert row_source(scan) is scan
