"""Property test: three-way engine agreement on random star nets.

For arbitrary value selections over the EBiz product-group and store-city
domains, the star net built from them must produce the same aggregate
through all three execution paths:

* the pinned local oracle (semi-join chains over fact-row sets),
* the pinned in-memory JoinQuery oracle (hash-join trees),
* sqlite running the generated SQL.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HitGroup, Ray, StarNet
from repro.relational import SqliteBackend
from repro.textindex import SearchHit
from repro.warehouse import path_from_fk_names

from ..relational.join_oracle import execute_join_query
from ..warehouse import subspace_oracle

GROUPS = ["LCD Projectors", "DLP Projectors", "Flat Panel(LCD)",
          "CRT Monitors", "LCD TVs", "Plasma TVs", "VCR", "DVD Players"]
CITIES = ["Columbus", "Seattle", "San Jose", "Portland", "Denver"]


@pytest.fixture(scope="module")
def backend(ebiz):
    with SqliteBackend(ebiz.database) as b:
        yield b


def build_net(schema, group_values, city_values):
    rays = []
    if group_values:
        hits = tuple(SearchHit("PGROUP", "GroupName", v, 1.0)
                     for v in group_values)
        path = path_from_fk_names(
            schema.database, "TRANSITEM",
            ["fk_item_product", "fk_product_group"]).reversed()
        rays.append(Ray(HitGroup("PGROUP", "GroupName", hits, ("k1",)),
                        path, "Product"))
    if city_values:
        hits = tuple(SearchHit("LOCATION", "City", v, 1.0)
                     for v in city_values)
        path = path_from_fk_names(
            schema.database, "TRANSITEM",
            ["fk_item_trans", "fk_trans_store", "fk_store_loc"]).reversed()
        rays.append(Ray(HitGroup("LOCATION", "City", hits, ("k2",)),
                        path, "Store"))
    return StarNet("TRANSITEM", tuple(rays))


@given(
    groups=st.lists(st.sampled_from(GROUPS), min_size=1, max_size=4,
                    unique=True),
    cities=st.lists(st.sampled_from(CITIES), min_size=0, max_size=3,
                    unique=True),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_three_way_agreement(ebiz, backend, groups, cities):
    net = build_net(ebiz, groups, cities)
    want = subspace_oracle.aggregate(
        ebiz, subspace_oracle.star_net_rows(ebiz, net), "revenue")
    query = net.to_join_query(ebiz, "revenue")
    in_memory = execute_join_query(ebiz.database, query)[0][0]
    via_sqlite = backend.execute(query.to_sql())[0][0] or 0.0
    assert in_memory == pytest.approx(want)
    assert via_sqlite == pytest.approx(want, rel=1e-9)
