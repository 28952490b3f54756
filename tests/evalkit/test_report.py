"""ASCII report renderers."""

from repro.evalkit import (
    render_facets,
    render_series,
    render_star_nets,
    render_table,
)

from ..goldens import assert_golden, paper_tables


class TestRenderTable:
    def test_alignment(self):
        out = render_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_empty_rows(self):
        out = render_table(("x",), [])
        assert "x" in out


class TestRenderSeries:
    def test_columns(self):
        out = render_series([5, 10], {"m1": [1.0, 0.5], "m2": [2.0, 1.5]},
                            x_label="buckets")
        assert "buckets" in out
        assert "m1" in out and "m2" in out
        assert "0.500" in out


class TestRenderStarNets:
    def test_table1_style(self, online_session):
        ranked = online_session.differentiate("California Mountain Bikes",
                                              limit=5)
        out = render_star_nets(ranked, limit=3)
        assert "score" in out
        assert "California" in out
        assert out.count("\n") <= 5


class TestRenderFacets:
    def test_table2_style(self, online_session):
        result = online_session.search("California Mountain Bikes")
        out = render_facets(result.interface, dimensions=["Product"])
        assert "Product Dimension" in out
        assert "Mountain Bikes" in out
        assert "promoted" in out


class TestPaperTableGoldens:
    def test_tables_1_and_2_match_goldens(self, aw_online):
        # rendered as the full report renders them, byte for byte
        for name, text in paper_tables(aw_online).items():
            assert_golden(name, text)
