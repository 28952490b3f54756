"""Command-line interface (exercised in-process via cli.main)."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.relational.errors import (
    BackendUnavailableError,
    BudgetExceeded,
    DeadlineExceeded,
    SchemaError,
)

from .goldens import FIGURES, STATS, assert_golden, stats_json

SMALL = ["--facts", "2000", "--warehouse", "online"]


class TestQuery:
    def test_prints_interpretations(self, capsys):
        code = main([*SMALL, "query", "Road Bikes", "--limit", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Road Bikes" in out
        assert "score" in out

    def test_no_interpretation(self, capsys):
        code = main([*SMALL, "query", "qqqzz"])
        assert code == 1
        assert "no interpretation" in capsys.readouterr().out

    def test_method_flag(self, capsys):
        code = main([*SMALL, "query", "October", "--method", "baseline"])
        assert code == 0


class TestExplore:
    def test_facet_output(self, capsys):
        code = main([*SMALL, "explore", "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fact rows" in out
        assert "Dimension" in out

    def test_bellwether(self, capsys):
        code = main([*SMALL, "explore", "October", "--measure",
                     "bellwether"])
        assert code == 0

    def test_pick_out_of_range(self, capsys):
        code = main([*SMALL, "explore", "October", "--pick", "99"])
        assert code == 1


class TestBackend:
    def test_sqlite_backend_matches_memory(self, capsys):
        code = main([*SMALL, "explore", "Road Bikes"])
        assert code == 0
        memory_out = capsys.readouterr().out
        code = main([*SMALL, "--backend", "sqlite", "explore",
                     "Road Bikes"])
        assert code == 0
        assert capsys.readouterr().out == memory_out

    def test_stats_flag_prints_counters(self, capsys):
        code = main([*SMALL, "--backend", "sqlite", "explore",
                     "Road Bikes", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: sqlite" in out
        assert "plan cache" in out
        assert "SqlExecute" in out

    @pytest.mark.parametrize("name", sorted(STATS))
    def test_stats_json_golden(self, name):
        """The ``--stats-json`` counts (timings dropped) on memory, sqlite
        and the resilient wrapper are pinned byte for byte."""
        assert_golden(name, stats_json(STATS[name]))

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([*SMALL, "--backend", "duckdb", "explore", "Road Bikes"])


class TestResilience:
    def test_resilient_flag_reports_in_stats(self, capsys):
        code = main([*SMALL, "--backend", "sqlite", "--resilient",
                     "explore", "Road Bikes", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: resilient(sqlite)" in out
        assert "resilience: 0 retries, 0 failovers" in out

    def test_row_budget_prints_partial_diagnostics(self, capsys):
        code = main([*SMALL, "--max-rows", "1", "explore", "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partial result" in out
        assert "scanned" in out

    def test_generous_budget_output_matches_unbudgeted(self, capsys):
        code = main([*SMALL, "explore", "Road Bikes"])
        assert code == 0
        plain = capsys.readouterr().out
        code = main([*SMALL, "--deadline-ms", "600000", "--max-rows",
                     "1000000000", "explore", "Road Bikes"])
        assert code == 0
        assert capsys.readouterr().out == plain

    def test_expired_deadline_still_exits_cleanly(self, capsys):
        code = main([*SMALL, "--deadline-ms", "0", "query", "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no interpretation" in out


class TestFlagValues:
    """Out-of-range numeric flags are usage errors, not runs: ``--pick``
    counts from 1 (``--pick 0`` once picked the last candidate) and the
    budget flags from 0 (``--deadline-ms 0`` stays an expired
    deadline)."""

    @pytest.mark.parametrize("argv", [
        ["explore", "Road Bikes", "--pick", "0"],
        ["explain", "Road Bikes", "--pick", "0"],
        ["sql", "Road Bikes", "--pick", "-1"],
        ["--max-rows", "-1", "explore", "Road Bikes"],
        ["--max-interpretations", "-1", "query", "Road Bikes"],
        ["--deadline-ms", "-5", "query", "Road Bikes"],
    ])
    def test_out_of_range_value_exits_with_usage_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*SMALL, *argv])
        assert exc.value.code == cli.EXIT_USAGE
        assert "must be at least" in capsys.readouterr().err


class TestExitCodes:
    """The error taxonomy maps to distinct exit codes and one-line
    stderr messages — never tracebacks."""

    @pytest.mark.parametrize("error,expected", [
        (DeadlineExceeded("too slow"), cli.EXIT_DEADLINE),
        (BudgetExceeded("too much"), cli.EXIT_BUDGET),
        (BackendUnavailableError("all backends down"), cli.EXIT_BACKEND),
        (SchemaError("unknown column"), cli.EXIT_ENGINE),
    ])
    def test_taxonomy_exit_codes(self, monkeypatch, capsys, error,
                                 expected):
        def boom(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "query", boom)
        code = main([*SMALL, "query", "whatever"])
        captured = capsys.readouterr()
        assert code == expected
        assert str(error) in captured.err
        assert "Traceback" not in captured.err

    def test_exit_codes_are_distinct(self):
        codes = {cli.EXIT_NO_RESULT, cli.EXIT_DEADLINE, cli.EXIT_BUDGET,
                 cli.EXIT_BACKEND, cli.EXIT_ENGINE}
        assert len(codes) == 5
        assert 0 not in codes and 2 not in codes  # success / usage


class TestExplain:
    def test_plan_with_actuals(self, capsys):
        code = main([*SMALL, "explain", "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "subspace plan (actual):" in out
        assert "phase breakdown:" in out
        assert "calls=" in out
        assert "differentiate" in out and "explore" in out

    def test_sqlite_marks_pushed_down_nodes(self, capsys):
        code = main([*SMALL, "--backend", "sqlite", "explain",
                     "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[in SQL]" in out

    def test_json_output(self, capsys):
        code = main([*SMALL, "explain", "Road Bikes", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "memory"
        assert payload["plan"]["calls"] >= 1
        assert payload["spans"]

    def test_pick_out_of_range(self, capsys):
        code = main([*SMALL, "explain", "Road Bikes", "--pick", "99"])
        assert code == 1
        assert "interpretations" in capsys.readouterr().out


class TestTraceOut:
    def test_writes_chrome_trace_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([*SMALL, "--trace-out", str(trace_path), "explore",
                     "Road Bikes"])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"differentiate", "explore"} <= names
        assert any(n.startswith("op.") for n in names)
        assert all("ts" in e and "dur" in e for e in events)

    def test_trace_written_even_on_error_exit(self, tmp_path,
                                              monkeypatch, capsys):
        from repro.relational.errors import DeadlineExceeded

        def boom(args):
            raise DeadlineExceeded("too slow")

        monkeypatch.setitem(cli._COMMANDS, "query", boom)
        trace_path = tmp_path / "trace.json"
        code = main([*SMALL, "--trace-out", str(trace_path), "query",
                     "whatever"])
        assert code == cli.EXIT_DEADLINE
        assert "traceEvents" in json.loads(trace_path.read_text())


class TestStatsJson:
    def test_writes_machine_readable_stats(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main([*SMALL, "--backend", "sqlite", "explore",
                     "Road Bikes", "--stats-json", str(stats_path)])
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["backend"] == "sqlite"
        assert stats["plan_cache"]["misses"] >= 1
        assert "SqlExecute" in stats["operators"]
        counters = stats["metrics"]["counters"]
        assert counters["kdap.queries"] == 1
        histograms = stats["metrics"]["histograms"]
        assert histograms["kdap.explore.seconds"]["count"] == 1
        assert "p95" in histograms["kdap.explore.seconds"]

    def test_dash_writes_to_stdout(self, capsys):
        code = main([*SMALL, "explore", "Road Bikes", "--stats-json",
                     "-"])
        assert code == 0
        out = capsys.readouterr().out
        # sort_keys puts "backend" first, marking where the JSON starts
        payload = json.loads(out[out.index('{\n  "backend"'):])
        assert payload["backend"] == "memory"


class TestSql:
    def test_sql_output(self, capsys):
        code = main([*SMALL, "sql", "Road Bikes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SELECT SUM" in out
        assert "FROM FactInternetSales" in out


def assert_figure_golden(capsys, name: str) -> None:
    """The figure's full stdout is its committed golden, byte for byte."""
    code = main(FIGURES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert_golden(name, out)


class TestExperiment:
    def test_figure4_online_small(self, capsys):
        assert_figure_golden(capsys, "figure4_online")

    def test_figure4_reseller_small(self, capsys):
        assert_figure_golden(capsys, "figure4_reseller")

    def test_figure7_small(self, capsys):
        assert_figure_golden(capsys, "figure7")


class TestWarehouses:
    def test_ebiz_query(self, capsys):
        code = main(["--facts", "1000", "--warehouse", "ebiz",
                     "query", "Columbus LCD"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Columbus" in out


class TestExperimentFigures:
    def test_figure5_small(self, capsys):
        assert_figure_golden(capsys, "figure5")

    def test_figure6_small(self, capsys):
        assert_figure_golden(capsys, "figure6")


SCALE = ["--facts", "3000", "--warehouse", "scale"]


class TestMatchers:
    def test_hint_query_explores_via_metadata_and_pattern(self, capsys):
        code = main([*SCALE, "explore", "revenue by month top 3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "measures[revenue]" in out
        assert "DimDate.MonthName (promoted)" in out

    def test_stats_prints_per_matcher_counters(self, capsys):
        code = main([*SCALE, "explore", "revenue by month top 3",
                     "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "match: " in out
        assert "metadata.accepted=1" in out
        assert "pattern.accepted=2" in out

    def test_value_only_chain_restores_legacy_front_end(self, capsys):
        code = main([*SCALE, "--matchers", "value", "query",
                     "revenue by month top 3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no interpretation found" in out
        # satellite: dropped keywords are explained, not silent
        assert "note: keyword 'revenue' matched no enabled matcher" in out

    def test_unknown_matcher_is_usage_error(self, capsys):
        code = main([*SCALE, "--matchers", "value,bogus", "query",
                     "October"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_explain_reports_matcher_breakdown(self, capsys):
        code = main([*SCALE, "explain", "revenue by month top 3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matcher breakdown:" in out
        assert "kdap.match.metadata.accepted: 1" in out

    def test_sql_uses_hinted_measure(self, capsys):
        code = main([*SCALE, "sql", "December sales"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SELECT SUM" in out


class TestWarehouseGenerate:
    def test_synonyms_sidecar_round_trips(self, tmp_path, capsys):
        from repro.core import SynonymRegistry
        from repro.datasets.scale import SCALE_SYNONYMS

        out_db = tmp_path / "scale.sqlite"
        out_json = tmp_path / "synonyms.json"
        code = main(["warehouse", "generate", "--scale", "2000",
                     "--days", "60", "--out", str(out_db),
                     "--synonyms", str(out_json)])
        assert code == 0
        message = capsys.readouterr().out
        assert "synonym terms" in message
        loaded = SynonymRegistry.load(str(out_json))
        assert loaded.as_dict() == \
            SynonymRegistry(SCALE_SYNONYMS).as_dict()
