"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 6 STEP BY 2;
DECLARE PARAMETER @feature_release AS SET (2, 4);
SELECT DemandModel(@current_week, @feature_release) AS demand
INTO results;
OPTIMIZE SELECT @feature_release FROM results
WHERE MAX(EXPECT demand) < 100
GROUP BY feature_release
FOR MAX @feature_release;
"""

GRAPH_QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 6 STEP BY 2;
SELECT DemandModel(@current_week, 3) AS demand INTO results;
GRAPH OVER @current_week EXPECT demand WITH bold red;
"""


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "scenario.sql"
    path.write_text(QUERY)
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.sql"
    path.write_text(GRAPH_QUERY)
    return str(path)


class TestExplain:
    def test_reports_structure(self, query_file, capsys):
        assert main(["explain", query_file]) == 0
        out = capsys.readouterr().out
        assert "@current_week" in out
        assert "RangeParameter" in out
        assert "demand" in out
        assert "optimize clause: yes" in out

    def test_missing_file(self, capsys):
        assert main(["explain", "/no/such/file.sql"]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_optimize_answer_printed(self, query_file, capsys):
        assert main(["run", query_file, "--samples", "30"]) == 0
        out = capsys.readouterr().out
        assert "explored 8 points" in out
        assert "best: @feature_release=4" in out

    def test_run_without_optimize_prints_table(self, graph_file, capsys):
        assert main(["run", graph_file, "--samples", "30"]) == 0
        out = capsys.readouterr().out
        assert "per-point expectations" in out
        assert "demand" in out

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("SELECT FROM;")
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestGraph:
    def test_renders_chart(self, graph_file, capsys):
        assert main(["graph", graph_file, "--samples", "30"]) == 0
        out = capsys.readouterr().out
        assert "GRAPH OVER @current_week" in out
        assert "expect demand" in out

    def test_query_without_graph_clause(self, query_file, capsys):
        assert main(["graph", query_file]) == 2
        assert "no GRAPH clause" in capsys.readouterr().err


class TestStoreCommand:
    @pytest.fixture
    def snapshot(self, tmp_path):
        from repro.serve import build_fixture_session

        path = str(tmp_path / "snap")
        build_fixture_session(bases=5, seed=7).save(path)
        return path

    def test_info_prints_manifest_summary(self, snapshot, capsys):
        import json

        assert main(["store", "info", snapshot]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["stores"]["default"]["bases"] == 5
        assert info["version"] >= 1
        # What is on disk only: a fresh process has no degrade to report.
        assert "backend" not in info

    def test_verify_load_checks(self, snapshot, capsys):
        assert main(["store", "verify", snapshot]) == 0
        assert "5 bases" in capsys.readouterr().out

    def test_evict_bounds_snapshot_in_place(self, snapshot, capsys):
        from repro.api import Session

        assert main(
            ["store", "evict", snapshot, "--max-bases", "2"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        assert Session.open(snapshot).basis_count() == 2

    def test_evict_without_bounds_exits_2(self, snapshot, capsys):
        assert main(["store", "evict", snapshot]) == 2
        assert "max-bases" in capsys.readouterr().err

    def test_compact_writes_to_out_path(self, snapshot, tmp_path, capsys):
        from repro.api import Session

        out = str(tmp_path / "compacted")
        assert main(
            ["store", "compact", snapshot, "--out", out]
        ) == 0
        assert "saved" in capsys.readouterr().out
        assert Session.open(out).basis_count() == 5

    def test_verify_corrupt_snapshot_exits_2(self, snapshot, capsys):
        import os

        manifest = os.path.join(snapshot, "manifest.json")
        with open(manifest) as handle:
            text = handle.read()
        with open(manifest, "w") as handle:
            handle.write(text[: len(text) // 2])
        assert main(["store", "verify", snapshot]) == 2
        assert "error" in capsys.readouterr().err


class TestNoBackendOption:
    """Every subcommand runs the numpy kernels; none takes a selector."""

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "scenario.sql"],
            ["graph", "scenario.sql"],
            ["explain", "scenario.sql"],
            ["serve", "--store", "snap"],
            ["store", "info", "snap"],
        ],
        ids=lambda command: command[0],
    )
    def test_backend_is_an_unrecognized_argument(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
