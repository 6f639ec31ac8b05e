"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSuiteCommand:
    def test_lists_queries(self, capsys):
        assert main(["suite"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") == 80
        assert "match-k01" in output

    def test_filters(self, capsys):
        assert main(["suite", "--type", "ranking",
                     "--capability", "reasoning"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") == 10
        assert "ranking-r01" in output


class TestSqlCommand:
    def test_executes(self, capsys):
        assert main(
            ["sql", "formula_1", "SELECT COUNT(*) FROM circuits"]
        ) == 0
        assert "20" in capsys.readouterr().out

    def test_explain(self, capsys):
        assert main(
            ["sql", "formula_1", "SELECT name FROM circuits",
             "--explain"]
        ) == 0
        assert "Scan" in capsys.readouterr().out

    def test_sql_error_reported(self, capsys):
        assert main(["sql", "formula_1", "SELECT nope FROM circuits"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["sql", "nope", "SELECT 1"])


class TestQueryCommand:
    def test_runs_one_method(self, capsys):
        assert main(
            ["query", "comparison-k02", "--method", "tag"]
        ) == 0
        output = capsys.readouterr().out
        assert "Hand-written TAG" in output
        assert "gold" in output

    def test_unknown_qid(self, capsys):
        assert main(["query", "nope-99"]) == 1
        assert "no query" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert main(
            ["query", "comparison-k02", "--method", "zzz"]
        ) == 1


class TestExportCommand:
    def test_exports_csvs(self, tmp_path, capsys):
        assert main(
            ["export", "debit_card_specializing", str(tmp_path)]
        ) == 0
        written = capsys.readouterr().out.strip().splitlines()
        assert len(written) == 4
        assert (tmp_path / "customers.csv").exists()


class TestBenchCommand:
    def test_small_bench(self, capsys):
        assert main(["bench", "--max-queries", "2"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Table 2" in output


class TestServe:
    def test_healthy_serve(self, capsys):
        assert (
            main(["serve", "--requests", "4", "--fault-rate", "0"]) == 0
        )
        output = capsys.readouterr().out
        assert "availability" in output
        assert "100.00%" in output
        assert "served 4 requests" in output

    def test_faulty_serve_with_fallback_stays_available(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "6",
                    "--fault-rate", "0.4",
                    "--retries", "2",
                ]
            )
            == 0
        )
        assert "100.00%" in capsys.readouterr().out

    def test_unguarded_faulty_serve_exits_nonzero(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "6",
                    "--fault-rate", "0.4",
                    "--retries", "0",
                    "--no-fallback",
                ]
            )
            == 1
        )
        output = capsys.readouterr().out
        assert "FAILED" in output


class TestServeFlagValidation:
    """A flag value the server cannot honour is a usage error: one
    ``error:`` line, exit 2, no traceback, and nothing served."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["serve", "--window", "0"],
            ["serve", "--fault-rate", "1.5"],
            ["serve", "--fault-rate", "-0.1"],
            ["serve", "--fault-rate", "nan"],
            ["serve", "--retries", "-1"],
            ["serve", "--breaker-threshold", "0"],
            ["serve", "--requests", "-1"],
            ["serve", "--max-repairs", "-1"],
            ["serve", "--semantic-cache", "-1"],
            ["serve", "--deadline", "-1"],
            ["serve", "--admit-budget", "-1"],
            ["serve", "--workers", "two"],
            ["trace", "--workers", "0"],
            ["trace", "--window", "0"],
            ["trace", "--requests", "-1"],
        ],
        ids=" ".join,
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert argv[1] in captured.err
        assert "Traceback" not in captured.err

    def test_boundary_values_accepted(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "0",
                    "--workers", "1",
                    "--window", "1",
                    "--fault-rate", "1",
                    "--retries", "0",
                    "--breaker-threshold", "1",
                    "--max-repairs", "0",
                    "--semantic-cache", "0",
                    "--deadline", "0",
                    "--admit-budget", "0",
                ]
            )
            == 0
        )
        assert "served 0 requests" in capsys.readouterr().out


class TestServeAdmission:
    def test_budget_rejects_deep_scans(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "8",
                    "--admit-budget", "10",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "admission-rej" in output
        assert "exceeds admission budget 10" in output

    def test_generous_budget_rejects_nothing(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "8",
                    "--admit-budget", "100000",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "admission-rej           0" in output


class TestAnalyzeCommand:
    def test_valid_query_ok(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "SELECT name FROM circuits LIMIT 3",
                    "--db", "formula_1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "analyze: ok" in output
        assert "estimated LM calls" in output

    def test_broken_query_rejected_with_span(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "SELECT nope FROM circuits",
                    "--db", "formula_1",
                ]
            )
            == 1
        )
        output = capsys.readouterr().out
        assert "analyze: rejected" in output
        assert "ANA003" in output
        assert "^^^^" in output

    def test_requires_db(self):
        with pytest.raises(SystemExit):
            main(["analyze", "SELECT 1"])


class TestLintCommand:
    def test_repository_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "bad.py").write_text(
            "def f(x=[]):\n    return x\n"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "DET104" in output

    def test_missing_src_errors(self, capsys, tmp_path):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2
        assert "no src/" in capsys.readouterr().err

    def test_per_rule_summary(self, capsys, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "bad.py").write_text(
            "def f(x=[], y={}):\n    try:\n        return x, y\n"
            "    except:\n        return None\n"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "per-rule: DET103 x1, DET104 x2" in output

    def test_json_format(self, capsys, tmp_path):
        import json

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "bad.py").write_text(
            "def f(x=[]):\n    return x\n"
        )
        assert (
            main(["lint", "--root", str(tmp_path), "--format", "json"])
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["counts"] == {"DET104": 1}
        assert document["findings"][0]["code"] == "DET104"
        assert document["findings"][0]["path"] == "src/bad.py"


class TestLintConcCommand:
    def test_repository_is_conc_clean(self, capsys):
        assert main(["lint", "--conc"]) == 0
        output = capsys.readouterr().out
        assert "concurrency: ok" in output
        assert "worker-shared surface" in output

    def test_findings_exit_nonzero(self, capsys, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "racy.py").write_text(
            "class Shared:\n    registry = {}\n"
        )
        assert main(["lint", "--conc", "--root", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "CONC207" in output

    def test_json_format(self, capsys, tmp_path):
        import json

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "racy.py").write_text(
            "class Shared:\n    registry = {}\n"
        )
        assert (
            main(
                [
                    "lint", "--conc",
                    "--root", str(tmp_path),
                    "--format", "json",
                ]
            )
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert [f["code"] for f in document["findings"]] == ["CONC207"]


class TestTraceCommand:
    def test_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--requests", "4",
                    "--workers", "2",
                    "--out", str(out),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "served 4 requests" in output
        assert "spans" in output
        import json

        document = json.loads(out.read_text())
        assert document["traceEvents"]
        names = {event["name"] for event in document["traceEvents"]}
        assert "request" in names
        assert "lm.call" in names

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--requests", "2",
                    "--format", "jsonl",
                    "--out", str(out),
                ]
            )
            == 0
        )
        import json

        records = [
            json.loads(line)
            for line in out.read_text().splitlines()
        ]
        assert records[0]["name"] == "request"

    def test_bytes_identical_across_worker_counts(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.json"
            assert (
                main(
                    [
                        "trace",
                        "--requests", "5",
                        "--workers", workers,
                        "--out", str(out),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestServeTrace:
    def test_serve_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve",
                    "--requests", "4",
                    "--trace", str(out),
                ]
            )
            == 0
        )
        assert "trace" in capsys.readouterr().out
        import json

        assert json.loads(out.read_text())["traceEvents"]


class TestSqlExplainAnalyze:
    def test_explain_analyze_prefix(self, capsys):
        assert (
            main(
                [
                    "sql",
                    "formula_1",
                    "EXPLAIN ANALYZE SELECT surname FROM drivers "
                    "ORDER BY surname LIMIT 5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "rows_out=" in output
        assert "vtime=" in output
        assert "Sort" in output
