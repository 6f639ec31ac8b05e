"""Golden-diagnostic tests: one pinned case per taxonomy code.

Every documented ANA code must fire on its canonical trigger, with the
expected severity and (where the AST carries positions) a source span
pointing at the offending token.  Codes are stable API — renaming one
is a breaking change, and these tests are the contract.
"""

from __future__ import annotations

import pytest

from repro.analysis import Severity, SQLAnalyzer
from repro.db import Column, Database, DataType, TableSchema


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("name", DataType.TEXT),
                Column("score", DataType.REAL),
            ],
        )
    )
    database.create_table(
        TableSchema(
            "u",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("label", DataType.TEXT),
            ],
        )
    )
    database.insert("t", [(1, "a", 1.5), (2, "b", 2.5)])
    database.insert("u", [(1, "x")])
    return database


def codes(report) -> list[str]:
    return [d.code for d in report.diagnostics]


GOLDEN = [
    ("ANA001", "SELEKT id FROM t"),
    ("ANA002", "SELECT id FROM nope"),
    ("ANA003", "SELECT ghost FROM t"),
    ("ANA004", "SELECT id FROM t JOIN u ON t.id = u.id"),
    ("ANA005", "SELECT FROBNICATE(id) FROM t"),
    ("ANA006", "SELECT id FROM t WHERE COUNT(*) > 1"),
    ("ANA007", "SELECT UPPER(name, name) FROM t"),
    ("ANA008", "SELECT name + 1 FROM t"),
    ("ANA009", "SELECT id FROM t WHERE * > 1"),
    ("ANA010", "SELECT name FROM t GROUP BY id"),
    ("ANA011", "SELECT id FROM t LIMIT id"),
    ("ANA012", "SELECT CAST(id AS BLOB) FROM t"),
    ("ANA013", "SELECT (SELECT id, name FROM t)"),
    ("ANA014", "SELECT id FROM t ORDER BY 9"),
]


class TestGoldenTaxonomy:
    @pytest.mark.parametrize("code,sql", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_code_fires(self, db, code, sql):
        report = SQLAnalyzer(db).analyze(sql)
        assert code in codes(report), report.render()

    @pytest.mark.parametrize(
        "code,sql",
        [case for case in GOLDEN if case[0] != "ANA010"],
        ids=[c for c, _ in GOLDEN if c != "ANA010"],
    )
    def test_errors_reject(self, db, code, sql):
        report = SQLAnalyzer(db).analyze(sql)
        assert not report.ok
        assert all(
            d.severity is Severity.ERROR
            for d in report.diagnostics
            if d.code == code
        )

    def test_warning_does_not_reject(self, db):
        report = SQLAnalyzer(db).analyze("SELECT name FROM t GROUP BY id")
        assert report.ok
        assert [
            d.code for d in report.diagnostics if not d.is_error
        ] == ["ANA010"]


class TestSpans:
    def test_unknown_column_span_covers_token(self, db):
        sql = "SELECT ghost FROM t"
        report = SQLAnalyzer(db).analyze(sql)
        (diagnostic,) = report.errors
        assert diagnostic.span is not None
        assert sql[diagnostic.span.start : diagnostic.span.end] == "ghost"

    def test_unknown_table_span_covers_token(self, db):
        sql = "SELECT id FROM nope"
        report = SQLAnalyzer(db).analyze(sql)
        (diagnostic,) = report.errors
        assert sql[diagnostic.span.start : diagnostic.span.end] == "nope"

    def test_qualified_column_span(self, db):
        sql = "SELECT t.ghost FROM t"
        report = SQLAnalyzer(db).analyze(sql)
        (diagnostic,) = report.errors
        assert sql[diagnostic.span.start : diagnostic.span.end] == "t.ghost"

    def test_function_span_covers_name(self, db):
        sql = "SELECT FROBNICATE(id) FROM t"
        report = SQLAnalyzer(db).analyze(sql)
        (diagnostic,) = report.errors
        assert sql[diagnostic.span.start : diagnostic.span.end] == "FROBNICATE"

    def test_syntax_error_span_present(self, db):
        report = SQLAnalyzer(db).analyze("SELEKT id FROM t")
        (diagnostic,) = report.errors
        assert diagnostic.code == "ANA001"
        assert diagnostic.span is not None

    def test_caret_rendering(self, db):
        sql = "SELECT ghost FROM t"
        report = SQLAnalyzer(db).analyze(sql)
        rendered = report.render()
        assert "^^^^^" in rendered
        assert "analyze: rejected" in rendered


class TestResolution:
    def test_alias_binding_resolves(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT x.name FROM t x WHERE x.score > 1"
        )
        assert report.ok, report.render()

    def test_original_name_hidden_by_alias(self, db):
        report = SQLAnalyzer(db).analyze("SELECT t.name FROM t x")
        assert codes(report) == ["ANA003"]

    def test_same_table_twice_ambiguous(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT id FROM t a JOIN t b ON a.id = b.id"
        )
        assert "ANA004" in codes(report)

    def test_subquery_source_exposes_aliases(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT s.n FROM (SELECT name AS n FROM t) s"
        )
        assert report.ok, report.render()

    def test_unknown_inside_subquery_source(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT s.n FROM (SELECT ghost AS n FROM t) s"
        )
        assert "ANA003" in codes(report)

    def test_having_sees_output_alias(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT name, COUNT(*) AS c FROM t GROUP BY name HAVING c > 1"
        )
        assert report.ok, report.render()

    def test_order_by_output_alias(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT score * 2 AS doubled FROM t ORDER BY doubled"
        )
        assert report.ok, report.render()

    def test_group_by_ordinal_resolves(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT name, COUNT(*) FROM t GROUP BY 1"
        )
        assert report.ok, report.render()

    def test_group_by_ordinal_out_of_range(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT name FROM t GROUP BY 7"
        )
        assert "ANA014" in codes(report)

    def test_star_expansion_typechecks(self, db):
        report = SQLAnalyzer(db).analyze("SELECT * FROM t")
        assert report.ok

    def test_qualified_star_unknown_binding(self, db):
        report = SQLAnalyzer(db).analyze("SELECT z.* FROM t")
        assert "ANA002" in codes(report)

    def test_open_scope_suppresses_cascades(self, db):
        # One unknown table must not drown the report in bogus
        # unknown-column errors for every reference in the query.
        report = SQLAnalyzer(db).analyze(
            "SELECT id, name, score FROM nope WHERE id > 1"
        )
        assert codes(report) == ["ANA002"]


class TestAggregateRules:
    def test_nested_aggregate_rejected(self, db):
        report = SQLAnalyzer(db).analyze("SELECT SUM(COUNT(*)) FROM t")
        assert "ANA006" in codes(report)

    def test_aggregate_in_group_by_rejected(self, db):
        report = SQLAnalyzer(db).analyze(
            "SELECT COUNT(*) FROM t GROUP BY SUM(id)"
        )
        assert "ANA006" in codes(report)

    def test_having_without_grouping_rejected(self, db):
        report = SQLAnalyzer(db).analyze("SELECT id FROM t HAVING id > 1")
        assert "ANA006" in codes(report)

    def test_sum_over_text_rejected(self, db):
        report = SQLAnalyzer(db).analyze("SELECT SUM(name) FROM t")
        assert "ANA008" in codes(report)

    def test_scalar_min_max_multiarg_ok(self, db):
        report = SQLAnalyzer(db).analyze("SELECT MAX(id, 7) FROM t")
        assert report.ok, report.render()

    def test_star_only_for_aggregates(self, db):
        report = SQLAnalyzer(db).analyze("SELECT UPPER(*) FROM t")
        assert "ANA007" in codes(report)


class TestCostEstimate:
    def test_lm_calls_scale_with_rows(self, db):
        db.register_udf("JUDGE", lambda v: "yes", expensive=True)
        report = SQLAnalyzer(db).analyze("SELECT JUDGE(name) FROM t")
        assert report.cost.lm_calls == 2
        assert report.cost.lm_tokens == report.cost.lm_prompt_tokens + (
            report.cost.lm_output_tokens
        )

    def test_join_multiplies_rows(self, db):
        db.register_udf("JUDGE", lambda v: "yes", expensive=True)
        report = SQLAnalyzer(db).analyze(
            "SELECT JUDGE(t.name) FROM t JOIN u ON t.id = u.id"
        )
        assert report.cost.lm_calls == 2 * 1
        assert report.cost.rows_scanned == 2 * 1

    def test_cheap_functions_cost_nothing(self, db):
        report = SQLAnalyzer(db).analyze("SELECT UPPER(name) FROM t")
        assert report.cost.lm_calls == 0

    def test_limit_caps_result_rows(self, db):
        report = SQLAnalyzer(db).analyze("SELECT id FROM t LIMIT 1")
        assert report.cost.result_rows == 1
        assert report.cost.rows_scanned == 2

    def test_ungrouped_aggregate_yields_one_row(self, db):
        report = SQLAnalyzer(db).analyze("SELECT COUNT(*) FROM t")
        assert report.cost.result_rows == 1

    def test_subquery_udf_calls_counted(self, db):
        db.register_udf("JUDGE", lambda v: "yes", expensive=True)
        report = SQLAnalyzer(db).analyze(
            "SELECT id FROM t WHERE id IN (SELECT id FROM t "
            "WHERE JUDGE(name) = 'yes')"
        )
        assert report.cost.lm_calls == 2
