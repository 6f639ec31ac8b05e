"""Metered ``max_rows`` truncation: row caps are never silent.

The executor's row cap used to slice results after the engine returned
them — invisible to accounting, so a capped answer looked identical to
a complete one.  Truncation now happens inside the engine, counted in
the bound :class:`~repro.lm.usage.Usage` and surfaced on EXPLAIN
ANALYZE output.
"""

import pytest

from repro.core import SQLExecutor
from repro.errors import ExecutionError
from repro.lm.usage import Usage


class TestEngineTruncation:
    def test_execute_meters_dropped_rows(self, movies_db):
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        result = movies_db.execute("SELECT title FROM movies", max_rows=2)
        assert len(result.rows) == 2
        assert usage.rows_truncated == 4  # 6 movies, kept 2

    def test_uncapped_execution_meters_nothing(self, movies_db):
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        movies_db.execute("SELECT title FROM movies")
        movies_db.execute("SELECT title FROM movies LIMIT 2", max_rows=6)
        assert usage.rows_truncated == 0

    def test_unbound_database_still_truncates(self, movies_db):
        result = movies_db.execute("SELECT title FROM movies", max_rows=1)
        assert len(result.rows) == 1

    def test_explain_analyze_reports_truncation(self, movies_db):
        analyzed = movies_db.explain_analyze(
            "SELECT title FROM movies", max_rows=2
        )
        assert analyzed.truncated == (2, 6)
        assert (
            "Result truncated: kept 2 of 6 rows (max_rows=2)"
            in analyzed.render()
        )

    def test_explain_analyze_no_truncation_no_note(self, movies_db):
        analyzed = movies_db.explain_analyze("SELECT title FROM movies")
        assert analyzed.truncated is None
        assert "Result truncated" not in analyzed.render()


class TestMaxRowsValidation:
    """``max_rows=-1`` used to slice ``rows[:-1]``: the last row went
    missing and one row too many was metered."""

    @pytest.mark.parametrize("bad", [-1, -7, True, 2.0, "2"])
    @pytest.mark.parametrize("repeat", [1, 3])
    def test_refused_and_nothing_metered(self, movies_db, bad, repeat):
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        sql = "SELECT title FROM movies"
        for _ in range(repeat):  # first sight, AST reused, plan reused
            movies_db.execute(sql)
        for run in (movies_db.execute, movies_db.explain_analyze):
            with pytest.raises(ExecutionError) as raised:
                run(sql, max_rows=bad)
            assert str(raised.value) == (
                f"max_rows must be None or an int >= 0, got {bad!r}"
            )
        assert usage.rows_truncated == 0

    def test_refused_whatever_the_statement_is(self, movies_db):
        with pytest.raises(ExecutionError, match="max_rows"):
            movies_db.execute("SELECT 1", max_rows=-1)

    def test_zero_keeps_nothing_and_meters_everything(self, movies_db):
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        for seen in range(1, 4):  # miss, then hits: metered alike
            result = movies_db.execute(
                "SELECT title FROM movies", max_rows=0
            )
            assert result.rows == []
            assert usage.rows_truncated == 6 * seen


class TestExecutorUsesEngineCap:
    def test_sql_executor_cap_is_metered(self, movies_db):
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        records = SQLExecutor(movies_db, max_rows=2).execute(
            "SELECT * FROM movies"
        )
        assert len(records) == 2
        assert usage.rows_truncated == 4

    def test_analyzing_executor_meters_once(self, movies_db):
        """The analyze=True path goes through EXPLAIN ANALYZE; the cap
        must not be double-counted."""
        usage = Usage()
        movies_db.bind_udf_meters(usage=usage)
        records = SQLExecutor(movies_db, analyze=True, max_rows=2).execute(
            "SELECT title FROM movies"
        )
        assert len(records) == 2
        assert usage.rows_truncated == 4
