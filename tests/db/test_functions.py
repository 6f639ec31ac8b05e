"""Unit tests for builtin scalar/aggregate functions via SQL."""

import pytest

from repro.db import Database
from repro.errors import ExecutionError, PlanningError


@pytest.fixture()
def db() -> Database:
    return Database()


def scalar(db, expression):
    return db.execute(f"SELECT {expression}").scalar()


class TestScalars:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("ABS(-3)", 3),
            ("ROUND(2.5)", 3.0),  # SQLite rounds half away from zero
            ("ROUND(-2.5)", -3.0),
            ("ROUND(2.345, 2)", 2.35),
            ("LENGTH('abc')", 3),
            ("UPPER('abc')", "ABC"),
            ("LOWER('ABC')", "abc"),
            ("TRIM('  x  ')", "x"),
            ("LTRIM('  x')", "x"),
            ("RTRIM('x  ')", "x"),
            ("REPLACE('banana', 'na', 'xy')", "baxyxy"),
            ("SUBSTR('hello', 2, 3)", "ell"),
            ("SUBSTR('hello', 2)", "ello"),
            ("SUBSTR('hello', -3)", "llo"),
            ("INSTR('hello', 'll')", 3),
            ("INSTR('hello', 'z')", 0),
            ("COALESCE(NULL, NULL, 5)", 5),
            ("IFNULL(NULL, 'x')", "x"),
            ("NULLIF(1, 1)", None),
            ("NULLIF(1, 2)", 1),
            ("IIF(1 > 0, 'yes', 'no')", "yes"),
            ("SQRT(9)", 3.0),
            ("FLOOR(2.7)", 2.0),
            ("CEIL(2.1)", 3.0),
            ("SIGN(-9)", -1),
            ("MIN(3, 1, 2)", 1),
            ("MAX(3, 1, 2)", 3),
        ],
    )
    def test_scalar_results(self, db, expression, expected):
        assert scalar(db, expression) == expected

    @pytest.mark.parametrize(
        "expression",
        ["ABS(NULL)", "LENGTH(NULL)", "UPPER(NULL)", "MIN(1, NULL)"],
    )
    def test_null_propagation(self, db, expression):
        assert scalar(db, expression) is None

    def test_unknown_function(self, db):
        # Refused when the statement plans, at the name's span.
        with pytest.raises(PlanningError) as raised:
            db.execute("SELECT NOPE(1)")
        assert raised.value.span == (7, 11)

    def test_cast_leniency(self, db):
        assert scalar(db, "CAST('12' AS INTEGER)") == 12
        assert scalar(db, "CAST('x' AS INTEGER)") == 0
        assert scalar(db, "CAST(3 AS TEXT)") == "3"


class TestAggregateTypeErrors:
    """An aggregate over a value it cannot fold raises the typed error,
    through ``Database.execute`` and through the exec step alike."""

    @pytest.fixture()
    def texts(self, db) -> Database:
        db.execute("CREATE TABLE t (s TEXT)")
        return db

    def test_avg_over_text_is_an_execution_error(self, texts):
        texts.execute("INSERT INTO t VALUES ('x')")
        with pytest.raises(
            ExecutionError, match="AVG over non-numeric value 'x'"
        ):
            texts.execute("SELECT AVG(s) FROM t", analyze=False)
        with pytest.raises(
            ExecutionError, match="SUM over non-numeric value 'x'"
        ):
            texts.execute("SELECT SUM(s) FROM t", analyze=False)

    def test_avg_over_numeric_looking_text_still_averages(self, texts):
        texts.execute("INSERT INTO t VALUES ('1.5'), (' 2.5 '), (NULL)")
        assert texts.execute("SELECT AVG(s) FROM t").scalar() == 2.0

    def test_exec_step_reports_the_typed_error(self, texts):
        from repro.core import (
            FixedQuerySynthesizer,
            NoGenerator,
            SQLExecutor,
            TAGPipeline,
        )

        texts.execute("INSERT INTO t VALUES ('1'), ('x')")
        executor = SQLExecutor(texts)
        with pytest.raises(ExecutionError, match="AVG over non-numeric"):
            executor.execute("SELECT AVG(s) FROM t")
        result = TAGPipeline(
            FixedQuerySynthesizer("SELECT AVG(s) FROM t"),
            executor,
            NoGenerator(),
        ).run("average?")
        assert not result.ok
        assert result.error.kind == "ExecutionError"
        assert result.error.step_name == "execution"
        assert "AVG over non-numeric value 'x'" in result.error.message
