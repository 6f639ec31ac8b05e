"""Expression depth is bounded in the parser (``MAX_EXPR_DEPTH``).

An expression at the limit runs through every entry point and every
recursive walker behind it — parser, analyzer, optimizer, planner,
compiler, EXPLAIN renderers — from a ``TagServer`` worker thread too.
The same constant caps the joins in one statement, whose tree is
left-deep like a chain.  One level deeper, or ten thousand, is a
``SQLSyntaxError`` with a
position: ``execute`` / ``explain`` / ``explain_analyze`` raise it,
``analyze`` reports ``ANA001`` and ``repro sql`` prints one ``error:``
line.  Before the bound, deep input escaped as a raw ``RecursionError``.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.cli import main
from repro.core import FixedQuerySynthesizer, SingleCallGenerator, TAGPipeline
from repro.db import Database
from repro.db.sql.parser import MAX_EXPR_DEPTH
from repro.errors import SQLSyntaxError
from repro.lm import LMConfig, SimulatedLM
from repro.serve import TagServer

#: Shapes whose depth is ``n`` by the parser's count, and that sqlite3
#: evaluates at the limit too.
PLAIN = {
    "parentheses": lambda n: "(" * (n - 1) + "1" + ")" * (n - 1),
    "plus_chain": lambda n: " + ".join(["1"] * n),
    "unary_minus": lambda n: "- " * (n - 1) + "1",
    "not": lambda n: "NOT " * (n - 1) + "1",
    "and_chain": lambda n: " AND ".join(["1"] * n),
}

#: Shapes sqlite3's own parser stack refuses at this depth.
NESTED = {
    "function_calls": lambda n: "abs(" * (n - 1) + "x" + ")" * (n - 1),
    "case": lambda n: "CASE WHEN x THEN " * (n - 1) + "x" + " END" * (n - 1),
    "scalar_subqueries": lambda n: "(SELECT " * (n - 1) + "1" + ")" * (n - 1),
}

SHAPES = {**PLAIN, **NESTED}


def select(shape: str, depth: int) -> str:
    return f"SELECT {SHAPES[shape](depth)} FROM t"


def joins(count: int) -> str:
    """A cross join of ``count + 1`` one-row tables."""
    tables = ", ".join(f"one AS o{i}" for i in range(count + 1))
    return f"SELECT o0.x FROM {tables}"


def fresh_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    db.execute("CREATE TABLE one (x INTEGER)")
    db.execute("INSERT INTO one VALUES (1)")
    return db


def run_every_entry_point(sql: str) -> list:
    """Rows from a fresh database's ``execute`` (analyzed), after its
    ``analyze``, ``explain`` and ``explain_analyze`` all succeed."""
    db = fresh_db()
    assert db.analyze(sql).ok
    assert db.explain(sql)
    assert db.explain_analyze(sql).render()
    return db.execute(sql, analyze=True).rows


class TestAtTheLimit:
    @pytest.mark.parametrize("shape", sorted(PLAIN))
    def test_matches_sqlite(self, shape):
        sql = select(shape, MAX_EXPR_DEPTH)
        mirror = sqlite3.connect(":memory:")
        mirror.execute("CREATE TABLE t (x INTEGER)")
        mirror.execute("INSERT INTO t VALUES (1), (2)")
        assert run_every_entry_point(sql) == mirror.execute(sql).fetchall()

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_nested_shapes_run(self, shape):
        rows = run_every_entry_point(select(shape, MAX_EXPR_DEPTH))
        assert rows == ([(1,), (1,)] if "sub" in shape else [(1,), (2,)])

    def test_joins_run(self):
        assert run_every_entry_point(joins(MAX_EXPR_DEPTH)) == [(1,)]

    def test_every_walker_runs_on_a_serving_worker(self):
        """Every shape at the limit through every entry point, on the
        workers of a two-worker ``TagServer``."""
        threads = []

        class AllShapes:
            def execute(self, query: str) -> list[dict]:
                threads.append(threading.current_thread().name)
                statements = [
                    select(shape, MAX_EXPR_DEPTH) for shape in sorted(SHAPES)
                ] + [joins(MAX_EXPR_DEPTH)]
                return [
                    {"rows": len(run_every_entry_point(sql))}
                    for sql in statements
                ]

        def factory(lm) -> TAGPipeline:
            return TAGPipeline(
                FixedQuerySynthesizer("SELECT 1"),
                AllShapes(),
                SingleCallGenerator(lm),
            )

        server = TagServer(
            factory, SimulatedLM(LMConfig(seed=0)), workers=2, window=2
        )
        report = server.serve(["first request", "second request"])
        assert all(result.ok for result in report.results), [
            result.result.error for result in report.results
        ]
        assert sorted(threads) == ["tag-worker-0", "tag-worker-1"]


class TestPastTheLimit:
    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 10_000])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_typed_error_from_every_entry_point(self, shape, depth):
        sql = select(shape, depth)
        db = fresh_db()
        for entry_point in (db.execute, db.explain, db.explain_analyze):
            with pytest.raises(SQLSyntaxError, match="too deep") as caught:
                entry_point(sql)
            assert 0 <= caught.value.position < len(sql)
        report = db.analyze(sql)
        assert [d.code for d in report.diagnostics] == ["ANA001"]
        assert "maximum depth" in report.diagnostics[0].message

    @pytest.mark.parametrize("count", [MAX_EXPR_DEPTH + 1, 1_000])
    def test_too_many_joins(self, count):
        sql = joins(count)
        db = fresh_db()
        for entry_point in (db.execute, db.explain, db.explain_analyze):
            with pytest.raises(SQLSyntaxError, match="too many joins"):
                entry_point(sql)
        assert [d.code for d in db.analyze(sql).diagnostics] == ["ANA001"]

    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 10_000])
    def test_cli_prints_one_error_line(self, capsys, depth):
        sql = select("parentheses", depth)
        assert main(["sql", "california_schools", sql]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error:")
        assert "maximum depth" in captured.err

    def test_chain_after_a_deep_operand_counts_both(self):
        """A chain puts every operand parsed before it one level deeper
        per step: a depth-40 operand followed by 30 chain steps is 70
        deep even though neither part alone passes the limit."""
        db = fresh_db()
        deep = "- " * 39 + "x"
        sql = f"SELECT {deep}{' + 1' * 30} FROM t"
        with pytest.raises(SQLSyntaxError, match="too deep"):
            db.execute(sql)
        shallow = f"SELECT {deep}{' + 1' * 20} FROM t"
        assert db.execute(shallow).rows == [(19,), (18,)]

    def test_wide_statements_stay_legal(self):
        """Width is not depth: long IN lists and many select items."""
        db = fresh_db()
        items = ", ".join(f"x + {i}" for i in range(200))
        in_list = ", ".join(str(i) for i in range(500))
        rows = db.execute(
            f"SELECT {items} FROM t WHERE x IN ({in_list})"
        ).rows
        assert len(rows) == 2 and len(rows[0]) == 200
