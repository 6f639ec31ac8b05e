"""The analyzer's soundness contract, property-tested.

Invariant: if :class:`~repro.analysis.SQLAnalyzer` reports no
error-severity diagnostics for a generated SELECT, the engine must
plan and execute it without raising — on every bundled BIRD-style
domain.  The generator covers projections, scalar functions,
arithmetic, WHERE predicates (comparisons, LIKE, BETWEEN, IS NULL,
IN-list), grouped and ungrouped aggregation, HAVING, ORDER BY (ordinal
and expression), LIMIT/OFFSET, and inner joins.

SQRT is deliberately excluded: a negative argument is a *data*-
dependent domain error no static analyzer can rule out from the
catalog alone (the documented soundness caveat).

The run also checks the cost bound: actual result rows never exceed
``cost.result_rows``.

The converse (``TestConverse``): when the engine rejects a statement
with a name-resolution :class:`~repro.errors.PlanningError` (unknown
table or column, ambiguous column, bad ``t.*``, ordinal out of range)
at either ``optimize`` setting, the analyzer reports ANA002, ANA003,
ANA004 or ANA014 at the error's span.  Its generator puts unknown
columns, ambiguous names, bad ``t.*`` and out-of-range ordinals in
every clause, ON included, over two tables that share column names.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import re

from repro.analysis import SQLAnalyzer
from repro.data import DOMAINS, load_domain
from repro.db import Column, Database, TableSchema
from repro.db.types import DataType
from repro.errors import PlanningError, ReproError


@lru_cache(maxsize=None)
def _domain(name: str):
    dataset = load_domain(name, seed=0)
    return dataset.db, SQLAnalyzer(dataset.db)


def _columns(db, table, *dtypes):
    return [
        column.name
        for column in db.table(table).schema.columns
        if not dtypes or column.dtype in dtypes
    ]


def _quote(name: str) -> str:
    return f'"{name}"' if " " in name else name


@st.composite
def selects(draw):
    """A random SELECT over a random bundled domain.  Returns
    (domain, sql)."""
    domain = draw(st.sampled_from(sorted(DOMAINS)))
    db, _ = _domain(domain)
    table = draw(st.sampled_from(sorted(db.table_names)))
    numeric = _columns(db, table, DataType.INTEGER, DataType.REAL)
    text = _columns(db, table, DataType.TEXT)
    everything = _columns(db, table)

    def scalar_expression() -> str:
        choice = draw(st.integers(0, 4))
        if choice == 0 and numeric:
            column = _quote(draw(st.sampled_from(numeric)))
            op = draw(st.sampled_from(["+", "-", "*"]))
            return f"{column} {op} {draw(st.integers(-3, 3))}"
        if choice == 1 and numeric:
            fn = draw(st.sampled_from(["ABS", "SIGN", "ROUND"]))
            return f"{fn}({_quote(draw(st.sampled_from(numeric)))})"
        if choice == 2 and text:
            fn = draw(st.sampled_from(["UPPER", "LOWER", "LENGTH", "TRIM"]))
            return f"{fn}({_quote(draw(st.sampled_from(text)))})"
        if choice == 3:
            column = _quote(draw(st.sampled_from(everything)))
            return f"COALESCE({column}, {column})"
        return _quote(draw(st.sampled_from(everything)))

    def predicate() -> str:
        choice = draw(st.integers(0, 4))
        if choice == 0 and numeric:
            column = _quote(draw(st.sampled_from(numeric)))
            op = draw(st.sampled_from(["<", "<=", "=", "<>", ">", ">="]))
            return f"{column} {op} {draw(st.integers(-10, 10))}"
        if choice == 1 and text:
            column = _quote(draw(st.sampled_from(text)))
            return f"{column} LIKE '%{draw(st.sampled_from('aeio'))}%'"
        if choice == 2 and numeric:
            column = _quote(draw(st.sampled_from(numeric)))
            low = draw(st.integers(-5, 5))
            return f"{column} BETWEEN {low} AND {low + 5}"
        if choice == 3:
            column = _quote(draw(st.sampled_from(everything)))
            maybe_not = "NOT " if draw(st.booleans()) else ""
            return f"{column} IS {maybe_not}NULL"
        if numeric:
            return f"{_quote(draw(st.sampled_from(numeric)))} IN (1, 2, 3)"
        return f"{_quote(draw(st.sampled_from(everything)))} IS NOT NULL"

    grouped = draw(st.booleans())
    if grouped:
        group_column = _quote(draw(st.sampled_from(everything)))
        aggregate = "COUNT(*)"
        if numeric and draw(st.booleans()):
            fn = draw(st.sampled_from(["SUM", "AVG", "MIN", "MAX"]))
            aggregate = f"{fn}({_quote(draw(st.sampled_from(numeric)))})"
        items = f"{group_column}, {aggregate} AS agg"
        sql = f"SELECT {items} FROM {table}"
        if draw(st.booleans()):
            sql += f" WHERE {predicate()}"
        sql += f" GROUP BY {group_column}"
        if draw(st.booleans()):
            sql += " HAVING COUNT(*) >= 1"
        if draw(st.booleans()):
            sql += f" ORDER BY {draw(st.sampled_from([1, 2]))}"
    else:
        count = draw(st.integers(1, 3))
        items = ", ".join(
            f"{scalar_expression()} AS c{i}" for i in range(count)
        )
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        sql = f"SELECT {distinct}{items} FROM {table}"
        if draw(st.booleans()):
            sql += f" WHERE {predicate()}"
        if draw(st.booleans()):
            sql += f" ORDER BY {draw(st.integers(1, count))}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 20))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(0, 5))}"
    return domain, sql


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(case=selects())
    def test_accepted_queries_execute(self, case):
        domain, sql = case
        db, analyzer = _domain(domain)
        report = analyzer.analyze(sql)
        if not report.ok:
            return  # rejection is always safe; soundness is one-way
        try:
            result = db.execute(sql)
        except ReproError as error:  # pragma: no cover - the bug trap
            raise AssertionError(
                f"analyzer accepted but engine rejected:\n  {sql}\n"
                f"  engine: {type(error).__name__}: {error}\n"
                f"  report: {report.render()}"
            ) from error
        assert len(result.rows) <= report.cost.result_rows, sql

    @settings(max_examples=50, deadline=None)
    @given(case=selects())
    def test_analysis_matches_preflight_execute(self, case):
        """execute(analyze=True) agrees with the standalone report."""
        domain, sql = case
        db, analyzer = _domain(domain)
        report = analyzer.analyze(sql)
        if report.ok:
            db.execute(sql, analyze=True)  # must not raise
        else:
            from repro.errors import AnalysisError

            try:
                db.execute(sql, analyze=True)
            except AnalysisError as error:
                assert error.report is not None
                assert not error.report.ok
            else:  # pragma: no cover - the bug trap
                raise AssertionError(
                    f"standalone analysis rejected but pre-flight "
                    f"admitted: {sql}"
                )


@lru_cache(maxsize=None)
def _shared_names() -> Database:
    """``a(id, x, n)`` and ``b(id, y, n)``: ``id`` and ``n`` are in both."""
    db = Database()
    db.create_table(
        TableSchema(
            "a",
            [
                Column("id", DataType.INTEGER),
                Column("x", DataType.TEXT),
                Column("n", DataType.INTEGER),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "b",
            [
                Column("id", DataType.INTEGER),
                Column("y", DataType.TEXT),
                Column("n", DataType.INTEGER),
            ],
        )
    )
    db.insert("a", [(1, "p", 1), (2, "q", 2), (3, "p", None)])
    db.insert("b", [(2, "u", 5), (3, "v", 6), (4, "u", 7)])
    return db


#: The engine's name-resolution messages.
_NAME_ERROR = re.compile(
    r"unknown column|ambiguous column|unknown table|no table named"
    r"|position -?\d+ out of range"
)
_NAME_CODES = {"ANA002", "ANA003", "ANA004", "ANA014"}


@st.composite
def faulty_selects(draw):
    """A SELECT over ``a`` (maybe joined to ``b`` or a missing table)
    whose names may not bind, in any clause."""
    source = draw(
        st.sampled_from(
            [
                "a",
                "a AS p",
                "a, b",
                "a JOIN b ON {on}",
                "a LEFT JOIN b ON {on}",
                "a AS p JOIN a AS q ON {on}",
                "a JOIN nope ON {on}",
                "(SELECT a.id, b.id, x FROM a JOIN b ON a.id = b.id) AS s",
            ]
        )
    )
    columns = st.sampled_from(
        [
            "id", "x", "y", "n", "ghost", "a.id", "b.id", "a.x", "b.y",
            "p.id", "q.x", "s.id", "s.x", "c.id", "A.ID", "a.ghost",
        ]
    )

    def predicate() -> str:
        return f"{draw(columns)} {draw(st.sampled_from(['=', '<', '<>']))} " + (
            draw(st.sampled_from(["1", "'p'", draw(columns)]))
        )

    source = source.format(on=predicate())
    items = []
    for _ in range(draw(st.integers(1, 3))):
        items.append(
            draw(
                st.one_of(
                    columns,
                    st.sampled_from(
                        ["*", "a.*", "b.*", "c.*", "COUNT(*)", "1"]
                    ),
                    columns.map(lambda c: f"{c} + 1 AS k"),
                    columns.map(lambda c: f"MAX({c}) AS m"),
                )
            )
        )
    sql = f"SELECT {', '.join(items)} FROM {source}"
    if draw(st.booleans()):
        sql += f" WHERE {predicate()}"
    term = st.one_of(columns, st.integers(-1, 4).map(str))
    if draw(st.booleans()):
        sql += f" GROUP BY {draw(term)}"
        if draw(st.booleans()):
            sql += f" HAVING {predicate()}"
    if draw(st.booleans()):
        sql += f" ORDER BY {draw(term)}"
    return sql


class TestConverse:
    @settings(max_examples=300, deadline=None)
    @given(sql=faulty_selects())
    def test_engine_name_errors_are_reported_at_their_span(self, sql):
        db = _shared_names()
        report = db.analyze(sql)
        spans = {
            (None if d.span is None else (d.span.start, d.span.end))
            for d in report.diagnostics
            if d.code in _NAME_CODES
        }
        for optimize in (True, False):
            try:
                db.execute(sql, optimize=optimize)
            except ReproError as error:
                if isinstance(error, PlanningError) and _NAME_ERROR.search(
                    str(error)
                ):
                    assert error.span in spans, (
                        f"engine rejected but the analyzer did not say "
                        f"where:\n  {sql}\n  optimize={optimize}: "
                        f"{error} at {error.span}\n"
                        f"  report: {report.render()}"
                    )
