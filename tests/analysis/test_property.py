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
For calls it holds both ways: over an empty and a full table alike,
the engine raises a ``PlanningError`` exactly when the analyzer
reports ANA005, ANA006, ANA007, ANA009, ANA012 or ANA013, at one of
their spans, with the same error on both tables.  That generator
calls unknown functions, every builtin at its arity and one off it,
calls with ``*``, aggregates in WHERE, ON, GROUP BY and inside another
aggregate, ``CAST`` to unknown types and two-column subqueries.  And
in order: over those statements and ones with faults in two clauses
(FROM, ON, items, WHERE, GROUP BY, HAVING, ORDER BY), the engine
raises a ``PlanningError`` exactly when the analyzer reports one of
those codes, and it is the analyzer's first, with its message and
span, at both settings over an empty and a full table.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest
import re

from repro.analysis import SQLAnalyzer
from repro.data import DOMAINS, load_domain
from repro.db import Column, Database, TableSchema
from repro.db.resolve import resolve
from repro.db.sql.parser import parse_statement
from repro.db.types import DataType
from repro.errors import PlanningError, ReproError
from tests.analysis.test_function_signatures import AGGREGATES, SCALARS


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


#: Builtins a one-argument UDF is registered over, and argument lists.
SHADOWED = ("ROUND", "ABS", "SUBSTR", "COALESCE", "MIN", "UPPER", "COUNT")
ARGUMENTS = ("", "1.5", "1.5, 1", "x, 1, 2")


class TestShadowedBuiltins:
    """A UDF registered under a builtin's name replaces its signature
    too: the analyzer checks a call against the UDF's arity, so an
    accepted call still executes."""

    @pytest.mark.parametrize("name", SHADOWED)
    @pytest.mark.parametrize("arguments", ARGUMENTS)
    def test_accepted_calls_execute(self, name, arguments):
        db = _shared_names.__wrapped__()
        db.register_udf(name, lambda value: 7)
        sql = f"SELECT {name}({arguments}) FROM a"
        report = db.analyze(sql)
        if not report.ok:
            return
        for optimize in (True, False):
            try:
                db.execute(sql, optimize=optimize)
            except ReproError as error:  # pragma: no cover - the bug trap
                raise AssertionError(
                    f"analyzer accepted but engine rejected:\n  {sql}\n"
                    f"  engine: {type(error).__name__}: {error}"
                ) from error

    def test_round_with_two_arguments_is_ana007(self):
        db = _shared_names.__wrapped__()
        db.register_udf("ROUND", lambda value: 7)
        report = db.analyze("SELECT ROUND(1.5, 1) FROM a")
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("ANA007", "ROUND() expects 1 argument(s), got 2")
        ]
        assert db.execute("SELECT ROUND(1.5) FROM a").rows == [(7,)] * 3


@lru_cache(maxsize=None)
def _shared_names(empty: bool = False) -> Database:
    """``a(id, x, n)`` and ``b(id, y, n)``: ``id`` and ``n`` are in both
    (with no rows in ``a`` when ``empty``)."""
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
    if not empty:
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


_CALL_CODES = {"ANA005", "ANA006", "ANA007", "ANA009", "ANA012", "ANA013"}


def _arities(name: str) -> list[int]:
    """A builtin scalar's argument counts at its bounds and one off."""
    signature = Database().functions.scalar(name).signature
    bounds = [signature.min_args, signature.max_args]
    return sorted(
        {count for bound in bounds if bound is not None
         for count in (bound - 1, bound, bound + 1) if count >= 0}
    )


_ARITIES = {name: _arities(name) for name in SCALARS}


@st.composite
def faulty_calls(draw):
    """A SELECT over ``a`` (maybe joined to ``b``) whose calls may be
    bad, in any clause; every name binds."""
    joined = draw(st.booleans())
    number, text = ("a.n", "a.x") if joined else ("n", "x")
    arguments = st.sampled_from([number, text, "1", "NULL"])

    def call() -> str:
        kind = draw(st.integers(0, 6))
        if kind == 0:
            name = draw(st.sampled_from(SCALARS))
            count = draw(st.sampled_from(_ARITIES[name]))
            listed = ", ".join(draw(arguments) for _ in range(count))
            return f"{name}({listed})"
        if kind == 1:
            inner = draw(
                st.sampled_from(
                    ["*", "", number, f"{number}, 1", "COUNT(*)",
                     f"MAX({number})", f"ABS({number})"]
                )
            )
            return f"{draw(st.sampled_from(AGGREGATES))}({inner})"
        if kind == 2:
            return draw(st.sampled_from(["FOO(*)", "FOO()", f"FOO({text})"]))
        if kind == 3:
            kind_name = draw(st.sampled_from(["INTEGER", "TEXT", "FOO"]))
            return f"CAST({number} AS {kind_name})"
        if kind == 4:
            inner = draw(
                st.sampled_from(["id", "id, y", "COUNT(*)", "ROUND()"])
            )
            return f"(SELECT {inner} FROM b)"
        if kind == 5:
            width = draw(st.sampled_from(["id", "id, y"]))
            return f"{number} IN (SELECT {width} FROM b)"
        return number

    source = "a"
    if joined:
        source = f"a JOIN b ON a.id = b.id AND {call()} IS NOT NULL"
    items = ", ".join(call() for _ in range(draw(st.integers(1, 2))))
    sql = f"SELECT {items} FROM {source}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(st.sampled_from([call(), '*']))} IS NOT NULL"
    if draw(st.booleans()):
        sql += f" GROUP BY {call()}"
    return sql


#: Per clause, fragments holding a fault: names that do not bind and
#: bad calls, and where a clause takes one, an ordinal out of range.
_NAME_FAULTS = ["ghost", "a.ghost", "c.id", "nope + 1"]
_CALL_FAULTS = [
    "FOO(n)", "FOO(ghost)", "ROUND(ghost, 1, 2)", "ABS()", "SUM(*)",
    "CAST(ghost AS BLOB)", "(SELECT id, y FROM b)",
    "n IN (SELECT nope FROM b)", "MAX(COUNT(*))",
]
_CLAUSES = ["from", "on", "items", "where", "group", "having", "order"]


@st.composite
def two_fault_selects(draw):
    """A SELECT over ``a`` (maybe joined to ``b``, whose ``id`` and
    ``n`` clash with ``a``'s) with a fault in each of two clauses, and
    maybe more inside one fragment."""
    faulty = set(draw(st.lists(
        st.sampled_from(_CLAUSES), min_size=2, max_size=2, unique=True
    )))

    def fault(extra: tuple[str, ...] = ()) -> str:
        return draw(st.sampled_from(_NAME_FAULTS + _CALL_FAULTS + list(extra)))

    joined = "on" in faulty or draw(st.booleans())
    source = "a"
    if "from" in faulty:
        source = draw(st.sampled_from(
            ["a, nope", f"a, (SELECT {fault()} AS z FROM b) AS s"]
        ))
    if joined:
        on = f" AND {fault()} IS NOT NULL" if "on" in faulty else ""
        source += f" JOIN b ON a.id = b.id{on}"
    clauses = {
        "items": ("a.x, a.id", ("c.*", "id")),
        "where": ("WHERE a.id > 1", ("id",)),
        "group": ("GROUP BY a.x", ("9", "id")),
        "having": ("HAVING COUNT(*) > 0", ("n",)),
        "order": ("ORDER BY 1", ("9", "id")),
    }
    parts = {}
    for clause, (good, extra) in clauses.items():
        if clause in faulty:
            parts[clause] = fault(extra)
        elif clause == "items" or draw(st.booleans()):
            parts[clause] = good
    items = parts["items"]
    sql = f"SELECT {items} FROM {source}"
    for clause, head in (("where", "WHERE"), ("group", "GROUP BY"),
                         ("having", "HAVING"), ("order", "ORDER BY")):
        fragment = parts.get(clause)
        if fragment is None:
            continue
        if clause in faulty:
            suffix = " IS NOT NULL" if clause in ("where", "having") else ""
            fragment = f"{head} {fragment}{suffix}"
        sql += f" {fragment}"
    return sql


def _engine(db: Database, sql: str, optimize: bool):
    try:
        db.execute(sql, optimize=optimize)
    except ReproError as error:
        return error
    return None


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

    @settings(max_examples=300, deadline=None)
    @given(sql=faulty_calls())
    def test_engine_refuses_a_call_iff_the_analyzer_does(self, sql):
        full, empty = _shared_names(), _shared_names(empty=True)
        report = full.analyze(sql)
        assert report.diagnostics == empty.analyze(sql).diagnostics
        spans = {
            (None if d.span is None else (d.span.start, d.span.end))
            for d in report.diagnostics
            if d.code in _CALL_CODES
        }
        for optimize in (True, False):
            errors = [_engine(db, sql, optimize) for db in (full, empty)]
            refused = [isinstance(e, PlanningError) for e in errors]
            assert refused == [bool(spans)] * 2, (
                f"{sql}\n  optimize={optimize}: {errors}\n"
                f"  report: {report.render()}"
            )
            if spans:
                full_error, empty_error = errors
                assert full_error.span in spans, (sql, full_error)
                assert (str(full_error), full_error.span) == (
                    str(empty_error), empty_error.span
                )

    @settings(max_examples=300, deadline=None)
    @given(
        sql=st.one_of(two_fault_selects(), faulty_selects(), faulty_calls())
    )
    @example(sql="SELECT ghost FROM a WHERE nope = 1")
    def test_engine_raises_the_analyzers_first_error(self, sql):
        """With faults in two clauses, the engine's error is the
        analyzer's first name or call diagnostic, at both settings and
        whatever the rows: the message the resolver's failure pairs
        with that diagnostic, at its span."""
        full, empty = _shared_names(), _shared_names(empty=True)
        codes = _NAME_CODES | _CALL_CODES
        errors = [d for d in full.analyze(sql).diagnostics if d.code in codes]
        assert errors == [
            d for d in empty.analyze(sql).diagnostics if d.code in codes
        ]
        expected = None
        if errors:
            # The engine's wording of a failure is the resolver's record
            # of it, paired there with the analyzer's.
            first = errors[0]
            span = first.span and (first.span.start, first.span.end)
            worded = {
                (f.code, f.message, f.position): f.error
                for f in resolve(full, parse_statement(sql)).failures.values()
            }
            key = (first.code, first.message, span and span[0])
            expected = (worded.get(key), span)
        for optimize in (True, False):
            for db in (full, empty):
                error = _engine(db, sql, optimize)
                found = (
                    (str(error), error.span)
                    if isinstance(error, PlanningError)
                    else None
                )
                assert found == expected, (
                    f"{sql}\n  optimize={optimize}, {len(db.table('a'))} "
                    f"rows: {error!r}\n  analyzer: {errors}"
                )


class TestSpans:
    """ANA012 and ANA013 point at their node, as the engine's error
    does (``tests/analysis/test_diagnostics_golden.py`` pins the other
    codes' spans)."""

    @pytest.mark.parametrize(
        "sql,code,text",
        [
            ("SELECT CAST(n AS BLOB) FROM a", "ANA012", "BLOB"),
            ('SELECT CAST(n AS "Foo") FROM a', "ANA012", '"Foo"'),
            ("SELECT (SELECT id, y FROM b) FROM a", "ANA013",
             "(SELECT id, y FROM b)"),
            ("SELECT x FROM a WHERE n NOT IN ( SELECT id, y FROM b )",
             "ANA013", "( SELECT id, y FROM b )"),
        ],
    )
    def test_span_covers_the_node(self, sql, code, text):
        db = _shared_names()
        (diagnostic,) = db.analyze(sql).errors
        span = (diagnostic.span.start, diagnostic.span.end)
        assert (diagnostic.code, sql[span[0] : span[1]]) == (code, text)
        with pytest.raises(PlanningError) as raised:
            db.execute(sql)
        assert raised.value.span == span
