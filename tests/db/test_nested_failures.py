"""A failure inside a SELECT nested in an expression raises when the
statement plans, whatever the outer table holds.

Such a SELECT is planned only when its value is first read, which an
empty outer table never asks for; so each statement here used to
return no rows over an empty ``t`` and raise over a full one.  Now the
statement's plan raises it before it has a node: the same error, at
the same span, over both tables, at both ``optimize`` settings and
through ``EXPLAIN``.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import PlanningError

CASES = [
    ("SELECT (SELECT ghost FROM u) FROM t",
     "unknown column 'ghost'", (15, 20)),
    ("SELECT i FROM t WHERE i IN (SELECT FOO(a) FROM u)",
     "unknown function 'FOO'", (35, 38)),
    ("SELECT (SELECT ROUND() FROM u) FROM t",
     "ROUND() expects 1..2 argument(s), got 0", (15, 20)),
    ("SELECT i FROM t WHERE EXISTS (SELECT a FROM nope)",
     "no table named 'nope'", (44, 48)),
    ("SELECT i FROM t WHERE i IN (SELECT a FROM u ORDER BY 3)",
     "ORDER BY position 3 out of range", None),
    ("SELECT (SELECT x.* FROM u) FROM t",
     "unknown table 'x' in x.*", (15, 16)),
    ("SELECT i FROM t WHERE i IN "
     "(SELECT a FROM (SELECT b FROM u) AS s)",
     "unknown column 'b'", (50, 51)),
    ("SELECT i FROM t LIMIT (SELECT COUNT(a, a) FROM u)",
     "aggregate COUNT() takes exactly one argument (or '*'), got 2",
     (30, 35)),
]


def build(rows: list[tuple]) -> Database:
    db = Database()
    db.create_table(TableSchema("t", [Column("i", DataType.INTEGER)]))
    db.create_table(TableSchema("u", [Column("a", DataType.INTEGER)]))
    db.insert("t", rows)
    db.insert("u", [(1,), (2,)])
    return db


@pytest.mark.parametrize("sql,error,span", CASES)
@pytest.mark.parametrize("rows", [[], [(1,), (2,), (3,)]])
@pytest.mark.parametrize("optimize", [True, False])
def test_nested_failure_raises_on_any_table(sql, error, span, rows, optimize):
    db = build(rows)
    with pytest.raises(PlanningError) as raised:
        db.execute(sql, optimize=optimize)
    assert (str(raised.value), raised.value.span) == (error, span)
    with pytest.raises(PlanningError, match="."):
        db.explain(sql, optimize=optimize)


@pytest.mark.parametrize("sql,error,span", CASES)
def test_the_analyzer_reports_it_there(sql, error, span):
    spans = [
        None if d.span is None else (d.span.start, d.span.end)
        for d in build([]).analyze(sql).errors
    ]
    assert span in spans
