"""A name's span is its whole source text, quotes and qualifier included.

For each statement of ``CORPUS`` and the name's source text it names,
every diagnostic span of the analyzer's report, and the span of every
:class:`~repro.errors.PlanningError` the engine raises at either
``optimize`` setting, slices exactly that text out of the statement.
The corpus spells names quoted (``"..."``, ```...```, ``[...]``), with
a doubled quote, qualified and as function names.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import PlanningError, ReproError

#: (statement, the source text of the name its diagnostics are about).
CORPUS = [
    ('SELECT "nope" FROM a', '"nope"'),
    ('SELECT "a""b" FROM a', '"a""b"'),
    ("SELECT `no pe` FROM a", "`no pe`"),
    ("SELECT [no pe] FROM a", "[no pe]"),
    ('SELECT * FROM "no pe"', '"no pe"'),
    ('SELECT "no".* FROM a', '"no"'),
    ('SELECT x FROM a WHERE "q r".y = 1', '"q r".y'),
    ('SELECT a."nope" FROM a', 'a."nope"'),
    ('SELECT "a"."nope" FROM a', '"a"."nope"'),
    ('SELECT "id" FROM a JOIN b ON a.id = b.id', '"id"'),
    ('SELECT "x", COUNT(*) FROM a', '"x"'),
    ('SELECT "FROB"(x) FROM a', '"FROB"'),
    ('SELECT "ROUND"(x) FROM a', '"ROUND"'),
    ('SELECT "COUNT"() FROM a', '"COUNT"'),
    ('SELECT x FROM a WHERE "SUM"(id) > 1', '"SUM"'),
    ("SELECT [ABS](*) FROM a", "[ABS]"),
]


def database() -> Database:
    db = Database()
    for name, second in (("a", "x"), ("b", "y")):
        db.create_table(
            TableSchema(
                name,
                [
                    Column("id", DataType.INTEGER),
                    Column(second, DataType.TEXT),
                ],
            )
        )
    db.insert("a", [(1, "p"), (2, "q")])
    db.insert("b", [(2, "u")])
    return db


@pytest.mark.parametrize("sql,name", CORPUS)
def test_every_span_is_the_whole_name(sql, name):
    db = database()
    spans = [
        diagnostic.span
        for diagnostic in db.analyze(sql).diagnostics
        if diagnostic.span is not None
    ]
    assert spans, sql
    for span in spans:
        assert sql[span.start : span.end] == name
    for optimize in (True, False):
        try:
            db.execute(sql, optimize=optimize)
        except PlanningError as error:
            if error.span is not None:
                start, end = error.span
                assert sql[start:end] == name
        except ReproError:
            pass
