"""Pin of what a statement answers after its literal siblings have run.

A served workload sends a few statement shapes with new constants each
time.  Whatever ``Database`` derives from one text and reuses for
another text that differs only in its literal values, whitespace or
comments, the text must answer exactly what a database that has never
seen any of them answers.  Following SynSQL's "fixed databases hide
errors", the texts under test carry generated-looking constants, not
only the ones a hot set repeats.

Each shape is a group of texts.  For every text under test, the other
texts of its group run first on one database, each of them twice: as
written and behind a leading tab, so two distinct texts of one shape
have succeeded wherever they can.  Then the text under test runs through
``explain``, ``explain_analyze`` and, three times, ``execute``, on that
database and on a cold one.  Every call must give the same outcome: the
output names, rows and order (or the rendered plan), or the error's
type and message, and for an ``AnalysisError`` its report's codes,
messages and spans.  Siblings and text run with the analyzer on and
off in all four combinations.
"""

from __future__ import annotations

import pytest

from repro.db import Database

#: Groups of texts of one shape (mostly: a few mix token types on
#: purpose, so a sibling of another type sits in the same slot).
SHAPES: dict[str, tuple[str, ...]] = {
    "point": (
        "SELECT id, amount, status FROM orders WHERE id = 3",
        "SELECT id, amount, status FROM orders WHERE id = 11",
        "SELECT id, amount, status FROM orders WHERE id = 123456789",
        "select id, amount, status from orders where id = 0",
    ),
    "key join": (
        "SELECT o.id, o.amount, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id WHERE c.id = 1",
        "SELECT o.id, o.amount, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id WHERE c.id = 3",
        "SELECT o.id, o.amount, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id WHERE c.id = 77",
    ),
    "negative numbers": (
        "SELECT id, amount FROM orders WHERE amount > -1 ORDER BY id",
        "SELECT id, amount FROM orders WHERE amount > - 1 ORDER BY id",
        "SELECT id, amount FROM orders WHERE amount > -2 ORDER BY id",
        "SELECT id, amount FROM orders WHERE amount > --3 ORDER BY id",
        "SELECT id - 1, -amount FROM orders WHERE id = 4",
        "SELECT id - 10, -amount FROM orders WHERE id = 5",
    ),
    "int, float and exponent in one slot": (
        "SELECT id FROM orders WHERE amount < 1 ORDER BY id",
        "SELECT id FROM orders WHERE amount < 1.0 ORDER BY id",
        "SELECT id FROM orders WHERE amount < 1e3 ORDER BY id",
        "SELECT id FROM orders WHERE amount < 2.5 ORDER BY id",
        "SELECT id FROM orders WHERE amount < .5 ORDER BY id",
        "SELECT id FROM orders WHERE amount < 3 ORDER BY id",
        "SELECT id FROM orders WHERE amount < 2E-1 ORDER BY id",
    ),
    "string escapes and non-ASCII": (
        "SELECT id FROM orders WHERE status = 'open' ORDER BY id",
        "SELECT id FROM orders WHERE status = 'it''s' ORDER BY id",
        "SELECT id FROM orders WHERE status = '' ORDER BY id",
        "SELECT id FROM orders WHERE status = 'ünïcödé ☃' ORDER BY id",
        "SELECT id, 'naïve' || status FROM orders WHERE id = 2",
        "SELECT id, '''' || status FROM orders WHERE id = 9",
    ),
    "NULL, TRUE and FALSE": (
        "SELECT id, NULL FROM orders WHERE id = 1",
        "SELECT id, TRUE FROM orders WHERE id = 1",
        "SELECT id, FALSE FROM orders WHERE id = 2",
        "SELECT id, 1 FROM orders WHERE id = 2",
        "SELECT id FROM orders WHERE (amount > 1) = TRUE ORDER BY id",
        "SELECT id FROM orders WHERE (amount > 2) = FALSE ORDER BY id",
        "SELECT id FROM orders WHERE status IS NULL OR id = 3 ORDER BY id",
    ),
    "IN lists": (
        "SELECT id FROM orders WHERE id IN (1, 2, 3) ORDER BY id",
        "SELECT id FROM orders WHERE id IN (4, 5, 60) ORDER BY id",
        "SELECT id FROM orders WHERE id IN (7) ORDER BY id",
        "SELECT id FROM orders WHERE id NOT IN (1, 2, 3) ORDER BY id",
        "SELECT id FROM orders WHERE id IN ('1', 2, 3.0) ORDER BY id",
        "SELECT id FROM orders WHERE status IN ('open', 'x') ORDER BY id",
    ),
    "BETWEEN": (
        "SELECT id, amount FROM orders WHERE id BETWEEN 2 AND 9 "
        "ORDER BY id LIMIT 4",
        "SELECT id, amount FROM orders WHERE id BETWEEN 10 AND 1 "
        "ORDER BY id LIMIT 4",
        "SELECT id, amount FROM orders WHERE id BETWEEN 0 AND 100 "
        "ORDER BY id LIMIT 2",
        "SELECT id, amount FROM orders WHERE id NOT BETWEEN 3 AND 8 "
        "ORDER BY id LIMIT 9",
        "SELECT id, amount FROM orders WHERE amount BETWEEN 1.5 AND 3 "
        "ORDER BY id LIMIT 4",
    ),
    "LIKE patterns": (
        "SELECT id FROM orders WHERE status LIKE 'o%' ORDER BY id",
        "SELECT id FROM orders WHERE status LIKE '%ai%' ORDER BY id",
        "SELECT id FROM orders WHERE status LIKE '_ai_' ORDER BY id",
        "SELECT id FROM orders WHERE status NOT LIKE 'p%' ORDER BY id",
        "SELECT id FROM orders WHERE status LIKE '' ORDER BY id",
    ),
    "LIMIT n": (
        "SELECT id FROM orders ORDER BY id LIMIT 3",
        "SELECT id FROM orders ORDER BY id LIMIT 0",
        "SELECT id FROM orders ORDER BY id LIMIT 100",
        "SELECT id FROM orders ORDER BY id LIMIT -1",
        "SELECT id FROM orders ORDER BY id LIMIT 2.5",
        "SELECT id FROM orders ORDER BY id LIMIT 3 OFFSET 2",
        "SELECT id FROM orders ORDER BY id LIMIT 1 OFFSET 20",
        "SELECT id FROM orders ORDER BY id LIMIT 1 + 1",
        "SELECT id FROM orders ORDER BY id LIMIT 2 + 3",
    ),
    "LIMIT a, b": (
        "SELECT id FROM orders ORDER BY id LIMIT 2, 3",
        "SELECT id FROM orders ORDER BY id LIMIT 5, 1",
        "SELECT id FROM orders ORDER BY id LIMIT 0, 0",
        "SELECT id FROM orders ORDER BY id LIMIT 11, 10",
    ),
    "ORDER BY ordinals": (
        "SELECT id, amount FROM orders ORDER BY 1",
        "SELECT id, amount FROM orders ORDER BY 2 DESC",
        "SELECT id, amount FROM orders ORDER BY 3",
        "SELECT id, amount FROM orders ORDER BY 0",
        "SELECT id, amount FROM orders ORDER BY 1.0",
        "SELECT id, amount FROM orders ORDER BY 2, 1",
        "SELECT id, amount FROM orders ORDER BY 2, 5",
    ),
    "GROUP BY ordinals": (
        "SELECT status, COUNT(*) FROM orders GROUP BY 1 ORDER BY 1",
        "SELECT status, COUNT(*) FROM orders GROUP BY 2 ORDER BY 1",
        "SELECT status, COUNT(*) FROM orders GROUP BY 3 ORDER BY 1",
        "SELECT status, COUNT(*) FROM orders GROUP BY 1 ORDER BY 2",
        "SELECT status, COUNT(*) FROM orders GROUP BY 1 ORDER BY 9",
    ),
    "ordinals in a subquery": (
        "SELECT id FROM orders WHERE customer_id IN "
        "(SELECT id FROM customers ORDER BY 1 LIMIT 2) ORDER BY id",
        "SELECT id FROM orders WHERE customer_id IN "
        "(SELECT id FROM customers ORDER BY 1 LIMIT 3) ORDER BY id",
        "SELECT id FROM orders WHERE customer_id IN "
        "(SELECT id FROM customers ORDER BY 2 LIMIT 2) ORDER BY id",
    ),
    "output names made of literals": (
        'SELECT 5 FROM orders ORDER BY "5" LIMIT 2',
        'SELECT 6 FROM orders ORDER BY "5" LIMIT 2',
        "SELECT x.\"5\" FROM (SELECT 5 FROM orders) AS x LIMIT 2",
        "SELECT x.\"5\" FROM (SELECT 6 FROM orders) AS x LIMIT 2",
        'SELECT ROUND(amount, 1) FROM orders ORDER BY "ROUND(amount, 1)"',
        'SELECT ROUND(amount, 2) FROM orders ORDER BY "ROUND(amount, 1)"',
    ),
    "comments and whitespace": (
        "SELECT id, amount FROM orders WHERE id = 3 AND amount > 0",
        "/* lead */ SELECT  id,amount\nFROM orders -- tail\n"
        "WHERE id=7 AND amount>0",
        "SELECT id, amount FROM orders WHERE id = 333333 AND amount > 0",
        "SELECT\tid ,\namount FROM orders WHERE id = 8 AND amount > 0.25;",
    ),
    "a bad column after a literal": (
        "SELECT id FROM orders WHERE id = 1000001 ORDER BY amount + status",
        "SELECT id FROM orders WHERE id = 9 ORDER BY amount + status",
        "SELECT id FROM orders WHERE id = 12345678901 "
        "ORDER BY amount + status",
        'SELECT id FROM orders WHERE "id" = 42 ORDER BY amount + "status"',
        "SELECT id FROM orders WHERE id = 1 AND nope = 2",
        "SELECT id FROM orders WHERE id = 123 AND nope = 2",
        "SELECT id FROM orders WHERE status = 'a''b' AND amount + status > 1",
        "SELECT id FROM orders WHERE status = 'abc' AND amount + status > 1",
    ),
    "expressions, calls and subqueries": (
        "SELECT CASE WHEN amount > 1 THEN 'hi' ELSE 'lo' END, "
        "SUBSTR(status, 1, 2) FROM orders WHERE id < 4 ORDER BY id",
        "SELECT CASE WHEN amount > 3 THEN 'big' ELSE '' END, "
        "SUBSTR(status, 2, 9) FROM orders WHERE id < 6 ORDER BY id",
        "SELECT CAST(amount AS INTEGER) + 1, COUNT(*) FROM orders "
        "WHERE id > 2 GROUP BY 1 ORDER BY 1",
        "SELECT CAST(amount AS INTEGER) + 7, COUNT(*) FROM orders "
        "WHERE id > 5 GROUP BY 1 ORDER BY 1",
        "SELECT id FROM orders WHERE amount > "
        "(SELECT AVG(amount) FROM orders WHERE id < 5) ORDER BY id",
        "SELECT id FROM orders WHERE amount > "
        "(SELECT AVG(amount) FROM orders WHERE id < 9) ORDER BY id",
        "SELECT name FROM customers c WHERE EXISTS (SELECT 1 FROM orders o "
        "WHERE o.customer_id = c.id AND o.amount > 4) ORDER BY name",
        "SELECT name FROM customers c WHERE EXISTS (SELECT 2 FROM orders o "
        "WHERE o.customer_id = c.id AND o.amount > 5.5) ORDER BY name",
    ),
    "an integer past int()'s digit limit": (
        "SELECT id FROM orders WHERE id = 3 OR id = 4 ORDER BY id",
        "SELECT id FROM orders WHERE id = 5 OR id = 1 ORDER BY id",
        "SELECT id FROM orders WHERE id = " + "9" * 5000
        + " OR id = 4 ORDER BY id",
        "SELECT id FROM orders WHERE id = 3 OR id = " + "8" * 4400
        + " ORDER BY id",
    ),
}

#: (siblings, text under test): each text against the rest of its group.
CASES = [
    pytest.param(
        tuple(other for other in group if other != sql),
        sql,
        id=f"{shape}-{index}",
    )
    for shape, group in SHAPES.items()
    for index, sql in enumerate(group)
]


def database() -> Database:
    db = Database()
    db.execute("CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT)")
    db.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
        "customer_id INTEGER NOT NULL, amount REAL, status TEXT)"
    )
    db.insert("customers", [(id, f"c{id}") for id in range(4)])
    db.insert(
        "orders",
        [
            (id, id % 4, id * 0.5, (None, "open", "paid", "it's")[id % 4])
            for id in range(12)
        ],
    )
    for table, column in (
        ("orders", "id"),
        ("orders", "customer_id"),
        ("customers", "id"),
    ):
        db.create_index(table, column)
    return db


def outcome(call) -> tuple:
    """What a call answered, or its error: type, message and, for an
    analyzer rejection, every diagnostic's code, message and span."""
    try:
        return ("ok", call())
    except Exception as error:  # noqa: BLE001 - the outcome is the point
        report = getattr(error, "report", None)
        diagnostics = (
            None
            if report is None
            else [
                (item.code, item.message, item.span)
                for item in report.diagnostics
            ]
        )
        return ("error", type(error).__name__, str(error), diagnostics)


def calls(db: Database, sql: str, analyze: bool) -> list[tuple]:
    """The text under test through every entry point, in order."""

    def executed():
        result = db.execute(sql, analyze=analyze)
        return result.columns, result.rows

    def explained_analyze():
        analyzed = db.explain_analyze(sql, analyze=analyze)
        return (
            analyzed.result.columns,
            analyzed.result.rows,
            analyzed.render(),
        )

    return [
        outcome(lambda: db.explain(sql)),
        outcome(explained_analyze),
        outcome(executed),
        outcome(executed),
        outcome(executed),
    ]


@pytest.mark.parametrize("siblings, sql", CASES)
@pytest.mark.parametrize("sibling_analyze", [False, True])
@pytest.mark.parametrize("analyze", [False, True])
def test_a_text_answers_as_on_a_cold_database(
    siblings, sql, sibling_analyze, analyze
):
    warm = database()
    for sibling in siblings:
        for text in (sibling, "\t" + sibling):
            outcome(lambda: warm.execute(text, analyze=sibling_analyze))
    assert calls(warm, sql, analyze) == calls(database(), sql, analyze)


def test_every_shape_has_a_text_that_runs():
    """No group is all errors: each pins a template that can stand."""
    for shape, group in SHAPES.items():
        db = database()
        answers = [outcome(lambda: db.execute(sql)) for sql in group]
        assert any(answer[0] == "ok" for answer in answers), shape
