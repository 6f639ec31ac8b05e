"""A write is the SELECT of its targets.

UPDATE and DELETE are planned as ``SELECT <assigned values> FROM t
WHERE ...`` with each row's id riding after it, and INSERT as the
SELECT of its values; the plan runs to its end before a row is
written.  So a write

* makes the LM calls the SELECT with its WHERE and items makes, on
  every route, at shards 1 and 2, and writes what the per-row oracle
  (``udf_batch_size=None``) writes, or fails at its first failing row.
  One exception: when both the WHERE and a value call the function on
  a partitioned table, the write makes the calls of the SELECT on the
  unpartitioned table, fewer than the sharded SELECT makes.  A write
  selects every target before it computes a value (a WHERE that fails
  anywhere wins over a value that fails earlier), so its values are
  computed above the shard merge, where the WHERE's results are in the
  UDF memo; the SELECT computes them in each shard, which sees only
  the memo as the statement found it;
* runs a subquery as a SELECT does, against the table as it was when
  the statement started;
* is bound from its shape's template, as a SELECT is, and not resolved
  again.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import resolve as resolution
from repro.db.sql.parser import parse_statement
from repro.errors import ReproError

TEXTS = ("apple", "berry", "cherry", "date", "elder")
ROWS = [(n, TEXTS[n * 7 % 5], n % 4) for n in range(100)]


def build(shards: int = 0, cheap: bool = False) -> tuple[Database, list]:
    """``t(id, x, y)`` of 100 rows over five texts, with ``SLOW(x)``
    (expensive; 1 for a text of five letters, else 0) recording each
    argument it is called with, and ``BOOM(id, x)``, which fails on
    ``'cherry'``.  ``cheap`` gives ``SLOW`` a cheap tier that knows
    ``'apple'``, so ``'auto'`` takes the cascade route."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("x", DataType.TEXT),
                Column("y", DataType.INTEGER),
            ],
        )
    )
    db.insert("t", ROWS)
    db.create_index("t", "id")
    if shards:
        db.set_partitioning("t", "id", shards)
    calls: list = []

    def slow(text):
        calls.append(text)
        return int(len(text) == 5)

    def boom(row_id, text):
        calls.append(text)
        if text == "cherry":
            raise ValueError(f"boom at {row_id}")
        return 1

    db.register_udf(
        "SLOW",
        slow,
        expensive=True,
        cheap=(lambda t: 1 if t == "apple" else None) if cheap else None,
    )
    db.register_udf("BOOM", boom, expensive=True)
    return db, calls


#: Each write beside the SELECT of its WHERE and its assigned values
#: (a constant for a DELETE, which assigns none).
PAIRS = [
    ("UPDATE t SET y = 9 WHERE SLOW(x) = 1",
     "SELECT 9 FROM t WHERE SLOW(x) = 1"),
    ("UPDATE t SET y = SLOW(x) WHERE id < 60",
     "SELECT SLOW(x) FROM t WHERE id < 60"),
    ("UPDATE t SET y = SLOW(x) + 1 WHERE y = 2 AND SLOW(x) = 0",
     "SELECT SLOW(x) + 1 FROM t WHERE y = 2 AND SLOW(x) = 0"),
    ("UPDATE t SET y = SLOW(x) WHERE SLOW(x) = 1 OR id = 7",
     "SELECT SLOW(x) FROM t WHERE SLOW(x) = 1 OR id = 7"),
    ("DELETE FROM t WHERE SLOW(x) = 1 AND id > 10",
     "SELECT 1 FROM t WHERE SLOW(x) = 1 AND id > 10"),
    ("DELETE FROM t WHERE BOOM(id, x) = 1 AND y = 3",
     "SELECT 1 FROM t WHERE BOOM(id, x) = 1 AND y = 3"),
    ("UPDATE t SET y = BOOM(id, x) WHERE id >= 20",
     "SELECT BOOM(id, x) FROM t WHERE id >= 20"),
]

SETTINGS = [
    pytest.param(optimize, batch, shards, cheap,
                 id=f"opt{optimize:d}-batch{batch}-shards{shards}"
                 f"-cheap{cheap:d}")
    for optimize in (True, False)
    for batch in ("auto", None, 8)
    for shards in (0, 1, 2)
    for cheap in (False, True)
]


def run(db: Database, sql: str, **options) -> tuple:
    try:
        return ("ok", db.execute(sql, **options).rows)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("optimize,batch,shards,cheap", SETTINGS)
@pytest.mark.parametrize("write,select", PAIRS)
def test_a_write_makes_its_selects_calls(
    write, select, optimize, batch, shards, cheap
):
    options = dict(optimize=optimize, udf_batch_size=batch)
    db, write_calls = build(shards, cheap)
    written = run(db, write, **options)
    both = write.count("SLOW") == 2
    reference, select_calls = build(0 if both else shards, cheap)
    run(reference, select, **options)
    assert sorted(write_calls) == sorted(select_calls)
    oracle, _ = build()
    expected = run(oracle, write, optimize=optimize, udf_batch_size=None)
    assert written == expected
    assert db.table("t").rows == oracle.table("t").rows


def test_the_calls_are_the_selects_not_one_per_row():
    db, calls = build()
    db.execute("UPDATE t SET y = 1 WHERE SLOW(x) = 1")
    assert len(calls) == len(TEXTS)


def test_a_failing_write_writes_nothing():
    db, _ = build(shards=2)
    with pytest.raises(ReproError, match="boom at 1$"):
        db.execute("UPDATE t SET y = BOOM(id, x)", udf_batch_size=8)
    assert db.table("t").rows == ROWS


# -- subqueries -------------------------------------------------------------

SUBQUERIES = [
    "UPDATE t SET y = 2 WHERE id IN (SELECT id FROM t WHERE x = 'date')",
    "UPDATE t SET y = (SELECT MAX(id) FROM t)",
    "DELETE FROM t WHERE x = (SELECT MIN(x) FROM t)",
    "UPDATE t SET y = y + (SELECT COUNT(*) FROM t WHERE y = 0) "
    "WHERE id < 10",
    "DELETE FROM t WHERE EXISTS (SELECT 1 FROM t WHERE y > 2) AND id > 90",
    "INSERT INTO t VALUES ((SELECT MAX(id) FROM t) + 1, 'fig', 0)",
]


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("batch", ["auto", None, 8])
@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("sql", SUBQUERIES)
def test_subqueries_run_as_in_sqlite(sql, optimize, batch, shards):
    db, _ = build(shards)
    with closing(sqlite3.connect(":memory:")) as reference:
        reference.execute("CREATE TABLE t (id INT PRIMARY KEY, x TEXT, y INT)")
        reference.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
        count = reference.execute(sql).rowcount
        query = "SELECT * FROM t ORDER BY rowid"
        expected = reference.execute(query).fetchall()
    answer = db.execute(sql, optimize=optimize, udf_batch_size=batch)
    assert answer.rows == [(count,)]
    assert db.table("t").rows == expected


def test_a_subquery_reads_the_table_as_the_statement_found_it():
    # Every row gets the MAX of the table before the statement, not of
    # the rows it has already written.
    db, _ = build()
    db.execute("UPDATE t SET id = id + (SELECT MAX(id) FROM t) + 1")
    assert [row[0] for row in db.table("t").rows] == list(range(100, 200))


def test_a_correlated_subquery_is_refused_as_in_a_select():
    # The engine does not correlate: a reference to the outer row is an
    # unknown column in the subquery's own scope, in a SELECT and in a
    # write alike (see DESIGN.md §17).
    db, _ = build()
    inner = "(SELECT SUM(y) FROM t t2 WHERE t2.id < t.id)"
    select = run(db, f"SELECT {inner} FROM t")
    assert select == ("PlanningError", "unknown column t.id")
    assert run(db, f"UPDATE t SET y = {inner}") == select
    assert db.table("t").rows == ROWS


# -- templates ----------------------------------------------------------------


@pytest.fixture()
def resolves(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = resolution._Resolver.__init__

    def counted(self, db) -> None:
        calls.append(1)
        real(self, db)

    monkeypatch.setattr(resolution._Resolver, "__init__", counted)
    return calls


@pytest.mark.parametrize(
    "shape",
    [
        "UPDATE t SET y = {n} WHERE id = {n}",
        "DELETE FROM t WHERE id = {n}",
        "INSERT INTO t VALUES ({n} + 1000, 'fig', {n})",
    ],
)
def test_fresh_constants_of_one_write_shape_resolve_at_most_twice(
    resolves, shape
):
    db, _ = build()
    for n in range(50):
        db.execute(shape.format(n=n))
    assert len(resolves) <= 2
    assert len(db.statement_cache) == 0  # only the template is kept


@pytest.mark.parametrize(
    "texts",
    [
        ("UPDATE t SET y = 1, x = 'a' || x WHERE id BETWEEN 2 AND 5",
         "update  t set y = 7, x = 'bb' || x where id between 9 and 12",
         "UPDATE t SET y = 3, x = '' || x WHERE id BETWEEN 40 AND 41"),
        ("DELETE FROM t WHERE x = 'apple' AND id > 3",
         "/* c */ DELETE FROM t WHERE x = 'date' AND id > 30 -- d",
         "DELETE FROM t WHERE x = 'elder' AND id > 80"),
        ("INSERT INTO t (id, x) VALUES (500, 'fig'), (501, NULL)",
         "INSERT INTO t (id, x) VALUES (600, 'kiwi'),   (601, NULL)",
         "INSERT INTO t (id, x) VALUES (700, ''), (701, NULL)"),
    ],
)
def test_a_write_is_bound_as_it_parses(texts):
    # A key's second text builds its template; the third is bound from
    # it, positions included, and writes what its parse would.
    db, _ = build()
    oracle, _ = build()
    for sql in texts:
        entry, shape = db._derive(sql)
        assert repr(entry.statement) == repr(parse_statement(sql))
        assert db.execute(sql).rows == oracle.execute(sql).rows
    assert shape[2] is not None  # the last text was template-bound
    assert db.table("t").rows == oracle.table("t").rows


def test_a_template_bound_write_sees_a_recreated_table():
    db, _ = build()
    for n in range(3):
        db.execute(f"UPDATE t SET y = {n} WHERE id = {n}")
    db.drop_table("t")
    db.create_table(
        TableSchema(
            "t",
            [Column("y", DataType.INTEGER), Column("id", DataType.INTEGER)],
        )
    )
    db.insert("t", [(0, 5), (0, 6)])
    db.execute("UPDATE t SET y = 7 WHERE id = 6")
    assert db.table("t").rows == [(0, 5), (7, 6)]


def test_max_rows_never_caps_a_write():
    db, _ = build(shards=2)
    assert db.execute("UPDATE t SET y = 1", max_rows=2).rows == [(100,)]
    assert db.execute("DELETE FROM t WHERE id < 50", max_rows=0).rows == [
        (50,)
    ]


def test_explain_refuses_a_write():
    db, _ = build()
    for door in (db.explain, db.explain_analyze):
        with pytest.raises(ReproError, match="only supports SELECT"):
            door("UPDATE t SET y = 1 WHERE id = 2")
    assert db.table("t").rows == ROWS
