"""INSERT, UPDATE and DELETE pinned against stdlib ``sqlite3``.

One corpus of writes runs in order on an ``orders`` table (indexed on
``id`` and ``customer_id``) and on a ``sqlite3`` mirror of it, under
every setting a write can be given: ``optimize`` on and off,
``udf_batch_size`` ``'auto'``, None and 8, the table unpartitioned and
hash-partitioned into 2 shards, and ``max_rows`` None and 1.  For each
statement the test pins

* what ``execute`` answers (its one count row) or raises (the error's
  type and text), the same under every setting;
* the table's rows after it, equal to ``sqlite3``'s (row order is
  insertion order in both: ``sqlite3`` is read by ``rowid``), and
  ``sqlite3``'s count of the rows it wrote;
* the ``Usage`` it adds, which is nothing: no write here calls an LM.

``max_rows`` caps what a SELECT returns; a write's count is never cut.

The corpus: the three write shapes of the ``sql_short`` benchmark with
fresh constants, UPDATE and DELETE by an indexed point, an indexed
range, an un-indexed column, a NULL comparison and no WHERE, an UPDATE
of several columns that reads the old row, a primary-key collision and
a NOT NULL violation from UPDATE and from INSERT, and multi-row
INSERTs with and without a column list.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import ReproError
from repro.lm.usage import Usage

COLUMNS = (
    ("id", DataType.INTEGER, "INT PRIMARY KEY NOT NULL"),
    ("customer_id", DataType.INTEGER, "INTEGER"),
    ("amount", DataType.REAL, "REAL"),
    ("qty", DataType.INTEGER, "INTEGER NOT NULL"),
    ("status", DataType.TEXT, "TEXT"),
    ("note", DataType.TEXT, "TEXT"),
)

ROWS = [
    (0, 0, 10.0, 1, "open", "a"),
    (1, 1, 250.5, 2, "open", None),
    (2, 2, 30.25, 3, "shipped", "b"),
    (3, 3, 400.0, 4, "open", "c"),
    (4, 4, 5.5, 5, "shipped", None),
    (5, 5, 120.0, 6, "open", "d"),
    (6, 6, 220.0, 7, "closed", "e"),
    (7, 7, 75.0, 8, "open", None),
    (8, 1, 330.0, 9, "closed", "f"),
    (9, 2, 45.0, 10, "open", "g"),
    (10, 3, 60.0, 11, "shipped", None),
    (11, 4, 15.0, 12, "open", "h"),
]

#: Each write, in the order run, with what ``execute`` answers: its
#: count row, or the error's type name and text.
CORPUS: list[tuple[str, tuple]] = [
    # sql_short's INSERT / UPDATE / DELETE of a new order, three times
    # with fresh constants (the second and later are template-bound).
    ("INSERT INTO orders VALUES (1000000, 3, 12.5, 4, 'new', 'fresh 0')",
     (1,)),
    ("UPDATE orders SET amount = 99.25 WHERE id = 1000000", (1,)),
    ("DELETE FROM orders WHERE id = 1000000", (1,)),
    ("INSERT INTO orders VALUES (1000001, 7, 250.75, 9, 'new', 'fresh 1')",
     (1,)),
    ("UPDATE orders SET amount = 3.5 WHERE id = 1000001", (1,)),
    ("DELETE FROM orders WHERE id = 1000001", (1,)),
    ("INSERT INTO orders VALUES (1000002, 1, 1.0, 1, 'new', 'fresh 2')",
     (1,)),
    ("UPDATE orders SET amount = 480.0 WHERE id = 1000002", (1,)),
    ("DELETE FROM orders WHERE id = 1000002", (1,)),
    # UPDATE by an indexed point, an indexed range, an un-indexed
    # column, a NULL comparison (IS NULL, and = NULL, which is never
    # true), with no WHERE, and several columns reading the old row.
    ("UPDATE orders SET status = 'held' WHERE id = 4", (1,)),
    ("UPDATE orders SET qty = qty + 1 WHERE customer_id BETWEEN 2 AND 5",
     (7,)),
    ("UPDATE orders SET note = 'big' WHERE amount > 200", (4,)),
    ("UPDATE orders SET note = 'none' WHERE note IS NULL", (3,)),
    ("UPDATE orders SET qty = 0 WHERE note = NULL", (0,)),
    ("UPDATE orders SET amount = amount * 2", (12,)),
    ("UPDATE orders SET qty = qty * 2, amount = amount + qty, "
     "note = status || note WHERE id >= 8", (4,)),
    # A primary-key collision and a NOT NULL violation, from UPDATE
    # and from INSERT: nothing is written.
    ("UPDATE orders SET id = 5 WHERE id = 6",
     ("SchemaError", "duplicate primary key (5,) in 'orders'")),
    ("INSERT INTO orders VALUES (5, 1, 1.0, 1, 'x', NULL)",
     ("SchemaError", "duplicate primary key (5,) in 'orders'")),
    ("UPDATE orders SET qty = NULL WHERE id = 5",
     ("SchemaError", "NULL in NOT NULL column 'qty' of 'orders'")),
    ("INSERT INTO orders VALUES (50, 1, 1.0, NULL, 'x', NULL)",
     ("SchemaError", "NULL in NOT NULL column 'qty' of 'orders'")),
    # Multi-row INSERTs, with and without a column list.
    ("INSERT INTO orders VALUES (20, 1, 2.0, 3, 'a', NULL), "
     "(21, 2, 3.0, 4, 'b', 'n')", (2,)),
    ("INSERT INTO orders (id, qty, status) VALUES (22, 1, 'c'), (23, 2, 'd')",
     (2,)),
    # DELETE by an indexed point, an indexed range, an un-indexed
    # column, a NULL comparison, and with no WHERE.
    ("DELETE FROM orders WHERE id = 2", (1,)),
    ("DELETE FROM orders WHERE customer_id < 2", (4,)),
    ("DELETE FROM orders WHERE status = 'held'", (1,)),
    ("DELETE FROM orders WHERE note IS NULL", (2,)),
    ("DELETE FROM orders WHERE note = NULL", (0,)),
    ("DELETE FROM orders", (8,)),
]

SETTINGS = [
    pytest.param(optimize, batch, shards, max_rows,
                 id=f"opt{int(optimize)}-batch{batch}-shards{shards}"
                 f"-max{max_rows}")
    for optimize in (True, False)
    for batch in ("auto", None, 8)
    for shards in (0, 2)
    for max_rows in (None, 1)
]


def build(shards: int) -> tuple[Database, sqlite3.Connection, Usage]:
    db = Database()
    db.create_table(
        TableSchema(
            "orders",
            [
                Column(name, dtype, primary_key=name == "id",
                       nullable=name not in ("id", "qty"))
                for name, dtype, _ in COLUMNS
            ],
        )
    )
    db.insert("orders", ROWS)
    db.create_index("orders", "id")
    db.create_index("orders", "customer_id")
    if shards:
        db.set_partitioning("orders", "customer_id", shards)
    usage = Usage()
    db.bind_udf_meters(usage=usage)
    reference = sqlite3.connect(":memory:")
    columns = ", ".join(f"{name} {decl}" for name, _, decl in COLUMNS)
    reference.execute(f"CREATE TABLE orders ({columns})")
    reference.executemany(
        "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)", ROWS
    )
    return db, reference, usage


def nonzero(usage: Usage) -> dict[str, float]:
    return {
        name: value for name, value in vars(usage).items() if value
    }


@pytest.mark.parametrize("optimize,batch,shards,max_rows", SETTINGS)
def test_writes_are_pinned(optimize, batch, shards, max_rows):
    db, reference, usage = build(shards)
    with closing(reference):
        for sql, expected in CORPUS:
            before = usage.snapshot()
            try:
                answer: tuple = db.execute(
                    sql,
                    optimize=optimize,
                    udf_batch_size=batch,
                    max_rows=max_rows,
                ).rows[0]
            except ReproError as exc:
                answer = (type(exc).__name__, str(exc))
            assert answer == expected, sql
            assert nonzero(usage.since(before)) == {}, sql
            try:
                written = reference.execute(sql).rowcount
            except sqlite3.IntegrityError:
                written = None
            if written is not None:
                assert expected == (written,), sql
            mirrored = reference.execute(
                "SELECT * FROM orders ORDER BY rowid"
            ).fetchall()
            assert db.table("orders").rows == mirrored, sql


def test_every_error_is_one_sqlite_refuses_too():
    # The corpus's failing writes fail in sqlite3 too, so the rows the
    # two keep after them are compared above on equal terms.
    failing = [sql for sql, expected in CORPUS if len(expected) == 2]
    assert len(failing) == 4
    db, reference, _ = build(0)
    with closing(reference):
        for sql, _ in CORPUS:
            if sql in failing:
                with pytest.raises(sqlite3.IntegrityError):
                    reference.execute(sql)
            else:
                reference.execute(sql)
