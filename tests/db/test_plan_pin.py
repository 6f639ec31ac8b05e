"""The plans and rows of fresh-constant texts, pinned against ``sqlite3``
and against a plan made afresh, through every way a text can be met.

A served workload sends a few statement shapes with new constants each
time.  Each key below is one such shape: the three reads of the
``sql_short`` benchmark (a point read, a key join and a range read
under ``ORDER BY ... LIMIT``), a key join whose outer side is a range, a
DELETE by key, and shapes where a planner decision that reads a
literal's value comes out differently from text to text: a TEXT or REAL
literal against an INTEGER key (``'3'``, ``'abc'``, ``2.5``, ``3.0``),
an integer past 2**53 against an indexed REAL column, ``LIMIT 0``,
``LIMIT n OFFSET m``, ``LIMIT -1`` and ``BETWEEN`` with its bounds
inverted.

Each key's texts run on one database in order: a first sight, the
key's second text, later texts, and exact repeats (a stored entry, then
its kept plan).  Between rounds the same event happens to the engine
and to a ``sqlite3`` mirror: an INSERT, UPDATE and DELETE; an index
created; ``ABS`` registered; the table dropped and re-created with its
columns in another order; the table hash-partitioned.  For every text

* its rows equal ``sqlite3``'s (a TEXT literal against an INTEGER
  column is the engine's deliberate divergence from SQLite's column
  affinity, see ``test_sqlite_differential.py``: those rows are those
  of a new engine database holding the same rows);
* ``db.explain(sql)``, and the tree of the plan the text's entry
  kept, if it kept one, equal the plan a twin database makes afresh:
  the twin takes every event and write but runs no read, so no text of
  the key ever taught it anything;
* a DELETE's count, and the table after it, equal ``sqlite3``'s.

Every case's sequence of texts, fresh plans and rows is pinned by its
digest in ``DIGESTS``.
"""

from __future__ import annotations

import hashlib
import sqlite3
from itertools import cycle

import pytest

from repro.db import Column, Database, DataType, TableSchema

ORDERS = [("id", "INTEGER"), ("customer_id", "INTEGER"), ("amount", "REAL"),
          ("status", "TEXT")]
ORDER_ROWS = [
    (i, i % 20, float(2**53) if i == 5 else i * 0.5,
     ("open", "paid", None)[i % 3])
    for i in range(200)
]
CUSTOMER_ROWS = [(i, f"c{i}") for i in range(20)]
READ_ALL = "SELECT id, customer_id, amount, status FROM orders ORDER BY id"

#: Each key: its text for one tuple of constants, the constants its texts
#: cycle through, whether its rows come in a defined order, and whether
#: it compares a TEXT literal with an INTEGER column.
KEYS = {
    "point": (
        "SELECT id, amount, status FROM orders WHERE id = {}",
        [(3,), (11,), (150,), (500,), (0,), (77,)],
        True,
        False,
    ),
    "range": (
        "SELECT id, amount FROM orders WHERE id BETWEEN {} AND {} "
        "ORDER BY id LIMIT {}",
        [(3, 43, 20), (60, 10, 20), (0, 199, 5), (120, 160, 0),
         (190, 230, 20), (7, 7, 3)],
        True,
        False,
    ),
    "key join": (
        "SELECT o.id, o.amount, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id WHERE c.id = {}",
        [(1,), (3,), (17,), (40,), (0,), (9,)],
        False,
        False,
    ),
    "key join over a range": (
        "SELECT o.id, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id "
        "WHERE c.id BETWEEN {} AND {}",
        [(1, 2), (0, 19), (5, 5), (9, 3), (2, 12), (18, 19)],
        False,
        False,
    ),
    "delete": (
        "DELETE FROM orders WHERE id = {}",
        [(4,), (190,), (4,), (61,), (999,), (123,)],
        True,
        False,
    ),
    "text against an integer key": (
        "SELECT id, amount FROM orders WHERE id = '{}'",
        [("3",), ("abc",), ("7",), ("",), ("3",), ("4.0",)],
        True,
        True,
    ),
    "real against an integer key": (
        "SELECT id, amount FROM orders WHERE id = {}",
        [(3.0,), (2.5,), (4.0,), (7.25,), (1e1,), (0.5,)],
        True,
        False,
    ),
    "integer against a real key": (
        "SELECT id FROM orders WHERE amount = {}",
        [(3,), (2**53 + 1,), (2**53,), (7,), (2**63,), (70,)],
        True,
        False,
    ),
    "top n": (
        "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT {}",
        [(5,), (0,), (3,), (0,), (1,), (12,)],
        True,
        False,
    ),
    "limit and offset": (
        "SELECT id FROM orders ORDER BY id LIMIT {} OFFSET {}",
        [(5, 3), (0, 0), (2, 198), (7, 0), (0, 5), (4, 400)],
        True,
        False,
    ),
    "negative limit": (
        "SELECT id FROM orders WHERE id < {} ORDER BY id LIMIT -{}",
        [(10, 1), (5, 2), (30, 1), (0, 7), (12, 1), (3, 3)],
        True,
        False,
    ),
}


def shadow(value):
    return None if value is None else value * 10 + 1


class World:
    """The database under test, its fresh-plan twin and a ``sqlite3``
    mirror, which every event and write reaches alike."""

    def __init__(self) -> None:
        self.db, self.twin = Database(), Database()
        self.mirror = sqlite3.connect(":memory:")
        self.indexes = [("orders", "id"), ("orders", "amount"),
                        ("customers", "id")]
        self.partitioned = False
        self.columns = list(ORDERS)
        for db in self.engines():
            db.create_table(TableSchema("customers", [
                Column("id", DataType.INTEGER), Column("name", DataType.TEXT)
            ]))
            db.insert("customers", CUSTOMER_ROWS)
        self.mirror.execute(
            "CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT)"
        )
        self.mirror.executemany(
            "INSERT INTO customers VALUES (?, ?)", CUSTOMER_ROWS
        )
        self.create_orders(ORDER_ROWS)
        for table, column in self.indexes:
            for db in self.engines():
                db.create_index(table, column)

    def engines(self) -> tuple[Database, Database]:
        return self.db, self.twin

    def create_orders(self, rows: list[tuple]) -> None:
        names = [name for name, _ in ORDERS]
        positions = [names.index(name) for name, _ in self.columns]
        placed = [tuple(row[p] for p in positions) for row in rows]
        spelled = ", ".join(f"{name} {kind}" for name, kind in self.columns)
        self.mirror.execute(f"CREATE TABLE orders ({spelled})")
        self.mirror.executemany(
            f"INSERT INTO orders VALUES ({', '.join('?' * len(placed[0]))})",
            placed,
        )
        for db in self.engines():
            db.create_table(TableSchema("orders", [
                Column(name, DataType.from_sql(kind))
                for name, kind in self.columns
            ]))
            db.insert("orders", placed)

    def orders(self) -> list[tuple]:
        return self.mirror.execute(READ_ALL).fetchall()

    def write(self, sql: str) -> tuple:
        counts = [db.execute(sql).rows for db in self.engines()]
        cursor = self.mirror.execute(sql)
        assert counts[0] == counts[1] == [(cursor.rowcount,)], sql
        return counts[0][0]

    def cold(self) -> Database:
        """A new engine database holding the same rows, indexes and
        partitioning."""
        db = Database()
        db.create_table(TableSchema("orders", [
            Column(name, DataType.from_sql(kind)) for name, kind in ORDERS
        ]))
        db.insert("orders", self.orders())
        for table, column in self.indexes:
            if table == "orders":
                db.create_index(table, column)
        if self.partitioned:
            db.set_partitioning("orders", "id", shards=2)
        return db


def write(world: World) -> None:
    world.write("INSERT INTO orders VALUES (1000, 3, 12.75, 'new')")
    world.write("UPDATE orders SET amount = 99.25 WHERE id = 12")
    world.write("DELETE FROM orders WHERE id = 13")


def index(world: World) -> None:
    world.indexes.append(("orders", "customer_id"))
    for db in world.engines():
        db.create_index("orders", "customer_id")


def register(world: World) -> None:
    for db in world.engines():
        db.register_udf("ABS", shadow)
    world.mirror.create_function("ABS", 1, shadow)


def recreate(world: World) -> None:
    rows = world.orders()
    for db in world.engines():
        db.drop_table("orders")
    world.mirror.execute("DROP TABLE orders")
    world.columns = [ORDERS[3], ORDERS[2], ORDERS[0], ORDERS[1]]
    world.create_orders(rows)
    world.indexes = [item for item in world.indexes if item[0] != "orders"]
    for column in ("id", "amount"):
        world.indexes.append(("orders", column))
        for db in world.engines():
            db.create_index("orders", column)


def partition(world: World) -> None:
    world.partitioned = True
    for db in world.engines():
        db.set_partitioning("orders", "id", shards=2)


EVENTS = [write, index, register, recreate, partition]


def run_key(key: str, analyze: bool) -> list:
    """Run ``key``'s schedule, checking every text; returns what each
    text answered, in order."""
    text, constants, ordered, affinity = KEYS[key]
    world = World()
    fresh = cycle(constants)
    answers: list = []

    def check(sql: str) -> None:
        if sql.startswith("DELETE"):
            count = world.write(sql)
            rows = world.db.execute(READ_ALL).rows
            assert rows == world.orders(), sql
            answers.append((sql, count))
            return
        got = world.db.execute(sql, analyze=analyze).rows
        if affinity:
            want = world.cold().execute(sql).rows
        else:
            want = world.mirror.execute(sql).fetchall()
        assert (got if ordered else sorted(got)) == (
            want if ordered else sorted(want)
        ), sql
        plan = world.twin.explain(sql)
        assert world.db.explain(sql) == plan, sql
        entry = world.db._lookup(sql)
        if entry is not None and entry.plan is not None:
            tree = plan.split("\nOptimizer:\n")[0]
            assert entry.plan.explain() == tree, sql
        answers.append((sql, plan, got))

    def round_of(texts: int) -> None:
        for _ in range(texts):
            check(text.format(*next(fresh)))
        for _ in range(2):
            check(stored)

    stored = text.format(*constants[0])
    round_of(5)  # a first sight, the second text, later texts, repeats
    for event in EVENTS:
        event(world)
        round_of(3)
    return answers


def digest(answers: list) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


#: Each key's answers, the same at ``analyze`` on and off.
DIGESTS = {
    "point": "2c58799d24033d4d",
    "range": "a56d9d4224587662",
    "key join": "053823b2ed1c402e",
    "key join over a range": "7a9b622c3506b095",
    "delete": "27c8f3e399a62b23",
    "text against an integer key": "97e272767d6915b4",
    "real against an integer key": "07e0dfd079fb7cd6",
    "integer against a real key": "d5ef0b92682ebad8",
    "top n": "d49e6bcced0950c7",
    "limit and offset": "c87f2c0117eede9b",
    "negative limit": "bd5fe2d4d3a663a3",
}


@pytest.mark.parametrize("analyze", [True, False])
@pytest.mark.parametrize("key", list(KEYS))
def test_every_text_answers_as_sqlite_and_a_fresh_plan(key, analyze):
    assert digest(run_key(key, analyze)) == DIGESTS[key]
