"""The texts of one template key, checked against ``sqlite3`` around
every event that can change what the key's names bind to.

From a key's second text on, a text is bound from the key's template
instead of parsed.  Two keys run here, each text with fresh constants:
a point-and-range read that calls ``ABS``, and one with a FROM subquery,
a join and an ORDER BY alias.  Between their texts the same events
happen to the engine and to a ``sqlite3`` mirror, and every text's rows
must equal the mirror's:

* an INSERT, an UPDATE and a DELETE (statistics change; the catalog
  objects the key names stay);
* ``create_index`` on a column the key filters on;
* ``register_udf`` of ``ABS``, shadowing the builtin;
* ``drop_table`` and re-creating the table with its columns in another
  order;
* ``set_partitioning``.

After each of the last four, the first text of the key makes one
``resolve`` call: nothing the key learned before the event is used.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import resolve as resolution

T_COLUMNS = [("id", "INTEGER"), ("x", "INTEGER"), ("y", "TEXT")]
T_ROWS = [
    (i, (i * 7) % 11 - 5 if i % 5 else None, ("p", "q", "r")[i % 3])
    for i in range(1, 25)
]
U_ROWS = [(i, f"n{i % 4}") for i in range(1, 25, 2)]

#: Each key's text for constant ``n``, and whether its rows come in a
#: defined order.
KEYS = {
    "point_and_range": (
        lambda n: f"SELECT id, x, ABS(x), y FROM t WHERE id >= {n} "
        f"AND id < {n + 6} ORDER BY id",
        True,
    ),
    "subquery_join_alias": (
        lambda n: "SELECT s.k AS kk, u.name, ABS(s.x) + 1 AS ax FROM "
        f"(SELECT id AS k, x FROM t WHERE id > {n}) AS s "
        "JOIN u ON s.k = u.tid ORDER BY kk",
        True,
    ),
}


def shadow(value):
    return None if value is None else value * 10 + 1


@pytest.fixture()
def resolves(monkeypatch) -> list[int]:
    """One element per ``resolve`` call made while the test runs."""
    calls: list[int] = []
    real = resolution._Resolver.__init__

    def counted(self, db) -> None:
        calls.append(1)
        real(self, db)

    monkeypatch.setattr(resolution._Resolver, "__init__", counted)
    return calls


def create_t(db: Database, mirror: sqlite3.Connection, columns) -> None:
    db.create_table(
        TableSchema(
            "t",
            [Column(name, DataType.from_sql(kind)) for name, kind in columns],
        )
    )
    spelled = ", ".join(f"{name} {kind}" for name, kind in columns)
    mirror.execute(f"CREATE TABLE t ({spelled})")
    names = [name for name, _ in T_COLUMNS]
    positions = [names.index(name) for name, _ in columns]
    rows = [tuple(row[p] for p in positions) for row in T_ROWS]
    db.insert("t", rows)
    holes = ", ".join("?" for _ in columns)
    mirror.executemany(f"INSERT INTO t VALUES ({holes})", rows)


def build() -> tuple[Database, sqlite3.Connection]:
    db = Database()
    mirror = sqlite3.connect(":memory:")
    create_t(db, mirror, T_COLUMNS)
    db.create_table(
        TableSchema(
            "u", [Column("tid", DataType.INTEGER), Column("name", DataType.TEXT)]
        )
    )
    db.insert("u", U_ROWS)
    mirror.execute("CREATE TABLE u (tid INTEGER, name TEXT)")
    mirror.executemany("INSERT INTO u VALUES (?, ?)", U_ROWS)
    return db, mirror


def both(db: Database, mirror: sqlite3.Connection, sql: str) -> None:
    db.execute(sql)
    mirror.execute(sql)


def write(db, mirror) -> None:
    both(db, mirror, "INSERT INTO t VALUES (100, -7, 'w')")
    both(db, mirror, "UPDATE t SET x = 9 WHERE id = 3")
    both(db, mirror, "DELETE FROM t WHERE id = 4")


def index(db, mirror) -> None:
    db.create_index("t", "id")
    mirror.execute("CREATE INDEX t_id ON t (id)")


def register(db, mirror) -> None:
    db.register_udf("ABS", shadow)
    mirror.create_function("ABS", 1, shadow)


def recreate(db, mirror) -> None:
    db.drop_table("t")
    mirror.execute("DROP TABLE t")
    create_t(db, mirror, [T_COLUMNS[2], T_COLUMNS[0], T_COLUMNS[1]])


def partition(db, mirror) -> None:
    db.set_partitioning("t", "id", shards=2)


#: Each event, and whether it must void what the key learned.
EVENTS = [
    (write, False),
    (index, True),
    (register, True),
    (recreate, True),
    (partition, True),
]


@pytest.mark.parametrize("analyze", [True, False])
@pytest.mark.parametrize("key", list(KEYS))
def test_every_text_matches_sqlite_around_every_event(resolves, key, analyze):
    text, ordered = KEYS[key]
    db, mirror = build()
    constants = iter(range(0, 1000, 3))

    def check(sql: str) -> None:
        got = db.execute(sql, analyze=analyze).rows
        want = mirror.execute(sql).fetchall()
        assert got == want if ordered else sorted(got) == sorted(want), sql

    for _ in range(3):
        check(text(next(constants) % 9))
    stored = text(1)
    check(stored)
    for event, voids in EVENTS:
        event(db, mirror)
        before = len(resolves)
        check(text(next(constants) % 9))
        if voids:
            assert len(resolves) - before == 1, event.__name__
        for _ in range(2):
            check(text(next(constants) % 9))
        check(stored)
