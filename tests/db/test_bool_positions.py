"""``TRUE`` / ``FALSE`` in GROUP BY / ORDER BY are constants, not column
positions: only a non-bool int literal names an output column.  Checked
against ``sqlite3`` through ``execute`` and ``analyze`` alike."""

import sqlite3

import pytest

from repro.db import Column, Database, DataType, TableSchema

ROWS = [[3, "c"], [1, "a"], [2, "b"], [1, "d"]]


@pytest.fixture(scope="module")
def engines():
    db = Database()
    db.create_table(
        TableSchema(
            "t", [Column("n", DataType.INTEGER), Column("s", DataType.TEXT)]
        )
    )
    db.insert("t", ROWS)
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (n INTEGER, s TEXT)")
    reference.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    return db, reference


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT COUNT(*) FROM t GROUP BY TRUE",
        "SELECT COUNT(*) FROM t GROUP BY FALSE",
        "SELECT n, s FROM t ORDER BY TRUE",
        "SELECT n, s FROM t ORDER BY FALSE",
        "SELECT n, s FROM t ORDER BY TRUE, n DESC",
        "SELECT n, s FROM t ORDER BY 2",
    ],
)
def test_matches_sqlite(engines, sql):
    db, reference = engines
    assert db.analyze(sql).ok
    assert db.execute(sql).rows == reference.execute(sql).fetchall()


def test_group_by_true_is_one_group(engines):
    db, reference = engines
    sql = "SELECT n, COUNT(*) FROM t GROUP BY TRUE"
    assert db.analyze(sql).ok
    rows = db.execute(sql).rows
    # Which row a bare column reads is unspecified; the grouping is not.
    assert len(rows) == len(reference.execute(sql).fetchall()) == 1
    assert rows[0][1] == 4
