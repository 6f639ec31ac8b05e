"""Analysis cost must not depend on table size.

``Table.column_stats`` is computed once per column and kept until the
next write, so ``Database.analyze`` (and the ``analyze=True`` pre-flight
``SQLExecutor`` runs before every SELECT) touches no stored row after
its first call.  Row scans are counted here, by the test, through a
``list`` subclass swapped in for the table's row storage — iterating
the rows is the only way to scan them.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema

ROWS = 20_000


class CountingRows(list):
    """Row storage that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


@pytest.fixture()
def orders():
    db = Database()
    db.create_table(
        TableSchema(
            "orders",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                Column("customer_id", DataType.INTEGER),
                Column("status", DataType.TEXT),
                Column("amount", DataType.REAL),
            ],
        )
    )
    db.insert(
        "orders",
        (
            [n, n % 2_000, ("open", "paid", "void")[n % 3], n / 4]
            for n in range(ROWS)
        ),
    )
    db.create_index("orders", "id")
    table = db.table("orders")
    table._rows = CountingRows(table._rows)
    return db, table._rows


def scans_during(rows: CountingRows, action) -> int:
    before = rows.scans
    action()
    return rows.scans - before


POINT = "SELECT id, amount FROM orders WHERE id = 123"
UNINDEXED = "SELECT id FROM orders WHERE customer_id = 7"
TWO_COLUMNS = (
    "SELECT id FROM orders WHERE customer_id = 7 AND status <> 'void'"
)


def test_second_analyze_scans_nothing_and_one_write_costs_one_scan(orders):
    db, rows = orders
    assert db.analyze(POINT).ok
    assert db.analyze(UNINDEXED).ok
    assert scans_during(rows, lambda: db.analyze(POINT)) == 0
    assert scans_during(rows, lambda: db.analyze(UNINDEXED)) == 0

    # The write goes through the index and updates in place: no scan.
    # It drops the statistics, so the next analysis recomputes the one
    # column its predicate mentions: read off the index for ``id``,
    # one scan for ``customer_id``, which has none.
    update = "UPDATE orders SET amount = 0.5 WHERE id = 123"
    assert scans_during(rows, lambda: db.execute(update)) == 0
    assert scans_during(rows, lambda: db.analyze(POINT)) == 0
    assert scans_during(rows, lambda: db.analyze(UNINDEXED)) == 1
    assert scans_during(rows, lambda: db.analyze(UNINDEXED)) == 0


def test_only_referenced_columns_are_ever_scanned(orders):
    db, rows = orders
    db.execute("INSERT INTO orders VALUES (20000, 1, 'open', 1.0)")
    assert scans_during(rows, lambda: db.analyze(TWO_COLUMNS)) == 2
    assert scans_during(rows, lambda: db.analyze(TWO_COLUMNS)) == 0
    assert scans_during(
        rows, lambda: db.execute("DELETE FROM orders WHERE id = 20000")
    ) == 0
    assert len(rows) == ROWS


def test_analyzed_point_lookup_touches_no_row_but_its_own(orders):
    db, rows = orders
    db.execute(POINT, analyze=True)  # first use computes id's statistics
    result = []
    assert scans_during(
        rows, lambda: result.append(db.execute(POINT, analyze=True))
    ) == 0
    assert [row[0] for row in result[0].rows] == [123]


def test_estimates_still_come_from_the_catalog(orders):
    db, _ = orders
    report = db.analyze(TWO_COLUMNS)
    stats = db.table("orders").column_stats("customer_id")
    assert (stats.rows, stats.distinct, stats.nulls) == (ROWS, 2_000, 0)
    # 1/2000 for the equality, 2/3 for the <> on a 3-valued column.
    assert report.cost.expected_result_rows == pytest.approx(
        ROWS * (1 / 2_000) * (2 / 3), abs=1
    )
