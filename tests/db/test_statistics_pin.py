"""What a kept plan answers and explains around writes that move the
statistics a decision of its planning read.

Two statements take such a decision.  A per-row join holds its
expensive ``SLOW`` conjunct above the join or pushes it below, whichever
side the estimate says fewer rows flow through; four INSERTs into the
join's outer table turn it from above to below.  A key join probes an
index only while the probe's estimated rows fit under the probed
table's row count; an UPDATE that leaves three customers in ``orders``
turns it into a hash join.

After every write each statement runs twice, the second time on what
the first kept.  Each run answers as a database built with the same
writes answers on first sight, with as many ``SLOW`` calls, and the plan
the text keeps renders as the plan ``explain`` makes afresh.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from tests.db.test_generic_plans import KEY_JOIN, big_database, fresh_tree

PER_ROW = (
    "SELECT a.id, b.id FROM a JOIN b ON a.x < b.y "
    "WHERE SLOW(b.t) = 1 ORDER BY b.id"
)
#: Each adds a row to a; from the second on, SLOW goes below the join.
INSERTS = [f"INSERT INTO a VALUES ({id}, {id + 4})" for id in range(2, 6)]

HOT = KEY_JOIN.format(2)
#: Writes that leave the index join paying, then the one that turns it.
UPDATES = [
    "UPDATE orders SET amount = 1.0 WHERE id = 5",
    "UPDATE orders SET amount = 2.0 WHERE customer_id = 1",
    "UPDATE orders SET customer_id = 0 WHERE customer_id = 3",
]


def per_row_database(writes: list[str]) -> tuple[Database, list]:
    """``a`` with one row and ``b`` with nine, then ``writes``; the list
    of the arguments ``SLOW`` is called with."""
    db = Database()
    db.execute("CREATE TABLE a (id INTEGER, x INTEGER)")
    db.execute("CREATE TABLE b (id INTEGER, y INTEGER, t INTEGER)")
    db.insert("a", [(1, 3)])
    db.insert("b", [(id, id, id % 2) for id in range(9)])
    calls: list = []

    def slow(value):
        calls.append(value)
        return value

    db.register_udf("SLOW", slow, expensive=True)
    for sql in writes:
        db.execute(sql)
    return db, calls


def run(db: Database, calls: list, sql: str) -> tuple[list, int]:
    """The rows of one per-row execution of ``sql`` and its SLOW calls."""
    before = len(calls)
    rows = db.execute(sql, udf_batch_size=None).rows
    return rows, len(calls) - before


def test_the_per_row_join_answers_and_explains_as_afresh():
    db, calls = per_row_database([])
    assert "held SLOW(…) above INNER join" in db.explain(
        PER_ROW, udf_batch_size=None
    )
    run(db, calls, PER_ROW)  # a first sight keeps no plan
    slow_calls = []
    for done in range(len(INSERTS) + 1):
        if done:
            db.execute(INSERTS[done - 1])
        cold, cold_calls = per_row_database(INSERTS[:done])
        expected = run(cold, cold_calls, PER_ROW)
        slow_calls.append(expected[1])
        for _ in range(2):
            assert run(db, calls, PER_ROW) == expected
            fresh = db.explain(PER_ROW, udf_batch_size=None)
            assert db._lookup(PER_ROW).plan.explain() == fresh.split(
                "\nOptimizer:\n"
            )[0]
    assert "pushed SLOW(…) below INNER join" in fresh
    # Above the join, one call per joined row; below it, one per b row.
    assert slow_calls == [5, 7, 9, 9, 9]


@pytest.mark.parametrize("analyze", [True, False])
def test_the_key_join_answers_and_explains_as_afresh(analyze):
    db = big_database()
    assert "IndexJoin" in fresh_tree(db, HOT)
    for done in range(len(UPDATES) + 1):
        if done:
            db.execute(UPDATES[done - 1])
        cold = big_database()
        for sql in UPDATES[:done]:
            cold.execute(sql)
        for sql in (HOT, KEY_JOIN.format(3), HOT, KEY_JOIN.format(0), HOT):
            rows = db.execute(sql, analyze=analyze).rows
            assert sorted(rows) == sorted(cold.execute(sql).rows), sql
        assert db._lookup(HOT).plan.explain() == fresh_tree(db, HOT)
    assert "HashJoin" in fresh_tree(db, HOT)
