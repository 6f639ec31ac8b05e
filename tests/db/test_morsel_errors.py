"""Which error a statement raises when operators read morsels.

A row-at-a-time plan hands each row up the plan before it reads the
next, so the error it raises is the one met at the earliest row, and
within a row the one nearest the leaves.  The morsel operators must
keep that: a child failing part-way through a morsel hands over the
rows before the failure first, and an aggregate fold that fails on a
morsel is replayed row by row.  The batched UDF operators cut their
``udf_batch_size`` morsels the same way.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.errors import ExecutionError

M = getattr(physical, "MORSEL_SIZE", 2048)
ROWS = 2 * M + 9


def make(fail_at: dict[str, int]) -> Database:
    """``t(id, g, v)`` and UDFs ``FAIL_<name>(x)`` that return ``x``
    but raise at the row id ``fail_at[name]``."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER),
                Column("g", DataType.INTEGER),
                Column("v", DataType.INTEGER),
            ],
        )
    )
    db.insert("t", [(i, i % 3, i % 11) for i in range(ROWS)])

    def failing(name: str, row: int):
        def udf(value, row_id):
            if row_id == row:
                raise ValueError(f"{name} at {row_id}")
            return value

        return udf

    for name, row in fail_at.items():
        db.register_udf(f"FAIL_{name}", failing(name, row))
    return db


def error_of(db: Database, sql: str) -> str:
    with pytest.raises(ExecutionError) as caught:
        db.execute(sql)
    return str(caught.value)


@pytest.mark.parametrize(
    "inner, outer, want",
    [
        (M + 5, M + 2, "OUTER at"),  # the outer row comes first
        (M + 2, M + 5, "INNER at"),
        (M + 3, M + 3, "INNER at"),  # one row: the inner call runs first
        (3, M + 1, "INNER at"),
    ],
)
def test_a_filter_hands_on_the_rows_before_its_child_fails(
    inner, outer, want
):
    db = make({"INNER": inner, "OUTER": outer})
    sql = (
        "SELECT FAIL_OUTER(id, id) FROM "
        "(SELECT id, v, FAIL_INNER(v, id) AS x FROM t) AS d WHERE v >= 0"
    )
    assert "Filter(where)" in db.explain(sql)
    assert want in error_of(db, sql)


@pytest.mark.parametrize(
    "first, second, want",
    [
        (M + 7, M + 4, "SECOND at"),
        (M + 4, M + 7, "FIRST at"),
        (M + 4, M + 4, "FIRST at"),
        (2, 2 * M + 1, "FIRST at"),
        (2 * M + 1, 2, "SECOND at"),
    ],
)
def test_an_aggregate_raises_the_first_failing_rows_error(
    first, second, want
):
    """The two calls' arguments fail in different groups (or the same
    row); the error is the one met first in row order."""
    db = make({"FIRST": first, "SECOND": second})
    sql = (
        "SELECT g, SUM(FAIL_FIRST(v, id)), MAX(FAIL_SECOND(v, id)) "
        "FROM t GROUP BY g"
    )
    assert want in error_of(db, sql)


def test_a_join_probe_hands_on_the_rows_before_a_failing_key():
    db = make({"KEY": M + 6, "OUTER": M + 3})
    db.create_table(TableSchema("u", [Column("k", DataType.INTEGER)]))
    db.insert("u", [(k,) for k in range(11)])
    sql = (
        "SELECT FAIL_OUTER(t.id, t.id) FROM t JOIN u "
        "ON FAIL_KEY(t.v, t.id) = u.k"
    )
    assert "HashJoin(INNER, 1 key(s))" in db.explain(sql)
    assert "OUTER at" in error_of(db, sql)
    db = make({"KEY": M + 3, "OUTER": M + 6})
    db.create_table(TableSchema("u", [Column("k", DataType.INTEGER)]))
    db.insert("u", [(k,) for k in range(11)])
    assert "KEY at" in error_of(db, sql)


@pytest.mark.parametrize("inner, outer", [(6, 5), (5, 6), (5, 5)])
def test_a_batched_udf_filter_hands_on_the_rows_before_its_child_fails(
    inner, outer
):
    """The UDF operators read ``udf_batch_size`` rows through the same
    morsel cutter: the batched plan raises the per-row plan's error."""
    db = make({"INNER": inner, "OUTER": outer})
    db.register_udf(
        "SLOW",
        lambda value: value,
        expensive=True,
        batch=lambda tuples: [value for (value,) in tuples],
    )
    sql = (
        "SELECT FAIL_OUTER(id, id) FROM "
        "(SELECT id, v, FAIL_INNER(v, id) AS x FROM t) AS d "
        "WHERE SLOW(v) >= 0"
    )
    with pytest.raises(ExecutionError) as per_row:
        db.execute(sql, udf_batch_size=None)
    assert "BatchedFilter" in db.explain(sql, udf_batch_size=4)
    with pytest.raises(ExecutionError) as batched:
        db.execute(sql, udf_batch_size=4)
    assert str(batched.value) == str(per_row.value)
