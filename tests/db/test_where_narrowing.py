"""A WHERE conjunction narrows a morsel conjunct by conjunct, and a row
an earlier conjunct leaves NULL must still meet the later ones: Kleene
AND evaluates its right side unless the left is FALSE, so a UDF there
runs, and may fail, on that row.  Rows span a morsel boundary."""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.errors import ExecutionError

M = getattr(physical, "MORSEL_SIZE", 2048)
ROWS = 2 * M + 9


def a_of(row_id: int) -> int | None:
    """NULL on every third row, else ``row_id % 7``."""
    return None if row_id % 3 == 0 else row_id % 7


def make(fail_at: int | None = None) -> tuple[Database, list[int]]:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("id", DataType.INTEGER), Column("a", DataType.INTEGER)],
        )
    )
    db.insert("t", [(i, a_of(i)) for i in range(ROWS)])
    seen: list[int] = []

    def spy(row_id):
        seen.append(row_id)
        if row_id == fail_at:
            raise ValueError(f"failed at {row_id}")
        return row_id

    db.register_udf("SPY", spy)
    return db, seen


@pytest.mark.parametrize(
    "chain", ["a > 3 AND SPY(id) >= 0", "a > 3 AND a < 9 AND SPY(id) >= 0"]
)
def test_a_row_left_null_still_meets_the_later_conjuncts(chain):
    db, seen = make()
    rows = db.execute(f"SELECT id FROM t WHERE {chain}").rows
    kept = [i for i in range(ROWS) if a_of(i) is not None and a_of(i) > 3]
    assert rows == [(i,) for i in kept]
    reached = [i for i in range(ROWS) if a_of(i) is None or a_of(i) > 3]
    assert sorted(seen) == reached


def test_a_row_left_null_raises_the_later_conjuncts_error():
    failing = next(i for i in range(M, ROWS) if a_of(i) is None)
    db, _ = make(fail_at=failing)
    with pytest.raises(ExecutionError) as caught:
        db.execute("SELECT id FROM t WHERE a > 3 AND SPY(id) >= 0")
    assert f"failed at {failing}" in str(caught.value)
