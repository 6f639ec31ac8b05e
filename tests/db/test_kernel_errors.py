"""Which error a statement raises, and how often a UDF runs, when every
operator evaluates its expressions over a morsel.

A row-at-a-time plan evaluates each row's expressions before it reads
the next row, so the error it raises is the one met at the earliest row
(and within a row, the one met first in evaluation order), and a UDF on
the right of AND/OR, in a later CASE branch or in a join residual runs
exactly on the rows that reach it.  These pins hold that for the
operators beyond ``tests/db/test_morsel_errors.py``: a Project, OR, a
CASE, NOT, an outer join's residual, HAVING and UPDATE/DELETE, with the
failing rows on either side of a morsel boundary.  The ``SPY`` variants
count calls on statements that succeed; the counts are worked out from
the data, not read off the engine.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.errors import ExecutionError

M = getattr(physical, "MORSEL_SIZE", 2048)
ROWS = 2 * M + 9


def v_of(row_id: int) -> int:
    return row_id % 11


def make(fail_at: dict[str, int] | None = None) -> tuple[Database, dict]:
    """``t(id, g, v)`` with ``v = id % 11``, ``u(k)`` for k in 0..4,
    UDFs ``FAIL_<name>(x, id)`` that return ``x`` but raise at the row
    id ``fail_at[name]``, and ``SPY_<n>(x)`` (n = A, B, C) that return
    ``x`` and count their calls in the returned dict."""
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
    db.insert("t", [(i, i % 3, v_of(i)) for i in range(ROWS)])
    db.create_table(TableSchema("u", [Column("k", DataType.INTEGER)]))
    db.insert("u", [(k,) for k in range(5)])

    def failing(name: str, row: int):
        def udf(value, row_id):
            if row_id == row:
                raise ValueError(f"{name} at {row_id}")
            return value

        return udf

    for name, row in (fail_at or {}).items():
        db.register_udf(f"FAIL_{name}", failing(name, row))
    calls: dict[str, int] = {}

    def spy(name: str):
        def udf(value):
            calls[name] = calls.get(name, 0) + 1
            return value

        return udf

    for name in ("A", "B", "C"):
        db.register_udf(f"SPY_{name}", spy(name))
    return db, calls


def error_of(db: Database, sql: str) -> str:
    with pytest.raises(ExecutionError) as caught:
        db.execute(sql)
    return str(caught.value)


# ---------------------------------------------------------------------------
# Project
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, want",
    [
        (M + 5, M + 2, "SECOND at"),
        (M + 2, M + 5, "FIRST at"),
        (M + 3, M + 3, "FIRST at"),  # one row: the first item runs first
        (3, 2 * M + 1, "FIRST at"),
    ],
)
def test_a_project_raises_the_first_failing_rows_error(first, second, want):
    db, _ = make({"FIRST": first, "SECOND": second})
    sql = "SELECT FAIL_FIRST(id, id), FAIL_SECOND(v, id) FROM t"
    assert want in error_of(db, sql)
    assert f"at {min(first, second)}" in error_of(db, sql)


# ---------------------------------------------------------------------------
# OR, CASE and NOT
# ---------------------------------------------------------------------------


def test_the_or_cases_put_b_where_the_left_side_is_not_true():
    # B fails only where ``v < 5``, the rows OR's right side runs on.
    for row in (M + 1, M + 2, M + 9):
        assert v_of(row) < 5
    assert v_of(M + 5) >= 5 and v_of(M + 7) >= 5


@pytest.mark.parametrize(
    "a, b, want",
    [
        (M + 5, M + 2, "B at"),
        (M + 2, M + 9, "A at"),
        (M + 9, M + 9, "A at"),  # one row: the left side runs first
        (M + 20, M + 7, "A at"),  # B's row has a TRUE left side
        (2 * M + 3, M + 1, "B at"),
    ],
)
def test_or_raises_the_first_failing_rows_error(a, b, want):
    db, _ = make({"A": a, "B": b})
    sql = (
        "SELECT id FROM t "
        "WHERE FAIL_A(v, id) >= 5 OR FAIL_B(v, id) >= 0"
    )
    assert want in error_of(db, sql)


def test_or_calls_its_right_side_only_where_the_left_is_not_true():
    db, calls = make()
    sql = "SELECT id FROM t WHERE SPY_A(v) >= 5 OR SPY_B(v) = 1"
    rows = db.execute(sql).rows
    assert rows == [(i,) for i in range(ROWS) if v_of(i) >= 5 or v_of(i) == 1]
    assert calls == {
        "A": ROWS,
        "B": sum(1 for i in range(ROWS) if v_of(i) < 5),
    }


@pytest.mark.parametrize(
    "branch, other, want",
    [
        (M + 2, M + 5, "BRANCH at"),
        (M + 9, M + 3, "OTHER at"),
        (M + 5, M + 2, "OTHER at"),  # v = 7 takes the first branch
        (M + 10, M + 10, "BRANCH at"),  # the CASE item comes first
    ],
)
def test_a_case_whose_second_branch_fails(branch, other, want):
    db, _ = make({"BRANCH": branch, "OTHER": other})
    sql = (
        "SELECT CASE WHEN v > 5 THEN 'big' "
        "WHEN FAIL_BRANCH(v, id) > 2 THEN 'mid' ELSE 'small' END, "
        "FAIL_OTHER(id, id) FROM t"
    )
    assert want in error_of(db, sql)


def test_a_case_calls_later_branches_only_where_earlier_ones_miss():
    db, calls = make()
    sql = (
        "SELECT id, CASE WHEN SPY_A(v) > 5 THEN 'big' "
        "WHEN SPY_B(v) > 2 THEN SPY_C('mid') ELSE 'small' END FROM t"
    )
    rows = db.execute(sql).rows
    want = [
        (i, "big" if v_of(i) > 5 else "mid" if v_of(i) > 2 else "small")
        for i in range(ROWS)
    ]
    assert rows == want
    assert calls == {
        "A": ROWS,
        "B": sum(1 for i in range(ROWS) if v_of(i) <= 5),
        "C": sum(1 for i in range(ROWS) if 2 < v_of(i) <= 5),
    }


@pytest.mark.parametrize(
    "where, project, want",
    [
        (M + 6, M + 3, "PROJECT at"),
        (M + 3, M + 6, "WHERE at"),
        (M + 3, M + 3, "WHERE at"),
    ],
)
def test_not_hands_on_the_rows_before_its_failing_row(where, project, want):
    db, _ = make({"WHERE": where, "PROJECT": project})
    sql = (
        "SELECT FAIL_PROJECT(id, id) FROM t "
        "WHERE NOT (FAIL_WHERE(v, id) > 100)"
    )
    assert want in error_of(db, sql)


def test_not_keeps_null_out_and_calls_once_per_row():
    db, calls = make()
    sql = (
        "SELECT id FROM t WHERE NOT (SPY_A(v) > 3) "
        "AND NOT (NULLIF(v, 2) IS NULL)"
    )
    rows = db.execute(sql).rows
    assert rows == [(i,) for i in range(ROWS) if v_of(i) <= 3 and v_of(i) != 2]
    assert calls == {"A": ROWS}


# ---------------------------------------------------------------------------
# Outer join residual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "residual, outer, want",
    [
        (M + 9, M + 2, "OUTER at"),
        (M + 2, M + 9, "RESIDUAL at"),
        (M + 1, M + 1, "RESIDUAL at"),  # the join row comes first
    ],
)
def test_a_left_join_residual_raises_the_first_failing_rows_error(
    residual, outer, want
):
    # Every row id named here has v < 5, so it meets a row of u.
    for row in (residual, outer):
        assert v_of(row) < 5
    db, _ = make({"RESIDUAL": residual, "OUTER": outer})
    sql = (
        "SELECT FAIL_OUTER(t.id, t.id), u.k FROM t LEFT JOIN u "
        "ON t.v = u.k AND FAIL_RESIDUAL(u.k, t.id) >= 0"
    )
    assert want in error_of(db, sql)


def test_a_left_join_calls_its_residual_once_per_key_match():
    db, calls = make()
    sql = (
        "SELECT t.id, u.k FROM t LEFT JOIN u "
        "ON t.v = u.k AND SPY_A(u.k) >= 2"
    )
    rows = db.execute(sql).rows
    want = [
        (i, v_of(i) if 2 <= v_of(i) < 5 else None) for i in range(ROWS)
    ]
    assert sorted(rows) == want
    assert calls == {"A": sum(1 for i in range(ROWS) if v_of(i) < 5)}


# ---------------------------------------------------------------------------
# HAVING
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "having, project, want",
    [
        (M + 5, M + 2, "PROJECT at"),
        (M + 2, M + 5, "HAVING at"),
        (M + 4, M + 4, "HAVING at"),
    ],
)
def test_having_raises_the_first_failing_groups_error(having, project, want):
    db, _ = make({"HAVING": having, "PROJECT": project})
    sql = (
        "SELECT FAIL_PROJECT(id, id) FROM t GROUP BY id "
        "HAVING FAIL_HAVING(COUNT(*), id) > 0"
    )
    assert want in error_of(db, sql)


def test_having_calls_once_per_group():
    db, calls = make()
    sql = "SELECT id, COUNT(*) FROM t GROUP BY id HAVING SPY_A(id % 7) = 3"
    rows = db.execute(sql).rows
    assert rows == [(i, 1) for i in range(ROWS) if i % 7 == 3]
    assert calls == {"A": ROWS}


# ---------------------------------------------------------------------------
# UPDATE and DELETE
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, want",
    [
        (M + 5, M + 2, "SECOND at"),
        (M + 2, M + 5, "FIRST at"),
        (M + 2, M + 2, "FIRST at"),
    ],
)
def test_update_raises_the_first_failing_rows_error(first, second, want):
    db, _ = make({"FIRST": first, "SECOND": second})
    before = db.execute("SELECT * FROM t").rows
    sql = "UPDATE t SET v = FAIL_FIRST(v, id), g = FAIL_SECOND(g, id)"
    assert want in error_of(db, sql)
    assert db.execute("SELECT * FROM t").rows == before


@pytest.mark.parametrize("where, value", [(M + 5, M + 2), (M + 2, M + 5)])
def test_an_update_where_fails_before_its_set(where, value):
    """UPDATE selects its rows before it computes a new value, so a
    WHERE that fails anywhere wins over a SET that fails earlier."""
    db, _ = make({"WHERE": where, "VALUE": value})
    sql = "UPDATE t SET v = FAIL_VALUE(v, id) WHERE FAIL_WHERE(v, id) >= 0"
    assert "WHERE at" in error_of(db, sql)
    assert "VALUE at" in error_of(
        db, "UPDATE t SET v = FAIL_VALUE(v, id) WHERE v >= 0"
    )


def test_delete_raises_its_where_error_and_keeps_every_row():
    db, _ = make({"WHERE": M + 4})
    assert "WHERE at" in error_of(
        db, "DELETE FROM t WHERE FAIL_WHERE(v, id) = 3"
    )
    assert db.execute("SELECT COUNT(*) FROM t").rows == [(ROWS,)]


def test_update_and_delete_call_once_per_row():
    db, calls = make()
    count = db.execute("UPDATE t SET g = SPY_A(g) + 1 WHERE SPY_B(v) < 3")
    selected = sum(1 for i in range(ROWS) if v_of(i) < 3)
    assert count.rows == [(selected,)]
    assert calls == {"A": selected, "B": ROWS}
    calls.clear()
    db.execute("DELETE FROM t WHERE SPY_C(v) = 10")
    assert calls == {"C": ROWS}
    left = db.execute("SELECT COUNT(*) FROM t").rows
    assert left == [(ROWS - sum(1 for i in range(ROWS) if v_of(i) == 10),)]
