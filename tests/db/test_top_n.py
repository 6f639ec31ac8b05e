"""Top-N: ``ORDER BY ... LIMIT n`` keeps a heap of ``n + offset`` rows
instead of sorting its whole input, and must return exactly the rows
the full sort returns at those positions, in that order: with
duplicate keys (the input-position tie-break decides), NULLs, DESC
keys, and through the ``Slice`` that drops an unselected sort key."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.db.planner import Planner
from repro.db.resolve import resolve
from repro.db.sql.parser import parse_statement

rows = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, "a", "b"]),
        st.sampled_from([None, 0.5, 1.5]),
    ),
    max_size=30,
)


def make(data) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER),
                Column("k1", DataType.INTEGER),
                Column("k2", DataType.TEXT),
                Column("x", DataType.REAL),
            ],
        )
    )
    db.insert("t", [(index, *row) for index, row in enumerate(data)])
    return db


def top_sort(db: Database, sql: str) -> physical.Sort | None:
    """The Sort a statement's plan holds directly under its Limit."""
    statement = parse_statement(sql)
    plan, _ = Planner(db, resolve(db, statement)).plan_select(statement)
    assert isinstance(plan, physical.Limit)
    node = plan.child
    if isinstance(node, physical.Slice):
        node = node.child
    return node if isinstance(node, physical.Sort) else None


@settings(max_examples=200, deadline=None)
@given(
    data=rows,
    first_desc=st.booleans(),
    second_desc=st.booleans(),
    selected=st.booleans(),
    limit=st.sampled_from([0, 1, 10, 1000]),
    offset=st.integers(min_value=0, max_value=12),
)
def test_bounded_sort_is_a_prefix_of_the_full_sort(
    data, first_desc, second_desc, selected, limit, offset
):
    db = make(data)
    # ``selected`` sorts on output columns; otherwise the keys are
    # extra projected expressions that a Slice removes above the Sort.
    columns = "id, k1, k2" if selected else "id, x"
    order = (
        f"ORDER BY k1{' DESC' if first_desc else ''}, "
        f"k2{' DESC' if second_desc else ''}"
    )
    full = db.execute(f"SELECT {columns} FROM t {order}").rows
    sql = f"SELECT {columns} FROM t {order} LIMIT {limit} OFFSET {offset}"
    assert top_sort(db, sql).bound == limit + offset
    assert db.execute(sql).rows == full[offset : offset + limit]


def test_only_a_limit_directly_above_bounds_the_sort():
    db = make([(1, "a", 0.5), (0, "b", 1.5), (1, "a", 1.5)])
    assert top_sort(db, "SELECT id FROM t ORDER BY k1 LIMIT 2").bound == 2
    assert top_sort(db, "SELECT id FROM t ORDER BY k1 LIMIT -1").bound is None
    assert (
        top_sort(db, "SELECT id FROM t ORDER BY k1 LIMIT 2 OFFSET -3").bound
        == 2
    )
    # DISTINCT sits between: the Limit counts distinct rows, not sorted
    # ones, so the Sort stays unbounded.
    assert top_sort(db, "SELECT DISTINCT k1 FROM t ORDER BY k1 LIMIT 1") is None
    assert db.execute(
        "SELECT DISTINCT k1 FROM t ORDER BY k1 DESC LIMIT 1"
    ).rows == [(1,)]


@pytest.mark.parametrize("limit", [0, 1])
def test_every_input_row_is_still_evaluated(limit):
    """A failing row fails the statement whether or not it would have
    made the cut: LIMIT never hides an error the full sort raises."""
    db = make([(1, "a", 0.5), (0, "b", 1.5)])
    calls = []
    db.register_udf("SPY", lambda value: calls.append(value) or value)
    db.execute(f"SELECT SPY(id) AS s FROM t ORDER BY k1 LIMIT {limit}")
    assert sorted(calls) == [0, 1]
