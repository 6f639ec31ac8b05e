"""An index must not change answers: ranges, key joins, and the two
comparison bugs the ordered index could not live with.

Every property here runs one statement on two copies of the same data,
one with secondary indexes and one without, and requires the same rows
in the same order: ``IndexRange`` against ``Scan`` + ``Filter``
(+ ``Sort``), ``IndexJoin`` against ``HashJoin``.  Where SQLite's
affinity rules make the same comparison this engine makes, stdlib
``sqlite3`` is the independent referee.
"""

from __future__ import annotations

import sqlite3
import zlib
from contextlib import closing

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.db.optimizer import _estimate_rows
from repro.db.shard import PartitionSpec
from repro.db.types import compare, sort_key

BIG = 2**53  # 9007199254740992: float() cannot tell BIG from BIG + 1


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def select(db: Database, sql: str) -> list[tuple]:
    """Rows of a SELECT executed twice: the second answer may come from
    what the first left in the statement cache, and must equal it."""
    rows = db.execute(sql).rows
    assert db.execute(sql).rows == rows, sql
    return rows


def mirror_of(db: Database, *tables: str) -> closing:
    """The same tables and rows in an in-memory SQLite database, closed
    on leaving the ``with`` block."""
    connection = sqlite3.connect(":memory:")
    for name in tables:
        table = db.table(name)
        connection.execute(table.schema.to_create_sql())
        slots = ", ".join("?" * len(table.schema.columns))
        connection.executemany(
            f"INSERT INTO {name} VALUES ({slots})", table.rows
        )
    return closing(connection)


# ----------------------------------------------------------------------
# bugfix: sort_key kept integers above 2**53 apart only by accident
# ----------------------------------------------------------------------


class TestExactIntegerComparison:
    @staticmethod
    def make(indexed: bool) -> Database:
        db = Database()
        db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, tag TEXT)")
        db.execute(f"INSERT INTO big VALUES ({BIG}, 'even')")
        db.execute(f"INSERT INTO big VALUES ({BIG + 1}, 'odd')")
        if indexed:
            db.create_index("big", "id")
        return db

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize(
        "predicate",
        [
            f"id = {BIG + 1}",
            f"id > {BIG}",
            f"id >= {BIG + 1}",
            f"id < {BIG + 1}",
            f"id <> {BIG}",
            f"id BETWEEN {BIG + 1} AND {BIG + 1}",
        ],
    )
    def test_neighbours_above_2_to_the_53_agree_with_sqlite(
        self, indexed, predicate
    ):
        db = self.make(indexed)
        sql = f"SELECT tag FROM big WHERE {predicate} ORDER BY id"
        with mirror_of(db, "big") as mirror:
            assert select(db, sql) == mirror.execute(sql).fetchall()

    def test_sort_key_ties_only_for_equal_values(self):
        assert sort_key(BIG) != sort_key(BIG + 1)
        assert compare(BIG + 1, BIG) == 1
        assert compare(BIG, float(BIG)) == 0
        assert sort_key(1) == sort_key(1.0) == sort_key(True)
        assert compare(2, 2.5) == -1 and compare(True, 0.5) == 1

    def test_hash_partitioning_keeps_float_exact_values_in_place(self):
        spec = PartitionSpec.hashed("k", 7)
        # One shard per join key, whatever its Python type ...
        assert spec.shard_of(1) == spec.shard_of(1.0) == spec.shard_of(True)
        assert spec.shard_of(BIG) == spec.shard_of(float(BIG))
        # ... encoded as before the fix wherever float() is exact.
        for value in (0, 1, -3, 2.5, 12345, BIG, True, "abc"):
            old_form = (
                (2, value) if isinstance(value, str) else (1, float(value))
            )
            assert spec.shard_of(value) == (
                zlib.crc32(repr(old_form).encode("utf-8")) % 7
            )
        assert isinstance(spec.shard_of(10**400), int)  # float() overflows


# ----------------------------------------------------------------------
# bugfix: BETWEEN is ``x >= low AND x <= high`` in three-valued logic
# ----------------------------------------------------------------------


class TestBetweenNullBounds:
    @pytest.mark.parametrize(
        "expression",
        [
            "10 NOT BETWEEN NULL AND 5",
            "10 BETWEEN NULL AND 5",
            "3 BETWEEN NULL AND 5",
            "3 NOT BETWEEN 1 AND NULL",
            "0 BETWEEN 1 AND NULL",
            "0 NOT BETWEEN 1 AND NULL",
            "NULL BETWEEN 1 AND 5",
        ],
    )
    def test_scalar_agrees_with_sqlite(self, expression):
        sql = f"SELECT {expression}"
        with closing(sqlite3.connect(":memory:")) as mirror:
            expected = mirror.execute(sql).fetchone()[0]
        ((got,),) = select(Database(), sql)
        assert (None if got is None else int(got)) == expected

    @pytest.mark.parametrize("indexed", [False, True])
    def test_where_not_between_null_bound_keeps_rows(self, indexed):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        for value in (1, 4, 10, None):
            db.execute(f"INSERT INTO t VALUES ({literal(value)})")
        if indexed:
            db.create_index("t", "x")
        with mirror_of(db, "t") as mirror:
            for predicate in (
                "x NOT BETWEEN NULL AND 5",
                "x BETWEEN NULL AND 5",
                "x NOT BETWEEN 3 AND NULL",
                "x BETWEEN 3 AND NULL",
            ):
                sql = f"SELECT x FROM t WHERE {predicate} ORDER BY x"
                assert select(db, sql) == (
                    mirror.execute(sql).fetchall()
                ), sql
                assert "IndexRange" not in db.explain(sql)

    def test_index_range_declines_not_between(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.create_index("t", "x")
        assert "IndexRange" in db.explain(
            "SELECT x FROM t WHERE x BETWEEN 1 AND 5"
        )
        assert "IndexRange" not in db.explain(
            "SELECT x FROM t WHERE x NOT BETWEEN 1 AND 5"
        )


# ----------------------------------------------------------------------
# ranges: IndexRange == Scan + Filter (+ Sort), and == sqlite3
# ----------------------------------------------------------------------

RANGE_COLUMNS = {"n": DataType.INTEGER, "r": DataType.REAL, "s": DataType.TEXT}

range_rows = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2, 3, 5, 8]),
        st.sampled_from([None, 0.0, 1.0, 2.5, 3.0, 5.0, 7.25]),
        st.sampled_from([None, "", "5", "abc", "b", "10", "zz"]),
    ),
    min_size=4,
    max_size=24,
)
numbers = st.sampled_from([0, 1, 3, 5, 9, 2.5, 3.0])
texts = st.sampled_from(["", "5", "abc", "b"])
bounds = numbers | texts | st.sampled_from([None, True, False])
#: Ascending pairs of one type, so that many ranges are non-empty, and
#: any pair at all: mixed types, NULL, booleans, ``low > high``.
bound_pairs = (
    st.tuples(numbers, numbers).map(sorted)
    | st.tuples(texts, texts).map(sorted)
    | st.tuples(bounds, bounds)
)


def range_db(rows, indexed: bool) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                *(Column(name, dtype) for name, dtype in RANGE_COLUMNS.items()),
            ],
        )
    )
    db.insert("t", [(index, *row) for index, row in enumerate(rows)])
    if indexed:
        for column in RANGE_COLUMNS:
            db.create_index("t", column)
    return db


def sqlite_compares_alike(column: str, bound) -> bool:
    """Whether SQLite's column affinity leaves ``column <op> bound`` the
    comparison this engine makes: it turns ``'5'`` into a number against
    a numeric column and a number into text against a TEXT column."""
    if bound is None:
        return True
    if column == "s":
        return isinstance(bound, str)
    return not isinstance(bound, str) or bound == "abc"


@settings(max_examples=250, deadline=None)
@given(
    rows=range_rows,
    column=st.sampled_from(sorted(RANGE_COLUMNS)),
    pair=bound_pairs,
    ordered=st.booleans(),
    limit=st.none() | st.integers(min_value=0, max_value=6),
    offset=st.integers(min_value=0, max_value=3),
)
def test_between_with_index_equals_without(
    rows, column, pair, ordered, limit, offset
):
    low, high = pair
    sql = (
        f"SELECT id, {column} FROM t WHERE {column} BETWEEN "
        f"{literal(low)} AND {literal(high)}"
    )
    if ordered:
        sql += f" ORDER BY {column}"
    if limit is not None:
        sql += f" LIMIT {limit} OFFSET {offset}"
    indexed, plain = range_db(rows, True), range_db(rows, False)
    plan = indexed.explain(sql)
    assert ("IndexRange" in plan) == (low is not None and high is not None)
    assert ("Sort" in plan) == (ordered and "IndexRange" not in plan)
    got = select(indexed, sql)
    assert got == select(plain, sql)
    event(f"IndexRange={'IndexRange' in plan} rows={min(len(got), 2)}")

    if not (
        sqlite_compares_alike(column, low)
        and sqlite_compares_alike(column, high)
    ):
        return
    with mirror_of(plain, "t") as mirror:
        expected = mirror.execute(sql).fetchall()
    if limit is None:
        assert sorted(got) == sorted(expected)
    else:
        assert len(got) == len(expected)
    if ordered:
        # Which of two rows with equal keys comes first is SQLite's
        # choice; the keys themselves are not.
        assert [row[1] for row in got] == [row[1] for row in expected]


@settings(max_examples=100, deadline=None)
@given(
    rows=range_rows,
    column=st.sampled_from(sorted(RANGE_COLUMNS)),
    op=st.sampled_from(["<", "<=", ">", ">="]),
    bound=bounds,
    flipped=st.booleans(),
    ordered=st.booleans(),
)
def test_comparison_with_index_equals_without(
    rows, column, op, bound, flipped, ordered
):
    predicate = (
        f"{literal(bound)} {op} {column}"
        if flipped
        else f"{column} {op} {literal(bound)}"
    )
    sql = f"SELECT id, {column} FROM t WHERE {predicate} AND id <> 1"
    if ordered:
        sql += f" ORDER BY {column} LIMIT 5"
    indexed, plain = range_db(rows, True), range_db(rows, False)
    assert ("IndexRange" in indexed.explain(sql)) == (bound is not None)
    got = select(indexed, sql)
    assert got == select(plain, sql)
    if sqlite_compares_alike(column, bound) and not ordered:
        with mirror_of(plain, "t") as mirror:
            assert sorted(got) == sorted(mirror.execute(sql).fetchall())


def test_update_and_delete_by_range_go_through_the_index():
    rows = [(value, float(value), str(value)) for value in (5, 1, 3, 1, 8, 2)]
    indexed, plain = range_db(rows, True), range_db(rows, False)
    for sql in (
        "UPDATE t SET r = r + 100 WHERE n BETWEEN 1 AND 3",
        "UPDATE t SET n = n + 1 WHERE n >= 3",
        "DELETE FROM t WHERE s BETWEEN '2' AND '5'",
        "DELETE FROM t WHERE r < 50",
    ):
        assert indexed.execute(sql).rows == plain.execute(sql).rows, sql
        assert indexed.table("t").rows == plain.table("t").rows, sql
    table = indexed.table("t")
    assert len(table) == 2
    for position, keys in table._index_keys.items():
        assert keys == sorted(
            (key for key in table._indexes[position] if key is not None),
            key=sort_key,
        )


# ----------------------------------------------------------------------
# key joins: IndexJoin == HashJoin, row for row
# ----------------------------------------------------------------------


def join_db(order_keys, customer_ids, key_type: DataType, indexed: bool):
    db = Database()
    db.create_table(
        TableSchema(
            "o",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                Column("k", key_type),
                Column("v", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "c",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                Column("name", DataType.TEXT),
            ],
        )
    )
    db.insert(
        "o",
        [(index, key, f"v{index % 3}") for index, key in enumerate(order_keys)],
    )
    db.insert("c", [(cid, f"v{cid % 3}") for cid in customer_ids])
    if indexed:
        db.create_index("o", "k")
        db.create_index("c", "id")
    return db


@settings(max_examples=150, deadline=None)
@given(
    order_keys=st.lists(
        st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6, 7]),
        min_size=20,
        max_size=40,
    ),
    customer_ids=st.sets(st.integers(0, 9), max_size=10).map(sorted),
    key_type=st.sampled_from([DataType.INTEGER, DataType.REAL]),
    orders_first=st.booleans(),
    outer=st.sampled_from(
        ["c.id = 3", "c.id = 11", "c.id BETWEEN 2 AND 5", "o.id = 7",
         "o.id BETWEEN 4 AND 6"]
    ),
    residual=st.booleans(),
    limit=st.none() | st.integers(min_value=0, max_value=4),
)
def test_key_join_with_index_equals_hash_join(
    order_keys, customer_ids, key_type, orders_first, outer, residual, limit
):
    condition = "o.k = c.id" + (" AND o.v <> c.name" if residual else "")
    source = (
        f"o JOIN c ON {condition}"
        if orders_first
        else f"c JOIN o ON {condition}"
    )
    sql = f"SELECT o.id, o.k, c.id, c.name FROM {source} WHERE {outer}"
    if limit is not None:
        sql += f" LIMIT {limit}"  # no ORDER BY: the join's own order
    indexed = join_db(order_keys, customer_ids, key_type, True)
    plain = join_db(order_keys, customer_ids, key_type, False)
    assert "HashJoin" in plain.explain(sql)
    got = select(indexed, sql)
    assert got == select(plain, sql)
    event(f"IndexJoin={'IndexJoin' in indexed.explain(sql)}")
    if limit is None:
        with mirror_of(plain, "o", "c") as mirror:
            assert sorted(got) == sorted(mirror.execute(sql).fetchall())


class TestIndexJoinRule:
    @staticmethod
    def make() -> Database:
        return join_db(
            [index % 8 if index % 9 else None for index in range(40)],
            range(8),
            DataType.INTEGER,
            indexed=True,
        )

    def test_small_outer_probes_either_input(self):
        db = self.make()
        left = db.explain(
            "SELECT o.id FROM o JOIN c ON o.k = c.id WHERE c.id = 3"
        )
        right = db.explain(
            "SELECT o.id FROM c JOIN o ON o.k = c.id WHERE c.id = 3"
        )
        assert "IndexJoin(INNER, left o AS o ON k)" in left
        assert "IndexJoin(INNER, right o AS o ON k)" in right
        assert "HashJoin" not in left + right

    def test_everything_else_stays_a_hash_join(self):
        db = self.make()
        for sql in (
            # outer not small
            "SELECT o.id FROM o JOIN c ON o.k = c.id",
            "SELECT o.id FROM o JOIN c ON o.k = c.id WHERE o.v <> 'v0'",
            # not INNER
            "SELECT o.id FROM c LEFT JOIN o ON o.k = c.id WHERE c.id = 3",
            # key is not the indexed column itself
            "SELECT o.id FROM o JOIN c ON o.k + 0 = c.id WHERE c.id = 3",
            # two keys
            "SELECT o.id FROM o JOIN c ON o.k = c.id AND o.v = c.name "
            "WHERE c.id = 3",
            # probed side is filtered, not a bare scan, and too big to
            # be the outer of a probe into c
            "SELECT o.id FROM o JOIN c ON o.k = c.id "
            "WHERE o.v <> 'v0' AND c.name <> 'v9'",
        ):
            plan = db.explain(sql)
            assert "HashJoin" in plan and "IndexJoin" not in plan, sql
        assert "IndexJoin" not in db.explain(
            "SELECT o.id FROM o JOIN c ON o.k = c.id WHERE c.id = 3",
            optimize=False,
        )

    def test_estimates_for_the_new_nodes(self):
        db = self.make()
        o, c = db.table("o"), db.table("c")
        # 40 rows over 9 distinct k values (NULL included): 4 per key.
        assert _estimate_rows(physical.IndexLookup(o, "o", "k", 3)) == 4
        between = physical.IndexRange(o, "o", "k", 2, 4)
        assert _estimate_rows(between) == 3 * 4
        assert _estimate_rows(physical.IndexRange(o, "o", "k", 50, None)) == 1
        below_five = physical.IndexRange(c, "c", "id", None, 5, False, True)
        assert _estimate_rows(below_five) == 5
        join = physical.IndexJoin(
            physical.IndexRange(c, "c", "id", 1, 2),
            lambda row: row[0],
            o,
            "o",
            "k",
            table_is_left=True,
        )
        assert _estimate_rows(join) == 2 * 4
        assert _estimate_rows(physical.Filter(join, lambda row: True)) == 8
