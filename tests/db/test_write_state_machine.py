"""Stateful differential test of the in-place write path.

INSERT / UPDATE / DELETE statements of every shape the engine treats
differently (by primary key through the index, by a non-key predicate,
without WHERE, tail and mid-table deletes, updates that move an indexed
column or the primary key, writes that must fail) are interleaved
against stdlib ``sqlite3``.  After every step the table's rows must
equal SQLite's, and everything the writes maintain incrementally must
equal what a from-scratch rebuild would produce: index buckets and
their ordered key lists, the primary-key set, cached column statistics
and partition row ids.  The table is hash-partitioned and queried at
``shards=2`` after each write (point, range, Top-N and sharded shapes,
plus key joins whose access path follows the statistics), and the
plans of the single-table SELECT set must never change.
"""

from __future__ import annotations

import sqlite3

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.db import Column, Database, DataType, TableSchema
from repro.db.table import ColumnStats
from repro.db.types import sort_key
from repro.errors import SchemaError

COLUMNS = ("id", "grp", "label", "score")
INDEXED = ("id", "grp", "label")

ids = st.integers(min_value=0, max_value=11)
groups = st.integers(min_value=0, max_value=3)
labels = st.sampled_from([None, "a", "b", "c"])
scores = st.sampled_from([None, 0.0, 0.5, 1.5, 4.0])

#: Point lookup (IndexLookup), sharded scans, an aggregate and a sort;
#: then range scans (IndexRange: Sort elided, on the partition key, and
#: one-sided under a Top-N Sort) and a Top-N over the sharded scan.
SELECTS = (
    "SELECT id, grp, label, score FROM t WHERE id = 3",
    "SELECT id, label FROM t WHERE label = 'a' ORDER BY id",
    "SELECT id, score FROM t WHERE score >= 0.5 ORDER BY id",
    "SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp ORDER BY grp",
    "SELECT id FROM t WHERE grp <> 1 ORDER BY score DESC, id LIMIT 4",
    "SELECT id, grp FROM t WHERE id BETWEEN 2 AND 8 ORDER BY id LIMIT 3",
    "SELECT id, label FROM t WHERE grp BETWEEN 1 AND 2 ORDER BY id",
    "SELECT id, label FROM t WHERE label >= 'b' "
    "ORDER BY label, id LIMIT 3 OFFSET 1",
    "SELECT id, score FROM t WHERE score >= 0.5 "
    "ORDER BY score, id LIMIT 2",
)

#: Key joins: IndexJoin or HashJoin as the statistics have it, so their
#: plans are free to move; their rows are not.
JOINS = (
    "SELECT a.id, b.id, b.label FROM t a JOIN t b ON a.grp = b.id "
    "WHERE b.id = 2 ORDER BY a.id",
    "SELECT a.id, b.id, b.label FROM t a JOIN t b ON b.id = a.grp "
    "WHERE a.id = 5",
    "SELECT a.id, b.id, b.label FROM t a JOIN t b ON b.id = a.grp "
    "WHERE a.id BETWEEN 3 AND 6 AND b.label <> 'c' ORDER BY a.id",
)


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


class WriteMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.db = Database()
        self.db.create_table(
            TableSchema(
                "t",
                [
                    Column(
                        "id",
                        DataType.INTEGER,
                        nullable=False,
                        primary_key=True,
                    ),
                    Column("grp", DataType.INTEGER, nullable=False),
                    Column("label", DataType.TEXT),
                    Column("score", DataType.REAL),
                ],
            )
        )
        for column in INDEXED:
            self.db.create_index("t", column)
        self.db.set_partitioning("t", "grp", shards=2)
        self.db.configure_sharding(workers=2)
        self.table = self.db.table("t")
        self.mirror = sqlite3.connect(":memory:")
        self.mirror.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER NOT NULL, "
            "label TEXT, score REAL)"
        )
        self.plans = [self.db.explain(sql) for sql in SELECTS]
        assert "IndexLookup" in self.plans[0]
        assert "Exchange" in self.plans[2]
        assert "key order" in self.plans[5] and "Sort" not in self.plans[5]
        assert "IndexRange" in self.plans[6] and "Sort" in self.plans[6]
        assert "IndexRange" in self.plans[7]
        assert "Exchange" in self.plans[8]

    def run(self, sql: str) -> None:
        """One statement on both engines: same outcome, or both fail
        and (checked by the invariants) both leave the table alone."""
        try:
            cursor = self.mirror.execute(sql)
            expected = cursor.rowcount
        except sqlite3.IntegrityError:
            self.mirror.rollback()
            expected = None
        else:
            self.mirror.commit()
        try:
            affected = self.db.execute(sql).scalar()
        except SchemaError:
            affected = None
        assert affected == expected, sql

    def select(self, sql: str) -> list[tuple]:
        """Rows of a SELECT executed twice: the second answer may come
        from what the first left in the statement cache — an AST, a
        verdict, a plan — and must equal it."""
        rows = self.db.execute(sql).rows
        assert self.db.execute(sql).rows == rows, sql
        return rows

    # -- writes ----------------------------------------------------------

    @rule(id=ids, grp=groups, label=labels, score=scores)
    def insert(self, id, grp, label, score):
        self.run(
            f"INSERT INTO t VALUES ({id}, {grp}, {literal(label)}, "
            f"{literal(score)})"
        )

    @rule(id=ids, label=labels, score=scores)
    def update_by_key(self, id, label, score):
        self.run(
            f"UPDATE t SET label = {literal(label)}, "
            f"score = {literal(score)} WHERE id = {id}"
        )

    @rule(old=ids, new=ids)
    def update_the_key(self, old, new):
        self.run(f"UPDATE t SET id = {new} WHERE id = {old}")

    @rule(grp=groups, new=ids)
    def update_keys_of_a_group(self, grp, new):
        # Fails whenever the group holds two rows or ``new`` is taken.
        self.run(f"UPDATE t SET id = {new} WHERE grp = {grp}")

    @rule(grp=groups, label=labels)
    def update_indexed_column_by_indexed_predicate(self, grp, label):
        self.run(f"UPDATE t SET label = {literal(label)} WHERE grp = {grp}")

    @rule(score=scores.filter(lambda value: value is not None), grp=groups)
    def update_partition_column_by_scan(self, score, grp):
        self.run(f"UPDATE t SET grp = {grp} WHERE score > {score}")

    @rule()
    def update_every_row(self):
        self.run("UPDATE t SET score = score + 0.5, grp = (grp + 1) % 4")

    @rule(id=ids)
    def update_to_null_in_not_null_column(self, id):
        self.run(f"UPDATE t SET grp = NULL WHERE id = {id}")

    @rule(id=ids)
    def delete_by_key(self, id):
        self.run(f"DELETE FROM t WHERE id = {id}")

    @rule()
    def delete_the_last_row(self):
        if len(self.table):
            self.run(f"DELETE FROM t WHERE id = {self.table.rows[-1][0]}")

    @rule()
    def delete_a_middle_row(self):
        if len(self.table) >= 3:
            middle = self.table.rows[len(self.table) // 2][0]
            self.run(f"DELETE FROM t WHERE id = {middle}")

    @rule(label=labels.filter(lambda value: value is not None))
    def delete_by_indexed_predicate(self, label):
        self.run(f"DELETE FROM t WHERE label = '{label}'")

    @rule(score=scores.filter(lambda value: value is not None))
    def delete_by_scan(self, score):
        self.run(f"DELETE FROM t WHERE score < {score} OR score IS NULL")

    @rule()
    def delete_every_row(self):
        self.run("DELETE FROM t")

    # -- what must hold after every step ---------------------------------

    @invariant()
    def rows_equal_sqlite(self):
        ordered = "SELECT id, grp, label, score FROM t ORDER BY id"
        assert self.select(ordered) == (
            self.mirror.execute(ordered).fetchall()
        )

    @invariant()
    def selects_equal_sqlite_at_two_shards(self):
        for sql in SELECTS + JOINS:
            assert self.select(sql) == (
                self.mirror.execute(sql).fetchall()
            ), sql

    @invariant()
    def plans_do_not_move(self):
        assert [self.db.explain(sql) for sql in SELECTS] == self.plans

    @invariant()
    def indexes_equal_a_rebuild_and_a_scan(self):
        table = self.table
        for column in INDEXED:
            position = table.schema.column_index(column)
            assert table._indexes[position] == table._build_index(position)
            present = {row[position] for row in table.rows}
            for value in present | {-1, "zz"} - {None}:
                if isinstance(value, str) != (column == "label"):
                    continue
                assert [
                    table.rows[i] for i in table.lookup_ids(column, value)
                ] == [row for row in table.rows if row[position] == value]

    @invariant()
    def ordered_keys_equal_a_sorted_rebuild(self):
        table = self.table
        for position, index in table._indexes.items():
            assert table._index_keys[position] == sorted(
                (key for key in index if key is not None), key=sort_key
            )

    @invariant()
    def key_set_equals_a_rebuild(self):
        assert self.table._pk_seen == {(row[0],) for row in self.table.rows}

    @invariant()
    def statistics_equal_a_recomputation(self):
        table = self.table
        for position, column in enumerate(COLUMNS):
            values = [row[position] for row in table.rows]
            assert table.column_stats(column) == ColumnStats(
                rows=len(values),
                distinct=len(set(values)),
                nulls=values.count(None),
            )

    @invariant()
    def partition_row_ids_equal_a_rebuild(self):
        table = self.table
        spec = table.partition_spec
        position = table.schema.column_index(spec.column)
        assert table.partition_row_ids() == [
            [
                row_id
                for row_id, row in enumerate(table.rows)
                if spec.shard_of(row[position]) == shard
            ]
            for shard in range(spec.shards)
        ]

    def teardown(self):
        if hasattr(self, "mirror"):
            self.mirror.close()


TestWriteMachine = WriteMachine.TestCase
TestWriteMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
