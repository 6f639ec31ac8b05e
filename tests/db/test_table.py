"""Unit tests for repro.db.table storage, constraints, and indexes."""

import sys
import threading

import pytest

from repro.db import Column, DataType, TableSchema
from repro.db.table import ColumnStats, Table
from repro.errors import SchemaError


@pytest.fixture()
def table() -> Table:
    return Table(
        TableSchema(
            "people",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                Column("name", DataType.TEXT, nullable=False),
                Column("age", DataType.INTEGER),
            ],
        )
    )


class TestInsert:
    def test_positional_insert_coerces(self, table):
        table.insert([1, "Ada", "36"])
        assert table.rows == [(1, "Ada", 36)]

    def test_mapping_insert_fills_missing_with_null(self, table):
        table.insert({"id": 1, "name": "Ada"})
        assert table.rows == [(1, "Ada", None)]

    def test_mapping_insert_rejects_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.insert({"id": 1, "name": "Ada", "salary": 10})

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert([1, "Ada"])

    def test_not_null_enforced(self, table):
        with pytest.raises(SchemaError):
            table.insert([1, None, 30])

    def test_primary_key_uniqueness(self, table):
        table.insert([1, "Ada", 36])
        with pytest.raises(SchemaError):
            table.insert([1, "Bob", 40])

    def test_insert_many_counts(self, table):
        count = table.insert_many([[1, "Ada", 36], [2, "Bob", 40]])
        assert count == 2
        assert len(table) == 2


class TestReads:
    def test_to_dicts(self, table):
        table.insert([1, "Ada", 36])
        assert table.to_dicts() == [{"id": 1, "name": "Ada", "age": 36}]


class TestIndexes:
    def test_lookup_without_index_scans(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 36], [3, "Cy", 20]])
        assert len(table.lookup_ids("age", 36)) == 2

    def test_lookup_with_index(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 36]])
        table.create_index("age")
        assert table.has_index("age")
        assert len(table.lookup_ids("age", 36)) == 2
        assert table.lookup_ids("age", 99) == []

    def test_index_maintained_on_later_inserts(self, table):
        table.create_index("age")
        table.insert([1, "Ada", 36])
        table.insert([2, "Bob", 36])
        assert len(table.lookup_ids("age", 36)) == 2

    def test_lookup_coerces_value(self, table):
        table.insert([1, "Ada", 36])
        table.create_index("age")
        assert len(table.lookup_ids("age", "36")) == 1


class TestColumnStats:
    def test_counts_rows_distinct_and_nulls(self, table):
        table.insert_many(
            [[1, "Ada", 36], [2, "Bob", None], [3, "Cy", 36], [4, "Di", None]]
        )
        # NULL is one of the distinct values, as the analyzer's
        # dedup bound has always counted it.
        assert table.column_stats("age") == ColumnStats(
            rows=4, distinct=2, nulls=2
        )
        assert table.column_stats("AGE") is table.column_stats("age")
        assert table.column_stats("age").null_fraction == 0.5

    def test_empty_table(self, table):
        stats = table.column_stats("age")
        assert stats == ColumnStats(rows=0, distinct=0, nulls=0)
        assert stats.null_fraction == 0.0

    def test_unknown_column_raises(self, table):
        with pytest.raises(SchemaError, match="no column 'salary'"):
            table.column_stats("salary")

    def test_every_write_drops_them(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 40]])
        assert table.column_stats("age").distinct == 2
        table.insert([3, "Cy", 20])
        assert table.column_stats("age").distinct == 3
        table.update_rows([(0, [1, "Ada", 20])])
        assert table.column_stats("age").distinct == 2
        table.delete_rows([1])
        assert table.column_stats("age") == ColumnStats(2, 1, 0)

    def test_concurrent_readers_agree(self, table):
        """The slot is lock-free: readers that miss together each scan
        and publish the same frozen value.  More threads than cores, a
        tiny switch interval, a write between rounds."""
        table.insert_many(
            [[n, f"p{n}", n % 7 if n % 5 else None] for n in range(400)]
        )
        names = table.schema.column_names
        failures: list[BaseException] = []

        def read(expected):
            try:
                for _ in range(20):
                    for name in names:
                        assert table.column_stats(name) == expected[name]
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                table.insert([1000 + round_, "new", None])
                expected = {}
                for position, name in enumerate(names):
                    values = [row[position] for row in table.rows]
                    expected[name] = ColumnStats(
                        len(values), len(set(values)), values.count(None)
                    )
                threads = [
                    threading.Thread(target=read, args=(expected,))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert not failures, failures[0]
                assert table._stats == {
                    position: expected[name]
                    for position, name in enumerate(names)
                }
        finally:
            sys.setswitchinterval(interval)


class TestInPlaceWrites:
    def test_update_rows_validates_ids_before_mutating(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 40]])
        with pytest.raises(SchemaError, match="no row 5"):
            table.update_rows([(0, [1, "Ada", 37]), (5, [9, "Zed", 1])])
        assert table.rows == [(1, "Ada", 36), (2, "Bob", 40)]

    def test_delete_rows_validates_ids_before_mutating(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 40]])
        with pytest.raises(SchemaError, match="no row 2"):
            table.delete_rows([0, 2])
        assert len(table) == 2

    def test_empty_writes_are_no_ops(self, table):
        table.insert([1, "Ada", 36])
        stats = table.column_stats("age")
        assert table.update_rows([]) == 0
        assert table.delete_rows([]) == 0
        assert table.column_stats("age") is stats

    def test_lookup_ids_are_ascending_copies(self, table):
        table.insert_many([[1, "Ada", 36], [2, "Bob", 20], [3, "Cy", 36]])
        assert table.lookup_ids("age", 36) == [0, 2]
        table.create_index("age")
        ids = table.lookup_ids("age", 36)
        assert ids == [0, 2]
        ids.clear()  # a copy: the index is untouched
        assert table.lookup_ids("age", 36) == [0, 2]
