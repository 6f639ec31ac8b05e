"""Unit tests for UPDATE and DELETE statements."""

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import PlanningError, SchemaError, SQLSyntaxError


class TestUpdate:
    def test_update_with_where(self, movies_db):
        outcome = movies_db.execute(
            "UPDATE movies SET genre = 'Classic' WHERE year < 1950"
        )
        assert outcome.rows == [(1,)]
        assert movies_db.execute(
            "SELECT genre FROM movies WHERE title = 'Casablanca'"
        ).scalar() == "Classic"

    def test_update_expression_uses_old_row(self, movies_db):
        movies_db.execute(
            "UPDATE movies SET revenue = revenue * 2 WHERE id = 4"
        )
        assert movies_db.execute(
            "SELECT revenue FROM movies WHERE id = 4"
        ).scalar() == pytest.approx(20.4)

    def test_update_all_rows(self, movies_db):
        outcome = movies_db.execute("UPDATE movies SET year = year + 1")
        assert outcome.rows == [(6,)]

    def test_multi_assignment(self, movies_db):
        movies_db.execute(
            "UPDATE movies SET genre = 'X', year = 2000 WHERE id = 1"
        )
        result = movies_db.execute(
            "SELECT genre, year FROM movies WHERE id = 1"
        )
        assert result.rows == [("X", 2000)]

    def test_update_coerces_types(self, movies_db):
        movies_db.execute("UPDATE movies SET year = '1955' WHERE id = 1")
        assert movies_db.execute(
            "SELECT year FROM movies WHERE id = 1"
        ).scalar() == 1955

    def test_update_violating_pk_rejected(self, movies_db):
        with pytest.raises(SchemaError):
            movies_db.execute("UPDATE movies SET id = 1 WHERE id = 2")

    def test_update_preserves_indexes(self, movies_db):
        movies_db.create_index("movies", "genre")
        movies_db.execute(
            "UPDATE movies SET genre = 'Epic' WHERE title = 'Titanic'"
        )
        assert movies_db.table("movies").lookup_ids("genre", "Epic")

    def test_update_null_semantics_in_where(self, movies_db):
        # NULL revenue rows never satisfy revenue > 0.
        outcome = movies_db.execute(
            "UPDATE movies SET genre = 'Seen' WHERE revenue > 0"
        )
        assert outcome.rows == [(5,)]


class TestDelete:
    def test_delete_with_where(self, movies_db):
        outcome = movies_db.execute(
            "DELETE FROM movies WHERE genre = 'SciFi'"
        )
        assert outcome.rows == [(2,)]
        assert movies_db.execute(
            "SELECT COUNT(*) FROM movies"
        ).scalar() == 4

    def test_delete_without_where_clears_table(self, movies_db):
        outcome = movies_db.execute("DELETE FROM movies")
        assert outcome.rows == [(6,)]
        assert movies_db.execute(
            "SELECT COUNT(*) FROM movies"
        ).scalar() == 0

    def test_delete_reindexes(self, movies_db):
        movies_db.create_index("movies", "genre")
        movies_db.execute("DELETE FROM movies WHERE genre = 'Romance'")
        assert movies_db.table("movies").lookup_ids("genre", "Romance") == []

    def test_pk_reusable_after_delete(self, movies_db):
        movies_db.execute("DELETE FROM movies WHERE id = 1")
        movies_db.execute(
            "INSERT INTO movies VALUES (1, 'New', 'Drama', 1.0, 2024)"
        )
        assert movies_db.execute(
            "SELECT title FROM movies WHERE id = 1"
        ).scalar() == "New"


def ids(table, column, value) -> list:
    """The ``id`` of each row whose ``column`` equals ``value``, as the
    table's lookup finds them."""
    return [table.rows[i][0] for i in table.lookup_ids(column, value)]


def table_state(table):
    """Everything a write maintains, copied so it can be compared."""
    return {
        "rows": list(table.rows),
        "pk_seen": set(table._pk_seen),
        "indexes": {
            position: {value: list(ids) for value, ids in index.items()}
            for position, index in table._indexes.items()
        },
        "stats": dict(table._stats),
        "partition_row_ids": [
            list(ids) for ids in table.partition_row_ids()
        ],
    }


@pytest.fixture()
def primed_movies(movies_db):
    """``movies`` with indexes, partitioning and cached statistics, so
    a failed write has every kind of derived state to leave alone."""
    movies_db.create_index("movies", "id")
    movies_db.create_index("movies", "genre")
    movies_db.set_partitioning("movies", "year", shards=2)
    table = movies_db.table("movies")
    for name in table.schema.column_names:
        table.column_stats(name)
    return movies_db


class TestFailedWriteLeavesTableIntact:
    """A failing UPDATE used to destroy the table: ``replace_all`` had
    already emptied it when the constraint check raised."""

    def test_pk_collision_keeps_every_row_and_index(self, movies_db):
        movies_db.create_index("movies", "genre")
        table = movies_db.table("movies")
        before = list(table.rows)
        with pytest.raises(SchemaError) as raised:
            movies_db.execute("UPDATE movies SET id = 1 WHERE id = 3")
        assert str(raised.value) == "duplicate primary key (1,) in 'movies'"
        assert table.rows == before
        assert table.has_index("genre")
        assert ids(table, "genre", "SciFi") == [3, 5]
        # The key set survived too: 3 is still taken, 7 still free.
        with pytest.raises(SchemaError, match="duplicate primary key"):
            movies_db.execute(
                "INSERT INTO movies VALUES (3, 'Dup', 'Drama', 1.0, 2024)"
            )
        movies_db.execute(
            "INSERT INTO movies VALUES (7, 'New', 'Drama', 1.0, 2024)"
        )

    def test_not_null_violation_keeps_every_row(self, movies_db):
        table = movies_db.table("movies")
        before = list(table.rows)
        with pytest.raises(SchemaError) as raised:
            movies_db.execute("UPDATE movies SET id = NULL")
        assert str(raised.value) == (
            "NULL in NOT NULL column 'id' of 'movies'"
        )
        assert table.rows == before

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE movies SET id = 1 WHERE id = 3",
            "UPDATE movies SET id = NULL",
            # two updated rows collide with each other, not the table
            "UPDATE movies SET id = 9 WHERE genre = 'SciFi'",
            "UPDATE movies SET year = 'soon' WHERE id >= 5",
            "UPDATE movies SET year = 1 WHERE nope = 1",
            "DELETE FROM movies WHERE nope = 1",
        ],
    )
    def test_failed_write_leaves_derived_state_untouched(
        self, primed_movies, sql
    ):
        from repro.errors import ReproError

        table = primed_movies.table("movies")
        before = table_state(table)
        with pytest.raises(ReproError):
            primed_movies.execute(sql)
        assert table_state(table) == before

    def test_keys_released_by_the_statement_are_reusable(self, movies_db):
        # Validation is against the post-statement key set: every row
        # moves onto a key another updated row gives up.
        movies_db.execute("UPDATE movies SET id = 7 - id")
        assert movies_db.execute(
            "SELECT id FROM movies WHERE title = 'Titanic'"
        ).scalar() == 6
        assert movies_db.table("movies")._pk_seen == {
            (n,) for n in range(1, 7)
        }


class TestInPlaceWrites:
    def test_update_moves_only_the_changed_index_entries(self, movies_db):
        movies_db.create_index("movies", "genre")
        table = movies_db.table("movies")
        movies_db.execute("UPDATE movies SET genre = 'Epic' WHERE id = 3")
        assert ids(table, "genre", "Epic") == [3]
        assert ids(table, "genre", "SciFi") == [5]
        movies_db.execute("UPDATE movies SET genre = 'Epic' WHERE id = 5")
        # The emptied bucket is dropped: same index as a fresh build.
        position = table.schema.column_index("genre")
        assert "SciFi" not in table._indexes[position]
        assert table._indexes[position] == table._build_index(position)

    def test_index_buckets_stay_in_row_order(self, movies_db):
        movies_db.create_index("movies", "genre")
        movies_db.execute("UPDATE movies SET genre = 'SciFi' WHERE id = 1")
        assert ids(movies_db.table("movies"), "genre", "SciFi") == [1, 3, 5]

    def test_tail_and_mid_table_deletes_keep_indexes(self, movies_db):
        movies_db.create_index("movies", "id")
        movies_db.create_index("movies", "genre")
        table = movies_db.table("movies")
        movies_db.execute("DELETE FROM movies WHERE id = 6")  # tail
        movies_db.execute("DELETE FROM movies WHERE id = 2")  # middle
        for position in table._indexes:
            assert table._indexes[position] == table._build_index(position)
        assert ids(table, "genre", "Romance") == [1, 4]
        assert table.lookup_ids("id", 6) == []

    def test_index_driven_write_matches_the_scan(self, movies_db):
        indexed = movies_db
        plain = Database()
        plain.create_table(indexed.table("movies").schema)
        plain.insert("movies", indexed.table("movies").rows)
        indexed.create_index("movies", "genre")
        for sql in (
            "UPDATE movies SET year = 0 WHERE genre = 'Romance' AND id > 1",
            "DELETE FROM movies WHERE year = 0 AND genre = 'Romance'",
        ):
            assert indexed.execute(sql).rows == plain.execute(sql).rows
            assert indexed.table("movies").rows == plain.table("movies").rows

    @pytest.mark.parametrize("literal", ["'abc'", "2.5", "'3'", "3.0", "3"])
    def test_write_through_index_agrees_with_unindexed(
        self, movies_db, literal
    ):
        # UPDATE/DELETE take the planner's index rule, so a literal the
        # index would coerce differently from a Filter falls back too.
        plain = Database()
        plain.create_table(movies_db.table("movies").schema)
        plain.insert("movies", movies_db.table("movies").rows)
        movies_db.create_index("movies", "id")
        for sql in (
            f"UPDATE movies SET title = 'hit' WHERE id = {literal}",
            f"DELETE FROM movies WHERE id = {literal}",
        ):
            assert movies_db.execute(sql).rows == plain.execute(sql).rows
            assert movies_db.table("movies").rows == plain.table("movies").rows

    def test_statistics_follow_writes(self, movies_db):
        table = movies_db.table("movies")
        assert table.column_stats("genre").distinct == 3  # NULL counts
        assert table.column_stats("genre").nulls == 1
        movies_db.execute("UPDATE movies SET genre = 'Romance'")
        assert table.column_stats("genre").distinct == 1
        assert table.column_stats("genre").nulls == 0
        movies_db.execute("DELETE FROM movies WHERE id > 2")
        assert table.column_stats("genre").rows == 2
        movies_db.execute(
            "INSERT INTO movies VALUES (9, 'New', NULL, 1.0, 2024)"
        )
        stats = table.column_stats("genre")
        assert (stats.rows, stats.distinct, stats.nulls) == (3, 2, 1)


class TestSyntax:
    def test_update_requires_set(self, movies_db):
        with pytest.raises(SQLSyntaxError):
            movies_db.execute("UPDATE movies genre = 'X'")

    def test_delete_requires_from(self, movies_db):
        with pytest.raises(SQLSyntaxError):
            movies_db.execute("DELETE movies")


def _counted(rows: list[tuple]) -> tuple[Database, list]:
    """``t(i, s)`` holding ``rows``, and a UDF ``SEEN(x)`` that returns
    ``x`` and records each call."""
    db = Database()
    db.create_table(
        TableSchema(
            "t", [Column("i", DataType.INTEGER), Column("s", DataType.TEXT)]
        )
    )
    db.insert("t", rows)
    seen: list = []
    db.register_udf("SEEN", lambda value: seen.append(value) or value)
    return db, seen


class TestWritesCheckCallsFirst:
    """A write's bad call raises before a row is read, so an empty
    table refuses it as a full one does."""

    @pytest.mark.parametrize(
        "sql,error,span",
        [
            ("UPDATE t SET i = ROUND()",
             "ROUND() expects 1..2 argument(s), got 0", (17, 22)),
            ("DELETE FROM t WHERE ROUND() = 1",
             "ROUND() expects 1..2 argument(s), got 0", (20, 25)),
            ("UPDATE t SET s = FOO(s) WHERE SEEN(i) > 0",
             "unknown function 'FOO'", (17, 20)),
            ("DELETE FROM t WHERE SEEN(i) > 0 AND SUM(i) > 1",
             "aggregate SUM() is not allowed in WHERE", (36, 39)),
            ("UPDATE t SET i = COUNT(*) WHERE SEEN(i) > 0",
             "aggregate COUNT() is not allowed in UPDATE", (17, 22)),
            ("UPDATE t SET s = CAST(i AS FOO)",
             "unknown type 'FOO' in CAST", (27, 30)),
            ("UPDATE t SET i = (SELECT i, s FROM t)",
             "scalar subquery must return exactly one column, got 2",
             (17, 37)),
            ("UPDATE t SET i = 1 WHERE SEEN(ghost) > 0",
             "unknown column 'ghost'", (30, 35)),
            ("UPDATE t SET i = ghost WHERE SEEN(i) > 0",
             "unknown column 'ghost'", (17, 22)),
        ],
    )
    @pytest.mark.parametrize("rows", [[], [(1, "a"), (2, "b"), (3, None)]])
    def test_bad_write_raises_before_a_row_is_read(
        self, sql, error, span, rows
    ):
        db, seen = _counted(rows)
        with pytest.raises(PlanningError) as raised:
            db.execute(sql)
        assert (str(raised.value), raised.value.span) == (error, span)
        assert seen == []
        assert db.execute("SELECT * FROM t").rows == rows

    def test_unknown_target_column_raises_before_a_row_is_read(self):
        db, seen = _counted([(1, "a")])
        with pytest.raises(SchemaError, match="no column 'nope'"):
            db.execute("UPDATE t SET nope = 1 WHERE SEEN(i) > 0")
        assert seen == []

    def test_insert_checks_its_values(self):
        # ... every value of every row, before the first row is written.
        db, _ = _counted([])
        for sql, error in [
            ("INSERT INTO t VALUES (FOO(1), 'a')", "unknown function 'FOO'"),
            ("INSERT INTO t VALUES (1, 'a'), (ROUND(), 'b')",
             "ROUND() expects 1..2 argument(s), got 0"),
            ("INSERT INTO t VALUES (MAX(2), 'a')",
             "aggregate MAX() is not allowed in INSERT"),
            ("INSERT INTO t VALUES (1, 'a'), (ghost, 'b')",
             "unknown column 'ghost'"),
        ]:
            with pytest.raises(PlanningError) as raised:
                db.execute(sql)
            assert str(raised.value) == error
        assert db.execute("SELECT * FROM t").rows == []
