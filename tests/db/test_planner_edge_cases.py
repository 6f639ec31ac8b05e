"""Planner edge cases: pushdown safety, aliases, mixed constructs."""

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import ExecutionError, PlanningError


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "l",
            [
                Column("id", DataType.INTEGER),
                Column("v", DataType.INTEGER),
            ],
        )
    )
    database.create_table(
        TableSchema(
            "r",
            [
                Column("id", DataType.INTEGER),
                Column("w", DataType.INTEGER),
            ],
        )
    )
    database.insert("l", [[1, 10], [2, 20], [3, None]])
    database.insert("r", [[1, 100], [1, 101], [4, 400]])
    return database


class TestLeftJoinPushdownSafety:
    def test_where_on_right_side_not_pushed_into_left_join(self, db):
        # Pushing `r.w > 0` into the right side of a LEFT JOIN must not
        # change semantics (rows with NULL w must still be filtered by
        # WHERE, not resurrected as unmatched left rows).
        sql = (
            "SELECT l.id, r.w FROM l LEFT JOIN r ON l.id = r.id "
            "WHERE r.w > 100 ORDER BY 1, 2"
        )
        assert db.execute(sql, optimize=True).rows == (
            db.execute(sql, optimize=False).rows
        )

    def test_left_join_null_padding(self, db):
        result = db.execute(
            "SELECT l.id, r.w FROM l LEFT JOIN r ON l.id = r.id "
            "ORDER BY 1, 2"
        )
        assert (2, None) in result.rows
        assert (3, None) in result.rows

    def test_is_null_on_left_join_for_anti_join(self, db):
        result = db.execute(
            "SELECT l.id FROM l LEFT JOIN r ON l.id = r.id "
            "WHERE r.id IS NULL ORDER BY 1"
        )
        assert result.rows == [(2,), (3,)]


class TestAliasesAndNames:
    def test_duplicate_output_names_allowed(self, db):
        result = db.execute("SELECT v, v FROM l WHERE id = 1")
        assert result.rows == [(10, 10)]
        assert result.columns == ["v", "v"]

    def test_expression_output_names(self, db):
        result = db.execute("SELECT v + 1, COUNT(*) FROM l GROUP BY v")
        assert result.columns[0] == "binaryop"
        assert result.columns[1] == "COUNT(*)"

    def test_subquery_alias_scopes_columns(self, db):
        result = db.execute(
            "SELECT s.total FROM (SELECT SUM(v) AS total FROM l) s"
        )
        assert result.rows == [(30,)]

    def test_table_alias_hides_original_name(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT l.v FROM l AS x")


class TestAggregateEdgeCases:
    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT id % 2, COUNT(*) FROM l GROUP BY id % 2 ORDER BY 1"
        )
        assert result.rows == [(0, 1), (1, 2)]

    def test_aggregate_of_expression(self, db):
        result = db.execute("SELECT SUM(v * 2) FROM l")
        assert result.rows == [(60,)]

    def test_nested_aggregate_in_case(self, db):
        result = db.execute(
            "SELECT CASE WHEN COUNT(*) > 2 THEN 'many' ELSE 'few' END "
            "FROM l"
        )
        assert result.rows == [("many",)]

    def test_count_distinct_with_nulls(self, db):
        assert db.execute(
            "SELECT COUNT(DISTINCT v) FROM l"
        ).scalar() == 2

    def test_order_by_position_out_of_range(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT v FROM l ORDER BY 3")

    def test_group_by_position_out_of_range(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT v FROM l GROUP BY 9")

    def test_limit_must_be_constant_integer(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT v FROM l LIMIT 'x'")

    @pytest.mark.parametrize(
        "limit,code,error",
        [
            ("FOO(1)", "ANA005", "unknown function 'FOO'"),
            ("COUNT(*)", "ANA006",
             "aggregate COUNT() is not allowed in LIMIT"),
        ],
    )
    def test_limit_calls_are_checked(self, db, limit, code, error):
        sql = f"SELECT v FROM l LIMIT {limit}"
        codes = [d.code for d in db.analyze(sql).errors]
        assert codes == ["ANA011", code]
        with pytest.raises(PlanningError) as raised:
            db.execute(sql)
        span = (22, 22 + limit.index("("))  # the function's name
        assert (str(raised.value), raised.value.span) == (error, span)

    @pytest.mark.parametrize("optimize", [True, False])
    def test_join_in_a_subquery_of_an_aggregate_query(self, db, optimize):
        # The subquery's ON reads r.id, which the outer SELECT cannot
        # see: it is not one of the outer query's ungrouped columns.
        sql = (
            "SELECT COUNT(*), (SELECT COUNT(*) FROM l JOIN r "
            "ON l.id = r.id) FROM l"
        )
        assert db.analyze(sql).ok
        assert db.execute(sql, optimize=optimize).rows == [(3, 2)]


class TestSetOperandEdgeCases:
    def test_in_list_with_null_semantics(self, db):
        # v NOT IN (10, NULL) is never true (NULL poisons NOT IN).
        result = db.execute(
            "SELECT COUNT(*) FROM l WHERE v NOT IN (10, NULL)"
        )
        assert result.rows == [(0,)]

    def test_empty_table_aggregate_via_where(self, db):
        result = db.execute(
            "SELECT MAX(v), MIN(v), AVG(v) FROM l WHERE id > 99"
        )
        assert result.rows == [(None, None, None)]

    def test_exists_false_branch(self, db):
        result = db.execute(
            "SELECT 1 WHERE EXISTS (SELECT 1 FROM l WHERE id > 99)"
        )
        assert result.rows == []

    def test_scalar_subquery_empty_is_null(self, db):
        result = db.execute(
            "SELECT (SELECT v FROM l WHERE id = 99) IS NULL"
        )
        assert result.rows == [(True,)]


class TestInsertStatements:
    def test_sql_insert_with_columns(self, db):
        outcome = db.execute("INSERT INTO l (id, v) VALUES (9, 90)")
        assert outcome.rows == [(1,)]
        assert db.execute(
            "SELECT v FROM l WHERE id = 9"
        ).scalar() == 90

    def test_sql_insert_expressions_evaluated(self, db):
        db.execute("INSERT INTO l VALUES (10, 5 * 8)")
        assert db.execute(
            "SELECT v FROM l WHERE id = 10"
        ).scalar() == 40

    def test_create_table_then_query(self, db):
        db.execute("CREATE TABLE fresh (a INTEGER, b TEXT NOT NULL)")
        db.execute("INSERT INTO fresh VALUES (1, 'x')")
        assert db.execute("SELECT b FROM fresh").scalar() == "x"


class TestIndexLookupAgreesWithFilter:
    """An index must never change an answer.  ``Table.lookup`` coerces
    its probe to the column type; a Filter compares the literal as
    written — so the planner takes the index only for literals that
    survive the coercion unchanged under ``types.compare``."""

    LITERALS = [
        "3", "3.0", "2.5", "'3'", "'abc'", "' 3 '", "TRUE", "'true'",
        "0", "-1", "1.0", "'x'", "'1'",
    ]

    @staticmethod
    def make(indexed: bool) -> Database:
        database = Database()
        database.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER),
                    Column("x", DataType.REAL),
                    Column("s", DataType.TEXT),
                    Column("b", DataType.BOOLEAN),
                    Column("a", DataType.ANY),
                ],
            )
        )
        database.insert(
            "t",
            [
                [1, 1.0, "1", True, 1],
                [2, 2.5, "x", False, "1"],
                [3, 3.0, "3", True, 3.0],
                [0, 0.0, "true", False, "abc"],
                [None, None, None, None, None],
            ],
        )
        if indexed:
            for column in ("id", "x", "s", "b", "a"):
                database.create_index("t", column)
        return database

    @pytest.mark.parametrize("column", ["id", "x", "s", "b", "a"])
    @pytest.mark.parametrize("literal", LITERALS)
    def test_same_rows_with_and_without_index(self, column, literal):
        sql = f"SELECT id FROM t WHERE {column} = {literal}"
        assert self.make(indexed=True).execute(sql).rows == (
            self.make(indexed=False).execute(sql).rows
        )

    def test_uncoercible_literals_neither_raise_nor_match(self):
        database = self.make(indexed=True)
        for literal in ("'abc'", "2.5", "'3'"):
            sql = f"SELECT id FROM t WHERE id = {literal}"
            assert database.execute(sql).rows == []
            assert "IndexLookup" not in database.explain(sql)

    def test_equal_after_coercion_still_uses_the_index(self):
        database = self.make(indexed=True)
        for predicate, expected in (
            ("id = 3", [(3,)]),
            ("id = 3.0", [(3,)]),
            ("x = 3", [(3,)]),
            ("b = 1", [(1,), (3,)]),
        ):
            sql = f"SELECT id FROM t WHERE {predicate}"
            assert "IndexLookup" in database.explain(sql)
            assert database.execute(sql).rows == expected


class TestUdfBatchSizeValidation:
    """``udf_batch_size`` is checked once, where execute / explain /
    explain_analyze meet — not by whichever operator a plan happens to
    contain."""

    STATEMENTS = [
        "SELECT id FROM l",  # no UDF: nothing batched would be planned
        "SELECT id FROM l WHERE SLOW(v) > 0",
        "SELECT SLOW(v) FROM l",
    ]

    @pytest.fixture()
    def udf_db(self, db):
        db.register_udf("SLOW", lambda v: v, expensive=True)
        return db

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("sql", STATEMENTS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (0, "udf_batch_size must be >= 1, got 0"),
            (-3, "udf_batch_size must be >= 1, got -3"),
            (2.5, "udf_batch_size must be 'auto', None or an int, got 2.5"),
            ("8", "udf_batch_size must be 'auto', None or an int, got '8'"),
            (True, "udf_batch_size must be 'auto', None or an int, got True"),
        ],
    )
    def test_rejected_everywhere(self, udf_db, sql, optimize, bad, message):
        calls = [
            lambda: udf_db.execute(
                sql, optimize=optimize, udf_batch_size=bad
            ),
            lambda: udf_db.explain(
                sql, optimize=optimize, udf_batch_size=bad
            ),
            lambda: udf_db.explain_analyze(
                sql, optimize=optimize, udf_batch_size=bad
            ),
        ]
        for call in calls:
            with pytest.raises(ExecutionError) as caught:
                call()
            assert str(caught.value) == message

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("sql", STATEMENTS)
    @pytest.mark.parametrize("good", ["auto", None, 1, 8])
    def test_accepted(self, udf_db, sql, optimize, good):
        oracle = udf_db.execute(sql, optimize=False, udf_batch_size=None)
        got = udf_db.execute(sql, optimize=optimize, udf_batch_size=good)
        assert got.rows == oracle.rows
