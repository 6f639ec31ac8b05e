"""Unit tests for the SQL parser (AST construction)."""

import pytest

from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import SQLSyntaxError


class TestSelectBasics:
    def test_simple_select(self):
        select = parse_statement("SELECT a, b FROM t")
        assert [i.expression.name for i in select.items] == ["a", "b"]
        assert select.source == ast.TableSource("t")

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT 1;")

    def test_distinct_flag(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_aliases(self):
        select = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert select.items[0].alias == "x"
        assert select.items[1].alias == "y"
        assert select.source.alias == "u"

    def test_star_and_qualified_star(self):
        select = parse_statement("SELECT *, t.* FROM t")
        assert select.items[0].expression == ast.Star()
        assert select.items[1].expression == ast.Star(table="t")

    def test_limit_offset(self):
        select = parse_statement("SELECT a FROM t LIMIT 5 OFFSET 2")
        assert select.limit == ast.Literal(5)
        assert select.offset == ast.Literal(2)

    def test_mysql_style_limit(self):
        select = parse_statement("SELECT a FROM t LIMIT 2, 5")
        assert select.limit == ast.Literal(5)
        assert select.offset == ast.Literal(2)

    def test_order_by_directions(self):
        select = parse_statement("SELECT a FROM t ORDER BY a DESC, b")
        assert select.order_by[0].ascending is False
        assert select.order_by[1].ascending is True

    def test_group_by_having(self):
        select = parse_statement(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert len(select.group_by) == 1
        assert isinstance(select.having, ast.BinaryOp)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1 2")


class TestJoins:
    def test_inner_join_with_on(self):
        select = parse_statement("SELECT * FROM a JOIN b ON a.x = b.y")
        join = select.source
        assert isinstance(join, ast.Join)
        assert join.kind == "INNER"
        assert isinstance(join.condition, ast.BinaryOp)

    def test_left_outer_join(self):
        select = parse_statement(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y"
        )
        assert select.source.kind == "LEFT"

    def test_comma_join_is_cross(self):
        select = parse_statement("SELECT * FROM a, b")
        assert select.source.kind == "CROSS"

    def test_chained_joins_left_associative(self):
        select = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = select.source
        assert isinstance(outer.left, ast.Join)
        assert outer.right == ast.TableSource("c")

    def test_subquery_in_from(self):
        select = parse_statement("SELECT * FROM (SELECT a FROM t) AS s")
        assert isinstance(select.source, ast.SubquerySource)
        assert select.source.alias == "s"


class TestExpressions:
    def test_precedence_arithmetic(self):
        select = parse_statement("SELECT 1 + 2 * 3")
        expression = select.items[0].expression
        assert expression.op == "+"
        assert expression.right.op == "*"

    def test_precedence_and_or(self):
        select = parse_statement("SELECT * FROM t WHERE a OR b AND c")
        assert select.where.op == "OR"

    def test_not_binds_tighter_than_and(self):
        select = parse_statement("SELECT * FROM t WHERE NOT a AND b")
        assert select.where.op == "AND"
        assert select.where.left == ast.UnaryOp("NOT", ast.ColumnRef("a"))

    def test_comparison_normalisation(self):
        select = parse_statement("SELECT * FROM t WHERE a != 1 AND b == 2")
        assert select.where.left.op == "<>"
        assert select.where.right.op == "="

    def test_between_and_not_between(self):
        where = parse_statement(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 3"
        ).where
        assert where == ast.BetweenExpression(
            ast.ColumnRef("a"), ast.Literal(1), ast.Literal(3)
        )
        negated = parse_statement(
            "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 3"
        ).where
        assert negated.negated

    def test_like_and_in_list(self):
        where = parse_statement(
            "SELECT * FROM t WHERE a LIKE 'x%' AND b IN (1, 2)"
        ).where
        assert isinstance(where.left, ast.LikeExpression)
        assert isinstance(where.right, ast.InList)

    def test_in_subquery_and_exists(self):
        where = parse_statement(
            "SELECT * FROM t WHERE a IN (SELECT b FROM u) "
            "AND EXISTS (SELECT 1 FROM v)"
        ).where
        assert isinstance(where.left, ast.InSubquery)
        assert isinstance(where.right, ast.ExistsSubquery)

    def test_is_null_and_is_not_null(self):
        where = parse_statement(
            "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL"
        ).where
        assert where.left == ast.IsNullExpression(ast.ColumnRef("a"))
        assert where.right.negated

    def test_case_with_operand(self):
        expression = parse_statement(
            "SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END"
        ).items[0].expression
        assert isinstance(expression, ast.CaseExpression)
        assert expression.operand == ast.ColumnRef("a")

    def test_searched_case(self):
        expression = parse_statement(
            "SELECT CASE WHEN a > 1 THEN 'x' END"
        ).items[0].expression
        assert expression.operand is None
        assert expression.default is None

    def test_case_requires_branch(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT CASE ELSE 1 END")

    def test_cast(self):
        expression = parse_statement("SELECT CAST(a AS INTEGER)").items[0]
        assert expression.expression.type_name == "INTEGER"

    def test_function_calls(self):
        select = parse_statement(
            "SELECT COUNT(*), COUNT(DISTINCT a), MAX(a, b)"
        )
        count_star, count_distinct, scalar_max = (
            item.expression for item in select.items
        )
        assert count_star.star
        assert count_distinct.distinct
        assert len(scalar_max.args) == 2

    def test_concat_operator(self):
        expression = parse_statement("SELECT a || b").items[0].expression
        assert expression.op == "||"

    def test_scalar_subquery(self):
        expression = parse_statement(
            "SELECT (SELECT MAX(a) FROM t)"
        ).items[0].expression
        assert isinstance(expression, ast.ScalarSubquery)

    def test_unary_minus(self):
        expression = parse_statement("SELECT -a").items[0].expression
        assert expression == ast.UnaryOp("-", ast.ColumnRef("a"))


class TestCreateAndInsert:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
            "v VARCHAR(10), FOREIGN KEY (name) REFERENCES u(id))"
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert statement.foreign_keys[0].parent_table == "u"

    def test_table_level_primary_key(self):
        statement = parse_statement(
            "CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))"
        )
        assert statement.columns[0].primary_key
        assert not statement.columns[1].primary_key

    def test_insert_with_columns_and_multiple_rows(self):
        statement = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, ast.Insert)
        assert statement.columns == ("a", "b")
        assert len(statement.rows) == 2

    def test_insert_without_columns(self):
        statement = parse_statement("INSERT INTO t VALUES (1)")
        assert statement.columns == ()
