"""Recursive-descent SQL parser.

Grammar coverage (everything the TAG benchmark, the Text2SQL synthesizer,
and the hand-written pipelines emit):

- ``SELECT [DISTINCT] items FROM source [JOIN ... ON ...]* [WHERE]
  [GROUP BY] [HAVING] [ORDER BY] [LIMIT [OFFSET]]``
- subqueries in FROM, ``IN (SELECT ...)``, ``EXISTS``, and scalar position
- ``CASE``, ``CAST``, ``LIKE``, ``IN (list)``, ``BETWEEN``, ``IS [NOT] NULL``
- ``CREATE TABLE`` with PRIMARY KEY / NOT NULL / FOREIGN KEY clauses
- ``INSERT INTO t [(cols)] VALUES (...), (...)``
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple, get_args

from repro.db.sql import ast
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.errors import SQLSyntaxError

_COMPARISON_OPERATORS = {"=", "==", "<>", "!=", "<", "<=", ">", ">="}

#: Deepest expression the parser accepts, as SQLite bounds its own with
#: ``SQLITE_MAX_EXPR_DEPTH``.  It caps two things: how deep the parser
#: nests (each parenthesis, function argument, unary operator and
#: subquery is a level) and how many expression nodes deep a tree is (a
#: left-associative chain ``1 + 1 + ... + 1`` of n terms is n deep).
#: Every recursive walker of the tree stays inside Python's default
#: recursion limit at this depth, from a ``TagServer`` worker thread
#: too; deeper input is a :class:`~repro.errors.SQLSyntaxError`.  It
#: also caps the joins in one statement, whose tree is left-deep the
#: same way (SQLite's cap on tables in a join is 64 as well).
MAX_EXPR_DEPTH = 64

_EXPRESSION_TYPES = frozenset(get_args(ast.Expression))


def _height(expression: ast.Expression) -> int:
    """Expression nodes on the longest path down from ``expression``,
    through any subquery it holds."""
    deepest = 0
    stack = [(expression, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for child in ast.children(node):
            stack.append((child, level + (type(child) in _EXPRESSION_TYPES)))
    return deepest


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement (a trailing ``;`` is permitted)."""
    return parse_tokens(tokenize(sql))


def parse_tokens(tokens: list[Token]) -> ast.Statement:
    """Parse one statement from :func:`tokenize`'s tokens."""
    return _parse(_Parser(tokens))


class Slot(NamedTuple):
    """A template's stand-in for the value of the literal token at
    ``index``, which ``read`` makes of the token's text."""

    index: int
    read: Callable[[str], object]


def parse_template(tokens: list[Token]) -> ast.Statement:
    """Parse ``tokens`` into the tree every text with their token types
    and non-literal texts parses to: each literal's value is the
    :class:`Slot` of its token, and each ``position`` and ``end`` is a
    token index instead of a character offset.  The parser decides
    nothing on a literal's value, so only those differ between such
    texts."""
    return _parse(
        _TemplateParser(
            [
                Token(token.type, token.text, index, index)
                for index, token in enumerate(tokens)
            ]
        )
    )


def _parse(parser: "_Parser") -> ast.Statement:
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        #: Expression levels open now, the most ever open at once, the
        #: nodes left-associative chains have built so far, and joins.
        self._depth = self._peak = self._steps = self._joins = 0

    # -- token helpers ---------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def _value(self, read: Callable[[str], object], token: Token) -> object:
        return read(token.text)

    def _check_keyword(self, *keywords: str) -> bool:
        return self._current.matches_keyword(*keywords)

    def _accept_keyword(self, *keywords: str) -> bool:
        if self._check_keyword(*keywords):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            self._fail(f"expected {keyword}")

    def _check_punct(self, text: str) -> bool:
        return self._current.type is TokenType.PUNCT and (
            self._current.text == text
        )

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> None:
        if not self._accept_punct(text):
            self._fail(f"expected {text!r}")

    def _check_operator(self, *texts: str) -> bool:
        return self._current.type is TokenType.OPERATOR and (
            self._current.text in texts
        )

    def _fail(self, message: str) -> None:
        token = self._current
        shown = token.text or "<end of input>"
        raise SQLSyntaxError(
            f"{message}, found {shown!r}", position=token.position
        )

    def _enter(self) -> None:
        """Open one more expression level (closed by ``_depth -= 1``)."""
        self._depth += 1
        if self._depth > self._peak:
            self._peak = self._depth
            if self._depth > MAX_EXPR_DEPTH:
                self._too_deep(self._current.position)

    def _chained(self, node: ast.Expression, position: int) -> ast.Expression:
        """``node``, which a left-associative chain has just built over
        everything parsed before it, if it is not too deep.  Its exact
        height is only asked for once the cheap bound — every path down
        holds at most ``_peak`` levels plus ``_steps`` chain nodes — no
        longer rules it out."""
        self._steps += 1
        if (
            self._peak + self._steps > MAX_EXPR_DEPTH
            and self._depth + _height(node) - 1 > MAX_EXPR_DEPTH
        ):
            self._too_deep(position)
        return node

    def _too_deep(self, position: int) -> None:
        raise SQLSyntaxError(
            f"expression tree is too deep (maximum depth {MAX_EXPR_DEPTH})",
            position=position,
        )

    def expect_end(self) -> None:
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            self._fail("unexpected trailing input")

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            return self._parse_select()
        if self._check_keyword("CREATE"):
            return self._parse_create_table()
        if self._check_keyword("INSERT"):
            return self._parse_insert()
        if self._check_keyword("UPDATE"):
            return self._parse_update()
        if self._check_keyword("DELETE"):
            return self._parse_delete()
        self._fail("expected SELECT, CREATE, INSERT, UPDATE, or DELETE")
        raise AssertionError  # pragma: no cover

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._parse_identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        column = self._parse_identifier("column name")
        if not self._check_operator("="):
            self._fail("expected '=' in assignment")
        self._advance()
        return column, self.parse_expression()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_identifier("table name")
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.Delete(table, where)

    def _parse_create_table(self) -> ast.CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._parse_identifier("table name")
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        foreign_keys: list[ast.ForeignKeyDef] = []
        while True:
            if self._check_keyword("FOREIGN"):
                foreign_keys.append(self._parse_foreign_key())
            elif self._check_keyword("PRIMARY"):
                self._parse_table_level_primary_key(columns)
            else:
                columns.append(self._parse_column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(name, tuple(columns), tuple(foreign_keys))

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._parse_identifier("column name")
        type_name = self._parse_identifier("column type")
        if self._accept_punct("("):
            # Swallow length arguments like VARCHAR(64).
            while not self._accept_punct(")"):
                self._advance()
        primary_key = False
        not_null = False
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._accept_keyword("NULL"):
                pass
            else:
                break
        return ast.ColumnDef(name, type_name, primary_key, not_null)

    def _parse_table_level_primary_key(
        self, columns: list[ast.ColumnDef]
    ) -> None:
        self._expect_keyword("PRIMARY")
        self._expect_keyword("KEY")
        self._expect_punct("(")
        names = [self._parse_identifier("column name")]
        while self._accept_punct(","):
            names.append(self._parse_identifier("column name"))
        self._expect_punct(")")
        wanted = {name.lower() for name in names}
        for position, column in enumerate(columns):
            if column.name.lower() in wanted:
                columns[position] = ast.ColumnDef(
                    column.name, column.type_name, True, column.not_null
                )

    def _parse_foreign_key(self) -> ast.ForeignKeyDef:
        self._expect_keyword("FOREIGN")
        self._expect_keyword("KEY")
        self._expect_punct("(")
        column = self._parse_identifier("column name")
        self._expect_punct(")")
        self._expect_keyword("REFERENCES")
        parent = self._parse_identifier("table name")
        self._expect_punct("(")
        parent_column = self._parse_identifier("column name")
        self._expect_punct(")")
        return ast.ForeignKeyDef(column, parent, parent_column)

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_identifier("table name")
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._parse_identifier("column name"))
            while self._accept_punct(","):
                columns.append(self._parse_identifier("column name"))
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expression, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self.parse_expression()]
            while self._accept_punct(","):
                values.append(self.parse_expression())
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return ast.Insert(table, tuple(columns), tuple(rows))

    # -- SELECT ----------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        source = None
        if self._accept_keyword("FROM"):
            source = self._parse_from()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: list[ast.Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self._accept_punct(","):
                group_by.append(self.parse_expression())
        having = position = end = None
        if self._check_keyword("HAVING"):
            position = self._advance().position
            having = self.parse_expression()
            end = self._tokens[self._position - 1].end
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = None
        if self._accept_keyword("LIMIT"):
            limit = self.parse_expression()
            if self._accept_keyword("OFFSET"):
                offset = self.parse_expression()
            elif self._accept_punct(","):
                # LIMIT offset, count (MySQL style, BIRD queries use it)
                offset = limit
                limit = self.parse_expression()
        return ast.Select(
            items=tuple(items),
            source=source,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            position=position,
            end=end,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._parse_identifier("alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return ast.SelectItem(expression, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expression, ascending)

    def _parse_from(self) -> ast.FromSource:
        source = self._parse_from_item()
        while True:
            position = self._current.position
            if self._accept_punct(","):
                kind = "CROSS"
            else:
                kind = self._parse_join_kind()
                if kind is None:
                    return source
            self._joins += 1
            if self._joins > MAX_EXPR_DEPTH:
                raise SQLSyntaxError(
                    f"too many joins (maximum {MAX_EXPR_DEPTH})",
                    position=position,
                )
            right = self._parse_from_item()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expression()
            source = ast.Join(kind, source, right, condition)

    def _parse_join_kind(self) -> str | None:
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "CROSS"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        if self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "LEFT"
        if self._accept_keyword("JOIN"):
            return "INNER"
        return None

    def _parse_from_item(self) -> ast.FromSource:
        if self._accept_punct("("):
            self._enter()
            if self._check_keyword("SELECT"):
                query = self._parse_select()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._parse_identifier("subquery alias")
                self._depth -= 1
                return ast.SubquerySource(query, alias)
            source = self._parse_from()
            self._expect_punct(")")
            self._depth -= 1
            return source
        token = self._current
        name = self._parse_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._parse_identifier("alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return ast.TableSource(name, alias, token.position, token.end)

    def _parse_identifier(self, what: str) -> str:
        token = self._current
        if token.type is TokenType.IDENTIFIER:
            return self._advance().text
        # Permit non-reserved keywords used as identifiers in a pinch.
        if token.type is TokenType.KEYWORD and token.text in (
            "KEY",
            "VALUES",
            "ALL",
        ):
            return self._advance().text
        self._fail(f"expected {what}")
        raise AssertionError  # pragma: no cover

    # -- expressions (precedence climbing) --------------------------------

    def parse_expression(self) -> ast.Expression:
        self._enter()
        expression = self._parse_or()
        self._depth -= 1
        return expression

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._check_keyword("OR"):
            position = self._advance().position
            right = self._parse_and()
            left = self._chained(ast.BinaryOp("OR", left, right), position)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._check_keyword("AND"):
            position = self._advance().position
            right = self._parse_not()
            left = self._chained(ast.BinaryOp("AND", left, right), position)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            self._enter()
            operand = self._parse_not()
            self._depth -= 1
            return ast.UnaryOp("NOT", operand)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            position = self._current.position
            if self._check_operator(*_COMPARISON_OPERATORS):
                op = self._advance().text
                if op == "==":
                    op = "="
                if op == "!=":
                    op = "<>"
                right = self._parse_additive()
                left = self._chained(ast.BinaryOp(op, left, right), position)
                continue
            negated = False
            if self._check_keyword("NOT"):
                lookahead = self._tokens[self._position + 1]
                if lookahead.matches_keyword("IN", "LIKE", "BETWEEN"):
                    self._advance()
                    negated = True
                else:
                    break
            if self._accept_keyword("IS"):
                is_negated = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                left = ast.IsNullExpression(left, negated=is_negated)
            elif self._accept_keyword("LIKE"):
                pattern = self._parse_additive()
                left = ast.LikeExpression(left, pattern, negated=negated)
            elif self._accept_keyword("BETWEEN"):
                lower = self._parse_additive()
                self._expect_keyword("AND")
                upper = self._parse_additive()
                left = ast.BetweenExpression(left, lower, upper, negated)
            elif self._accept_keyword("IN"):
                left = self._parse_in_tail(left, negated)
            else:
                if negated:
                    self._fail("expected IN, LIKE, or BETWEEN after NOT")
                break
            left = self._chained(left, position)
        return left

    def _parse_in_tail(
        self, operand: ast.Expression, negated: bool
    ) -> ast.Expression:
        opening = self._current
        self._expect_punct("(")
        if self._check_keyword("SELECT"):
            subquery = self._parse_select()
            last = self._current
            self._expect_punct(")")
            return ast.InSubquery(
                operand, subquery, negated, opening.position, last.end
            )
        items = [self.parse_expression()]
        while self._accept_punct(","):
            items.append(self.parse_expression())
        self._expect_punct(")")
        return ast.InList(operand, tuple(items), negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._check_operator("+", "-", "||"):
            token = self._advance()
            right = self._parse_multiplicative()
            left = self._chained(
                ast.BinaryOp(token.text, left, right), token.position
            )
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._check_operator("*", "/", "%"):
            token = self._advance()
            right = self._parse_unary()
            left = self._chained(
                ast.BinaryOp(token.text, left, right), token.position
            )
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._check_operator("-", "+"):
            op = self._advance().text
            self._enter()
            operand = self._parse_unary()
            self._depth -= 1
            return ast.UnaryOp(op, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current
        if token.type is TokenType.INTEGER:
            self._advance()
            return ast.Literal(self._value(int, token))
        if token.type is TokenType.FLOAT:
            self._advance()
            return ast.Literal(self._value(float, token))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(self._value(str, token))
        if token.matches_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches_keyword("CASE"):
            return self._parse_case()
        if token.matches_keyword("CAST"):
            return self._parse_cast()
        if token.matches_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_select()
            self._expect_punct(")")
            return ast.ExistsSubquery(subquery)
        if self._check_punct("("):
            self._advance()
            if self._check_keyword("SELECT"):
                subquery = self._parse_select()
                last = self._current
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery, token.position, last.end)
            expression = self.parse_expression()
            self._expect_punct(")")
            return expression
        if self._check_operator("*"):
            position = self._advance().position
            return ast.Star(position=position)
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expression()
        self._fail("expected an expression")
        raise AssertionError  # pragma: no cover

    def _parse_identifier_expression(self) -> ast.Expression:
        token = self._advance()
        name = token.text
        if self._check_punct("("):
            return self._parse_function_call(token)
        if self._accept_punct("."):
            if self._check_operator("*"):
                self._advance()
                return ast.Star(name, token.position, token.end)
            last = self._current
            column = self._parse_identifier("column name")
            return ast.ColumnRef(column, name, token.position, last.end)
        return ast.ColumnRef(name, None, token.position, token.end)

    def _parse_function_call(self, token: Token) -> ast.FunctionCall:
        """The call of the function ``token`` names."""
        self._expect_punct("(")
        upper = token.text.upper()
        star = distinct = False
        args: list[ast.Expression] = []
        if self._check_operator("*"):
            self._advance()
            star = True
        elif not self._check_punct(")"):
            distinct = self._accept_keyword("DISTINCT")
            args.append(self.parse_expression())
            while self._accept_punct(","):
                args.append(self.parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(
            upper, tuple(args), distinct, star, token.position, token.end
        )

    def _parse_case(self) -> ast.CaseExpression:
        self._expect_keyword("CASE")
        operand = None
        if not self._check_keyword("WHEN"):
            operand = self.parse_expression()
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            result = self.parse_expression()
            branches.append((condition, result))
        if not branches:
            self._fail("CASE requires at least one WHEN branch")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpression(operand, tuple(branches), default)

    def _parse_cast(self) -> ast.CastExpression:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self.parse_expression()
        self._expect_keyword("AS")
        name = self._current
        type_name = self._parse_identifier("type name")
        if self._accept_punct("("):
            while not self._accept_punct(")"):
                self._advance()
        self._expect_punct(")")
        return ast.CastExpression(operand, type_name, name.position, name.end)


class _TemplateParser(_Parser):
    def _value(self, read: Callable[[str], object], token: Token) -> object:
        return Slot(token.position, read)
