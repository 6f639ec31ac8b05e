"""Unit tests for the SQL lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.sql.lexer import TokenType, tokenize
from repro.errors import ReproError, SQLSyntaxError


def _texts(sql):
    return [(t.type, t.text) for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert _texts("select From") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
        ]

    def test_identifier_vs_keyword(self):
        tokens = _texts("SELECT revenue")
        assert tokens[1] == (TokenType.IDENTIFIER, "revenue")

    def test_eof_token_terminates(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestLiterals:
    def test_string_with_escaped_quote(self):
        tokens = _texts("'it''s'")
        assert tokens == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_integer_and_float(self):
        assert _texts("42 4.5 1e3 2E-2") == [
            (TokenType.INTEGER, "42"),
            (TokenType.FLOAT, "4.5"),
            (TokenType.FLOAT, "1e3"),
            (TokenType.FLOAT, "2E-2"),
        ]

    def test_leading_dot_float(self):
        assert _texts(".5") == [(TokenType.FLOAT, ".5")]

    def test_number_then_word_boundary(self):
        tokens = _texts("1e")  # not scientific: falls back to INTEGER + id
        assert tokens[0] == (TokenType.INTEGER, "1")
        assert tokens[1] == (TokenType.IDENTIFIER, "e")


class TestQuotedIdentifiers:
    @pytest.mark.parametrize(
        "sql", ['"Academic Year"', "`Academic Year`", "[Academic Year]"]
    )
    def test_quoting_styles(self, sql):
        assert _texts(sql) == [(TokenType.IDENTIFIER, "Academic Year")]

    def test_doubled_quote_escape(self):
        assert _texts('"a""b"') == [(TokenType.IDENTIFIER, 'a"b')]

    def test_unterminated_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"oops')


class TestOperatorsAndComments:
    def test_multichar_operators(self):
        assert [text for _, text in _texts("<= >= <> != || ==")] == [
            "<=",
            ">=",
            "<>",
            "!=",
            "||",
            "==",
        ]

    def test_line_comment_skipped(self):
        assert _texts("SELECT -- hidden\n1") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.INTEGER, "1"),
        ]

    def test_block_comment_skipped(self):
        assert _texts("SELECT /* x\ny */ 1")[-1] == (
            TokenType.INTEGER,
            "1",
        )

    def test_unterminated_block_comment(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("/* forever")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("SELECT @")
        assert excinfo.value.position == 7


#: Statements that between them hold every token kind, each quoting
#: style, escapes, comments and non-ASCII text before a token.
POSITION_CORPUS = [
    "SELECT 'xy', \"a b\" FROM t",
    'SELECT "Id", "nope" FROM a',
    "select `Academic Year`, [x y], \"a\"\"b\" from t where s = 'it''s'",
    "SELECT a+1.5, .5, 1e3, 2E-2, 7 FROM t WHERE a<>2 AND b>=3 OR c||'é'='x'",
    "SELECT COUNT(*) FROM t -- note\nWHERE n != 4 /* block */ LIMIT 2;",
    "SELECT 'ünï' , \"çol\" FROM t WHERE x == 1 % 2",
    "INSERT INTO t VALUES ('a', 1), ('', 2.0)",
]


def test_position_is_the_first_source_character():
    """A literal's or quoted identifier's position is its opening quote,
    as every other token's is its first character."""
    kinds = set()
    for sql in POSITION_CORPUS:
        tokens = tokenize(sql)
        assert tokens[-1].position == len(sql)
        for token in tokens[:-1]:
            kinds.add(token.type)
            first = sql[token.position]
            if token.type is TokenType.STRING:
                assert first == "'", (sql, token)
            elif token.type is TokenType.IDENTIFIER and first in '"`[':
                assert sql.startswith(first, token.position)
            else:
                assert first.upper() == token.text[0].upper(), (sql, token)
            again = tokenize(sql[token.position :])[0]
            assert (again.type, again.text, again.position) == (
                token.type,
                token.text,
                0,
            ), (sql, token)
    assert kinds == set(TokenType) - {TokenType.EOF}


@pytest.mark.parametrize(
    "sql, position",
    [("SELECT ² FROM t", 7), ("SELECT a FROM t LIMIT ²", 22),
     ("SELECT 1² FROM t", 8), ("SELECT ½ FROM t", 7)],
)
def test_non_decimal_digit_is_an_unexpected_character(sql, position):
    """``str.isdigit`` accepts ``²``, which ``int()`` refuses: it was a
    bare ``ValueError``."""
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize(sql)
    assert excinfo.value.position == position
    assert str(excinfo.value).startswith(
        f"unexpected character {sql[position]!r}"
    )


def test_decimal_digits_of_any_script_are_numbers():
    assert _texts("٣ 𝟙.5") == [
        (TokenType.INTEGER, "٣"),
        (TokenType.FLOAT, "𝟙.5"),
    ]


#: Unicode digits (decimal and not), other numerics, letters whose case
#: mappings change length, and spaces.
INSERTED = "0٣𝟙²³¹①½Ⅻ௰éßſİı_a \u00a0\u2003\u3000\t'\""

FUZZED = [
    "SELECT a, b FROM t WHERE a > 1 ORDER BY a LIMIT 2",
    "SELECT COUNT(*) FROM t WHERE b = 'x' GROUP BY b",
    "SELECT a + 2.5 AS s FROM t WHERE b IN ('x', 'y') OFFSET 1",
]


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    return db


@given(st.sampled_from(FUZZED), st.sampled_from(INSERTED), st.data())
@settings(max_examples=300, deadline=None)
def test_inserted_character_gives_rows_or_a_repro_error(
    small_db, sql, char, data
):
    at = data.draw(st.integers(0, len(sql)))
    try:
        small_db.execute(sql[:at] + char + sql[at:], analyze=True)
    except ReproError:
        pass
