"""SQL tokenizer.

Produces a flat token stream.  Supports:

- bare and quoted identifiers (``"Academic Year"``, `` `col` ``, ``[col]``),
- single-quoted string literals with ``''`` escaping,
- integer and float literals (including scientific notation),
- multi-character operators (``<=``, ``>=``, ``<>``, ``!=``, ``||``),
- line comments (``-- ...``) and block comments (``/* ... */``).

Keywords are recognised case-insensitively; the lexer tags them as
``KEYWORD`` tokens carrying the upper-cased text.  A token's
``position`` is the offset of its first source character (a literal's
or quoted identifier's opening quote), and its ``end`` one past its
last (the closing quote).  Digits are the decimal ones
``int()`` and ``float()`` read, so ``²`` is an unexpected character.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import SQLSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    STRING = "STRING"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON JOIN INNER
    LEFT RIGHT OUTER CROSS AND OR NOT IN IS NULL LIKE BETWEEN EXISTS CASE
    WHEN THEN ELSE END CAST DISTINCT ASC DESC UNION ALL ANY INSERT INTO
    VALUES CREATE TABLE PRIMARY KEY FOREIGN REFERENCES TRUE FALSE
    UPDATE SET DELETE
    """.split()
)

_MULTI_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "||", "==")
_SINGLE_CHAR_OPERATORS = set("+-*/%<>=")
_PUNCTUATION = set("(),.;")


class Token(NamedTuple):
    """One token and its source extent (a tuple: a statement makes
    dozens, and a tuple is the cheapest record to build)."""

    type: TokenType
    text: str
    position: int
    end: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in keywords


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    position = 0
    length = len(sql)
    while position < length:
        char = sql[position]
        if char.isspace():
            position += 1
            continue
        if sql.startswith("--", position):
            newline = sql.find("\n", position)
            position = length if newline == -1 else newline + 1
            continue
        if sql.startswith("/*", position):
            end = sql.find("*/", position + 2)
            if end == -1:
                raise SQLSyntaxError("unterminated block comment", position)
            position = end + 2
            continue
        if char == "'":
            token, position = _read_string(sql, position)
            tokens.append(token)
            continue
        if char in ('"', "`", "["):
            token, position = _read_quoted_identifier(sql, position)
            tokens.append(token)
            continue
        if char.isdecimal() or (
            char == "."
            and position + 1 < length
            and sql[position + 1].isdecimal()
        ):
            token, position = _read_number(sql, position)
            tokens.append(token)
            continue
        if char.isalpha() or char == "_":
            token, position = _read_word(sql, position)
            tokens.append(token)
            continue
        start = position
        multi = sql[position : position + 2]
        if multi in _MULTI_CHAR_OPERATORS:
            position += 2
            tokens.append(Token(TokenType.OPERATOR, multi, start, position))
            continue
        position += 1
        if char in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, char, start, position))
            continue
        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, char, start, position))
            continue
        raise SQLSyntaxError(f"unexpected character {char!r}", start)
    tokens.append(Token(TokenType.EOF, "", length, length))
    return tokens


def _read_string(sql: str, start: int) -> tuple[Token, int]:
    position = start + 1
    pieces: list[str] = []
    while position < len(sql):
        char = sql[position]
        if char == "'":
            if sql.startswith("''", position):
                pieces.append("'")
                position += 2
                continue
            position += 1
            token = Token(TokenType.STRING, "".join(pieces), start, position)
            return token, position
        pieces.append(char)
        position += 1
    raise SQLSyntaxError("unterminated string literal", start)


_CLOSER = {'"': '"', "`": "`", "[": "]"}


def _read_quoted_identifier(sql: str, start: int) -> tuple[Token, int]:
    opener = sql[start]
    closer = _CLOSER[opener]
    position = start + 1
    pieces: list[str] = []
    while position < len(sql):
        char = sql[position]
        if char == closer:
            doubled = closer + closer
            if opener == closer and sql.startswith(doubled, position):
                pieces.append(closer)
                position += 2
                continue
            position += 1
            text = "".join(pieces)
            return Token(TokenType.IDENTIFIER, text, start, position), position
        pieces.append(char)
        position += 1
    raise SQLSyntaxError("unterminated quoted identifier", start)


def _read_number(sql: str, start: int) -> tuple[Token, int]:
    position = start
    is_float = False
    while position < len(sql) and sql[position].isdecimal():
        position += 1
    if position < len(sql) and sql[position] == ".":
        is_float = True
        position += 1
        while position < len(sql) and sql[position].isdecimal():
            position += 1
    if position < len(sql) and sql[position] in ("e", "E"):
        scan = position + 1
        if scan < len(sql) and sql[scan] in ("+", "-"):
            scan += 1
        if scan < len(sql) and sql[scan].isdecimal():
            is_float = True
            position = scan
            while position < len(sql) and sql[position].isdecimal():
                position += 1
    text = sql[start:position]
    token_type = TokenType.FLOAT if is_float else TokenType.INTEGER
    return Token(token_type, text, start, position), position


def _read_word(sql: str, start: int) -> tuple[Token, int]:
    position = start
    while position < len(sql) and (
        sql[position].isalnum() or sql[position] == "_"
    ):
        position += 1
    text = sql[start:position]
    upper = text.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start, position), position
    return Token(TokenType.IDENTIFIER, text, start, position), position
