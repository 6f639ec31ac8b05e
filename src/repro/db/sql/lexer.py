"""SQL tokenizer.

Produces a flat token stream.  Supports:

- bare and quoted identifiers (``"Academic Year"``, `` `col` ``, ``[col]``),
- single-quoted string literals with ``''`` escaping,
- integer and float literals (including scientific notation),
- multi-character operators (``<=``, ``>=``, ``<>``, ``!=``, ``||``),
- line comments (``-- ...``) and block comments (``/* ... */``).

One compiled master pattern reads the text left to right: an
alternative per kind of lexeme, in a fixed order, and the group that
matched names the kind, so the loop in :func:`tokenize` runs once per
token instead of once per character.

Keywords are recognised case-insensitively; the lexer tags them as
``KEYWORD`` tokens carrying the upper-cased text.  A token's
``position`` is the offset of its first source character (a literal's
or quoted identifier's opening quote), and its ``end`` one past its
last (the closing quote).  Digits are the decimal ones ``int()`` and
``float()`` read: ``\\d`` is exactly ``str.isdecimal``.  A word starts
with a letter or ``_`` (``str.isalpha``).  ``\\w`` also accepts a digit
that is not decimal, so ``²`` or ``½`` is an unexpected character where
a word would start and part of the word after its first letter
(``x²``).
"""

from __future__ import annotations

import enum
import re
from functools import partial
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


class Token(NamedTuple):
    """One token and its source extent (a tuple: a statement makes
    dozens, and a tuple is the cheapest record to build)."""

    type: TokenType
    text: str
    position: int
    end: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in keywords


#: Layout, then one alternative per kind of lexeme, tried in this
#: order; the group that matched says which, and a match with none is
#: the layout at the end of the text.  ``\s``, ``\d`` and ``\w`` are
#: exactly ``str.isspace``, ``str.isdecimal`` and ``str.isalnum`` (or
#: ``_``).  Quoted runs are possessive, so a run that finds no closing
#: quote never gives back a doubled quote to close at: it fails as a
#: whole, and the bare quote is the error.  A named group is an error,
#: its name the message, as is group 12.
_LEXEME = re.compile(
    r"""
    (?:\s+|--[^\n]*\n?|/\*.*?\*/)*
    (?:((?!\d)\w+)                                        # 1 word
    |([(),;]|\.(?!\d))                                    # 2 punct
    |(?P<unterminated_block_comment>/\*)                  # 3
    |(<=|>=|<>|!=|\|\||==|[-+*/%<>=])                      # 4 operator
    |((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)           # 5 number
    |'((?:[^']|'')*+)'                                    # 6 string
    |"((?:[^"]|"")*+)"|`((?:[^`]|``)*+)`|\[([^\]]*)\]       # 7-9 name
    |(?P<unterminated_string_literal>')                   # 10
    |(?P<unterminated_quoted_identifier>["`[])            # 11
    |(.)                                                  # 12
    |\Z)
    """,
    re.DOTALL | re.VERBOSE,
)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    # Built as a tuple of four, which skips the class's Python __new__.
    token = partial(tuple.__new__, Token)
    keyword, identifier = TokenType.KEYWORD, TokenType.IDENTIFIER
    for match in _LEXEME.finditer(sql):
        kind = match.lastindex
        if kind is None:
            break
        start, end = match.span(kind)
        text = sql[start:end]
        if kind == 1:
            upper = text.upper()
            if upper in KEYWORDS:
                append(token((keyword, upper, start, end)))
                continue
            first = text[0]
            if not (first.isalpha() or first == "_"):
                # A digit or number that is not decimal: "²", "½".
                raise SQLSyntaxError(f"unexpected character {first!r}", start)
            append(token((identifier, text, start, end)))
        elif kind == 2:
            append(token((TokenType.PUNCT, text, start, end)))
        elif kind == 4:
            append(token((TokenType.OPERATOR, text, start, end)))
        elif kind == 5:
            number = TokenType.INTEGER if text.isdecimal() else TokenType.FLOAT
            append(token((number, text, start, end)))
        elif 5 < kind < 10:  # quoted: the group lies inside the quotes
            closer = sql[end]
            if kind < 9:
                text = text.replace(closer + closer, closer)
            string = TokenType.STRING if kind == 6 else identifier
            append(token((string, text, start - 1, end + 1)))
        elif match.lastgroup:
            raise SQLSyntaxError(match.lastgroup.replace("_", " "), start)
        else:
            raise SQLSyntaxError(f"unexpected character {text!r}", start)
    length = len(sql)
    append(Token(TokenType.EOF, "", length, length))
    return tokens
