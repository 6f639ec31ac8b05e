"""Pin of the token streams of a fixed corpus of SQL texts.

The corpus is every statement ``benchmarks/perf/gen.py`` generates at
seed 0 (the ``sql_analytic`` statements, the ``sql_short`` hot set and
blocks 0-429, the ``udf_scan`` statements) and every string constant in
``tests/db/test_sqlite_differential.py`` and
``tests/db/test_statement_templates.py``, and a few texts at the edges
of the grammar (numbers, quotes, comments, non-ASCII letters and
digits).  Each text contributes its tokens' ``(type, text, position,
end)``, or, when the lexer refuses it, the error's message and
position.  A lexer rewrite must leave the
digest as it is.
"""

from __future__ import annotations

import ast as python_ast
import hashlib
from pathlib import Path

from benchmarks.perf import gen
from repro.db.sql.lexer import tokenize
from repro.errors import SQLSyntaxError

ROOT = Path(__file__).resolve().parents[2]

#: sha-256 of the corpus's token streams, in corpus order.
DIGEST = "d7d7d4364a0a3fa0f99e843ff1852ad60edbd679bbdd8a6fa06a8bc68d2c5110"

#: Blocks of the sql_short stream in the corpus.
BLOCKS = 430

#: Texts at the edges of the grammar.
EDGES = [
    "SELECT 1e5, 1E+5, 2e-3, 1e, 1e+, 3.e2, .5e1, 7., .5.5 FROM t",
    "SELECT a.b.c, t.1, x1.y2, _a, a_, été, x² FROM t",
    "SELECT ² FROM t",
    "SELECT ½ FROM t",
    "SELECT ١٢ + ３, x٣ FROM t",
    'SELECT "a""b", `c``d`, [e]]f] FROM "t"',
    "SELECT 'it''s', '', '''' FROM t -- trailing",
    "SELECT /* a */ 1 /**/ FROM t /* x */",
    "SELECT a<=b, a>=b, a<>b, a!=b, a||b, a==b, a<b, a>b, a=b FROM t",
    "SELECT 1 FROM t WHERE a = 'open",
    'SELECT "open FROM t',
    "SELECT [open FROM t",
    "SELECT 1 /* open",
    "SELECT 1 ! 2",
    "SELECT @x FROM t",
    "\t\n\r\x0b\x0c  SELECT　x FROM t\n",
    "select Select sElEcT from FROM",
    "SELECT 0x1F, 1_000, 00012, 1.5e10e2 FROM t",
    "SELECT İd, ſ, K FROM t",
    "",
    "   ",
    "-- only a comment",
]


def constants(path: Path) -> list[str]:
    """Every string constant in a Python source file, in source order."""
    tree = python_ast.parse(path.read_text(encoding="utf-8"))
    found = [
        node
        for node in python_ast.walk(tree)
        if isinstance(node, python_ast.Constant)
        and isinstance(node.value, str)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [node.value for node in found]


def corpus() -> list[str]:
    hot = gen.short_hot_set(0)
    texts = [statement.sql for statement in gen.analytic_statements(0)]
    texts += [statement.sql for kind in hot.values() for statement in kind]
    for block in range(BLOCKS):
        texts += [s.sql for s in gen.short_block(0, block, hot)]
    texts += [statement.sql for statement in gen.udf_statements()]
    texts += EDGES
    for name in ("test_sqlite_differential.py", "test_statement_templates.py"):
        texts += constants(ROOT / "tests" / "db" / name)
    return texts


def stream(text: str) -> tuple:
    try:
        return tuple(
            (token.type.name, token.text, token.position, token.end)
            for token in tokenize(text)
        )
    except SQLSyntaxError as error:
        return ("error", str(error), error.position)


def test_the_corpus_is_large():
    texts = corpus()
    assert len(texts) > 13_000
    assert sum(stream(text)[0] == "error" for text in texts) > 10


def test_token_streams_are_pinned():
    digest = hashlib.sha256()
    for text in corpus():
        digest.update(repr(stream(text)).encode("utf-8"))
    assert digest.hexdigest() == DIGEST
