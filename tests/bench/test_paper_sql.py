"""The paper's own SQL against stdlib ``sqlite3``.

Every ``Database.execute`` call the five methods make over the 80
TAG-Bench queries is recorded, at seeds 0, 1, 2 and 7.  Each SELECT
then runs in ``sqlite3`` over the same rows, and through the engine
twice more with the same arguments: the second run keeps its plan (or
takes the one its key keeps) and the third runs it.  All three engine
answers must be the first one's, and the first must be ``sqlite3``'s.

Rows of a statement without ORDER BY are compared as multisets.  With
ORDER BY, SQLite is free to emit rows tied on every sort key in any
order, and it does (a ``debit_card_specializing`` join ordered by
``transactions_1k.Amount DESC`` at seed 0), so rows are compared in
order as runs of ties: ``sqlite3`` is asked for the sort keys too, and
each run of equal keys must hold the same rows, as a multiset, in both.
Under a LIMIT that cuts a run of ties (seeds 1 and 7 have one), the
rows kept from that run may be any of its rows.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from itertools import groupby

import pytest

from repro.bench.runner import run_benchmark
from repro.db import Database
from repro.db.sql.lexer import TokenType, tokenize
from repro.db.types import DataType

SEEDS = (0, 1, 2, 7)

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.REAL: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.ANY: "",
}


def recorded(seed: int, monkeypatch) -> list[tuple]:
    """``(database, sql, keyword arguments, rows)`` of every execute
    call the benchmark makes at ``seed``."""
    calls: list[tuple] = []
    real = Database.execute

    def recording(self, sql, **options):
        result = real(self, sql, **options)
        calls.append((self, sql, options, result.rows))
        return result

    with monkeypatch.context() as patched:
        patched.setattr(Database, "execute", recording)
        run_benchmark(seed=seed)
    return calls


def mirror(db: Database) -> sqlite3.Connection:
    """A ``sqlite3`` database holding ``db``'s tables and rows."""
    connection = sqlite3.connect(":memory:")
    for name in db.table_names:
        table = db.table(name)
        columns = table.schema.columns
        spelled = ", ".join(
            f'"{column.name}" {_SQLITE_TYPES[column.dtype]}'
            for column in columns
        )
        connection.execute(f'CREATE TABLE "{name}" ({spelled})')
        holes = ", ".join("?" for _ in columns)
        connection.executemany(
            f'INSERT INTO "{name}" VALUES ({holes})', list(table.rows)
        )
    return connection


def sort_keys(sql: str) -> tuple[list[str], int] | None:
    """The source text of each top-level ORDER BY term, without its
    direction, and where the statement's LIMIT starts (its length when
    it has none); None without ORDER BY."""
    tokens = tokenize(sql)
    depth, start = 0, None
    for index, token in enumerate(tokens):
        if token.type is TokenType.PUNCT and token.text in "()":
            depth += 1 if token.text == "(" else -1
        elif depth == 0 and token.matches_keyword("ORDER"):
            start = index + 2  # past ORDER BY
    if start is None:
        return None
    terms: list[list] = [[]]
    for token in tokens[start:]:
        if token.type is TokenType.PUNCT and token.text in "()":
            depth += 1 if token.text == "(" else -1
        if depth == 0 and (
            token.matches_keyword("LIMIT") or token.type is TokenType.EOF
        ):
            end = token.position
            break
        if depth == 0 and token.type is TokenType.PUNCT and token.text == ",":
            terms.append([])
        elif not (depth == 0 and token.matches_keyword("ASC", "DESC")):
            terms[-1].append(token)
    assert "OFFSET" not in sql[end:].upper(), sql
    return [sql[term[0].position : term[-1].end] for term in terms], end


def same_rows(got: list, connection: sqlite3.Connection, sql: str) -> bool:
    """Whether ``got`` is ``sqlite3``'s answer to ``sql``, rows tied on
    every ORDER BY key in any order.  Under a LIMIT, the rows kept from
    the run of ties the limit cuts may be any of that run's."""
    want = connection.execute(sql).fetchall()
    order = sort_keys(sql)
    if order is None:
        return Counter(got) == Counter(want)
    keys, end = order
    head = "SELECT "
    assert sql.startswith(head) and not sql.startswith(head + "DISTINCT")
    keyed = connection.execute(
        head + ", ".join(keys) + ", " + sql[len(head) : end]
    ).fetchall()
    position = 0
    for _, run in groupby(keyed, key=lambda row: row[: len(keys)]):
        if position == len(got):
            break
        tied = Counter(row[len(keys) :] for row in run)
        taken = got[position : position + sum(tied.values())]
        if Counter(taken) - tied:
            return False
        position += len(taken)
    return position == len(got) == len(want)


def test_ties_are_compared_as_multisets():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    connection.executemany(
        "INSERT INTO t VALUES (?, ?)", [(1, "a"), (2, "b"), (1, "c")]
    )
    sql = "SELECT v FROM t ORDER BY k DESC"
    assert same_rows([("b",), ("c",), ("a",)], connection, sql)
    assert same_rows([("b",), ("a",), ("c",)], connection, sql)
    assert not same_rows([("a",), ("b",), ("c",)], connection, sql)
    assert not same_rows([("b",), ("a",)], connection, sql)
    limited = "SELECT v FROM t ORDER BY k LIMIT 1"
    assert same_rows([("a",)], connection, limited)
    assert same_rows([("c",)], connection, limited)
    assert not same_rows([("b",)], connection, limited)
    assert not same_rows([("a",), ("c",)], connection, limited)
    keys = sort_keys("SELECT x FROM t ORDER BY LENGTH(a, b) DESC, c LIMIT 2")
    assert keys == (["LENGTH(a, b)", "c"], 46)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_select_answers_as_sqlite(seed, monkeypatch):
    calls = recorded(seed, monkeypatch)
    assert calls
    mirrors: dict[int, sqlite3.Connection] = {}
    for db, sql, options, rows in calls:
        assert sql.lstrip().upper().startswith("SELECT"), sql
        connection = mirrors.get(id(db))
        if connection is None:
            connection = mirrors[id(db)] = mirror(db)
        assert same_rows(rows, connection, sql), sql
        for _ in range(2):
            assert db.execute(sql, **options).rows == rows, sql
