"""Expressions against stdlib ``sqlite3`` around the morsel size.

The engine's other oracles are its own slower paths, so a rule both
paths share (a NULL rule, a NaN rule, a type family) cannot show there.
Here every shape runs on a table of 0, 1, M-1, M, M+1 and 3M+7 rows
(M the morsel size) with NULL-heavy INTEGER, REAL and TEXT columns, in
the engine and in ``sqlite3``, and the WHERE results and SELECT-list
values must agree, booleans read as 0/1.  A statement ``sqlite3``
refuses, the engine refuses too, at any size.

Deliberate divergences are left out, each with its reason:

* integer ``/``: the engine answers the exact quotient (``10 / 4`` is
  2.5, ``8 / 4`` is 2), SQLite truncates (2); ``/`` appears here only
  with a REAL operand or a zero divisor, where the two agree;
* ``||`` of a REAL: the engine writes ``str(float)``, SQLite rounds to
  15 significant digits (``0.1 * 3`` reads ``0.30000000000000004``
  against ``0.3``), so ``||`` takes INTEGER and TEXT operands only;
* comparing a TEXT column with a numeric-looking literal, or a number
  column with a TEXT literal: SQLite applies column affinity first
  (``'5'`` becomes 5), the engine orders by type family; no literal
  here is of the other column's family;
* NaN: SQLite stores it as NULL, so no value here is NaN;
* LIKE over non-ASCII text: SQLite folds case for ASCII only, the
  engine for all of Unicode; every text here is ASCII;
* group order and join order: SQLite is free to emit groups and join
  rows in any order, so those results are compared as sorted lists.
"""

from __future__ import annotations

import math
import random
import sqlite3
from contextlib import closing
from functools import lru_cache

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.errors import PlanningError, ReproError

M = getattr(physical, "MORSEL_SIZE", 2048)
SIZES = [0, 1, M - 1, M, M + 1, 3 * M + 7]

INTEGERS = [None, None, None, -5, -3, -1, 0, 1, 2, 3, 5, 2**40]
REALS = [None, None, None, -0.0, 0.0, 0.1, 1.5, -2.25, 3.0, 1e10, -1.0]
TEXTS = [None, None, None, "", "abc", "Abc", "ab", "abcd", "b%c", "x_y",
         "zeta", "note 1", "abc\n"]

COLUMNS = [
    ("id", DataType.INTEGER, "INTEGER"),
    ("i", DataType.INTEGER, "INTEGER"),
    ("r", DataType.REAL, "REAL"),
    ("t", DataType.TEXT, "TEXT"),
]


def generate(size: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (n, rng.choice(INTEGERS), rng.choice(REALS), rng.choice(TEXTS))
        for n in range(size)
    ]


@lru_cache(maxsize=None)
def databases(size: int) -> tuple[Database, sqlite3.Connection]:
    """``x`` of ``size`` rows and ``y`` of 40, in both engines."""
    tables = {"x": generate(size, size), "y": generate(40, size + 1)}
    db = Database()
    reference = sqlite3.connect(":memory:")
    for name, rows in tables.items():
        db.create_table(
            TableSchema(name, [Column(c, dtype) for c, dtype, _ in COLUMNS])
        )
        db.insert(name, rows)
        columns = ", ".join(f"{c} {sql}" for c, _, sql in COLUMNS)
        reference.execute(f"CREATE TABLE {name} ({columns})")
        reference.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
    return db, reference


def normal(value: object) -> object:
    """A value as ``sqlite3`` hands it back: booleans as 0/1."""
    if isinstance(value, bool):
        return int(value)
    return value


def same_value(got: object, want: object) -> bool:
    got = normal(got)
    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-12)
    return isinstance(got, str) == isinstance(want, str) and got == want


def same_rows(got: list[tuple], want: list[tuple]) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(same_value, g, w))
        for g, w in zip(got, want)
    )


def both(size: int, sql: str, ordered: bool = True):
    db, reference = databases(size)
    got = [tuple(map(normal, row)) for row in db.execute(sql).rows]
    with closing(reference.cursor()) as cursor:
        want = cursor.execute(sql).fetchall()
    if not ordered:
        got, want = sorted(got, key=repr), sorted(want, key=repr)
    return got, want


PREDICATES = [
    # comparisons, negative literals and literals on the left
    "i > 2",
    "i <= -3",
    "i = 0",
    "i <> 1",
    "i >= -1",
    "3 < i",
    "-1 > i",
    "i = 1099511627776",
    "r < 0",
    "r >= -2.25",
    "r = 0",
    "r = -0.0",
    "r <> -1.0",
    "r > 1e9",
    "-2 < r",
    "t = 'abc'",
    "t < 'b'",
    "t >= 'Abc'",
    "t <> ''",
    "'m' > t",
    "i = r",
    "i < r",
    # BETWEEN, IN lists, IN (SELECT ...) and LIKE
    "i BETWEEN -2 AND 3",
    "i NOT BETWEEN -2 AND 3",
    "r BETWEEN -1 AND 1.5",
    "r NOT BETWEEN -0.0 AND 0.1",
    "t BETWEEN 'a' AND 'b'",
    "i BETWEEN r AND 3",
    "i IN (1, 2, -3)",
    "i NOT IN (0, 5)",
    "i IN (1, NULL)",
    "i NOT IN (1, NULL)",
    "r IN (0, 1.5)",
    "r NOT IN (-0.0, 3)",
    "t IN ('abc', 'zeta')",
    "t NOT IN ('', 'ab')",
    "i IN (SELECT i FROM y)",
    "i NOT IN (SELECT i FROM y)",
    "i NOT IN (SELECT i FROM y WHERE i IS NOT NULL)",
    "t IN (SELECT t FROM y WHERE i > 0)",
    "r IN (SELECT r FROM y)",
    "t LIKE 'ab%'",
    "t LIKE '_b_'",
    "t NOT LIKE '%c'",
    "t LIKE 'ABC'",
    "t LIKE '%\\_%'",
    "t LIKE 'b%'",
    "t LIKE 'abc'",
    "t LIKE 'abc_'",
    "t || 'z' LIKE 'abc%z'",
    # OR, NOT, CASE, IS NULL and COALESCE
    "i > 0 OR t = 'abc'",
    "i > 0 OR r < 0 OR t IS NULL",
    "NOT (i > 0)",
    "NOT (r < 1) OR t IS NULL",
    "NOT (i IN (1, 2)) AND NOT (t LIKE 'a%')",
    "i IS NULL",
    "t IS NOT NULL AND r IS NULL",
    "CASE WHEN i > 0 THEN r > 0 ELSE t = 'abc' END",
    "COALESCE(i, r, -1) < 0",
    "COALESCE(t, 'none') = 'none'",
    # arithmetic and ||
    "i + 1 > 2",
    "i - r < 0",
    "i * 2 = -6",
    "r * -1.5 > 1",
    "-i > 2",
    "i + r >= 0 AND t IS NOT NULL",
    "t || 'x' = 'abcx'",
    "i || t LIKE '1%'",
    "r / 2.0 > 0.5",
    "i / 0 IS NULL",
    "i % 2 = 1",
    "i % -3 < 0",
    "r % 2 < 0",
    "CAST(r AS INTEGER) = 0",
    "CAST(r AS INTEGER) < -1",
    # AND chains, with NULLs between
    "i > 0 AND r > 0",
    "r > 0 AND i > 0 AND t < 'n'",
    "t LIKE 'a%' AND i <> 2 AND r IS NOT NULL",
    "i BETWEEN -5 AND 5 AND i IN (1, 2, 3, NULL) AND t <> 'zeta'",
]

EXPRESSIONS = [
    "i > 2",
    "r = 0",
    "t < 'b'",
    "i = r",
    "i BETWEEN -2 AND 3",
    "r NOT BETWEEN -1 AND 1.5",
    "i IN (1, NULL)",
    "i NOT IN (0, 5)",
    "t IN ('abc', 'zeta')",
    "i IN (SELECT i FROM y)",
    "t LIKE 'ab%'",
    "t NOT LIKE '_b_'",
    "i > 0 OR t = 'abc'",
    "i > 0 AND r > 0",
    "NOT (i > 0)",
    "i IS NULL",
    "t IS NOT NULL",
    "CASE WHEN i > 0 THEN 'p' WHEN i < 0 THEN 'n' ELSE 'z' END",
    "CASE i WHEN 1 THEN 'one' WHEN 2 THEN 'two' END",
    "CASE WHEN t IS NULL THEN r END",
    "COALESCE(i, r, -1)",
    "COALESCE(t, 'none')",
    "i + 1",
    "i - r",
    "i * 2",
    "r * -1.5",
    "-i",
    "-r",
    "r / 2.0",
    "i / 0",
    "t || 'x'",
    "i || t",
    "t || t",
    "i % 3",
    "i % -3",
    "-i % 4",
    "r % 2",
    "r % 2.5",
    "i % r",
    "i % 0",
    "CAST(r AS INTEGER)",
    "CAST(r AS REAL)",
    "CAST(i AS REAL)",
    "CAST(t AS REAL)",
    "CAST(t AS INTEGER)",
    "t LIKE 'abc'",
]


@pytest.mark.parametrize("size", SIZES)
def test_where_matches_sqlite(size):
    for predicate in PREDICATES:
        sql = f"SELECT id FROM x WHERE {predicate}"
        got, want = both(size, sql)
        assert got == want, sql


@pytest.mark.parametrize("size", SIZES)
def test_select_values_match_sqlite(size):
    for expression in EXPRESSIONS:
        sql = f"SELECT id, {expression} FROM x"
        got, want = both(size, sql)
        assert same_rows(got, want), sql


GROUPS = [
    "SELECT t, COUNT(*), SUM(i), MAX(i) FROM x GROUP BY t "
    "HAVING COUNT(*) > 1",
    "SELECT i, COUNT(r), MIN(t) FROM x GROUP BY i "
    "HAVING COUNT(r) > 2 OR i IS NULL",
    "SELECT t, SUM(i) FROM x GROUP BY t HAVING SUM(i) > 0 AND t LIKE '%b%'",
    "SELECT i, COUNT(*) FROM x GROUP BY i HAVING NOT (i > 0)",
    "SELECT COUNT(*), SUM(i), MIN(r), MAX(t) FROM x "
    "HAVING COUNT(*) >= 0",
]


@pytest.mark.parametrize("size", SIZES)
def test_group_by_having_matches_sqlite(size):
    for sql in GROUPS:
        got, want = both(size, sql, ordered=False)
        assert same_rows(got, want), sql


JOINS = [
    "SELECT a.id, b.id FROM x a LEFT JOIN y b ON a.i = b.i AND b.r > 0",
    "SELECT a.id, b.id FROM x a LEFT JOIN y b "
    "ON a.t = b.t AND (a.i > b.i OR b.i IS NULL)",
    "SELECT a.id, b.id, b.r FROM x a JOIN y b ON a.i = b.i AND a.r < b.r",
    "SELECT a.id, b.id FROM x a LEFT JOIN y b ON a.r = b.r AND a.t <> b.t",
]


@pytest.mark.parametrize("size", SIZES)
def test_left_join_with_a_residual_matches_sqlite(size):
    for sql in JOINS:
        got, want = both(size, sql, ordered=False)
        assert same_rows(got, want), sql


#: Aggregates ``sqlite3`` refuses to call with ``*`` ("wrong number of
#: arguments"): only COUNT takes it.
STAR_REFUSED = ["SUM", "TOTAL", "AVG", "MIN", "MAX", "GROUP_CONCAT"]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", STAR_REFUSED)
def test_aggregate_star_is_refused_by_both(size, name):
    db, reference = databases(size)
    sql = f"SELECT {name}(*) FROM x"
    span = (7, 7 + len(name))
    with pytest.raises(PlanningError) as caught:
        db.execute(sql)
    assert caught.value.span == span
    assert [
        (d.code, (d.span.start, d.span.end)) for d in db.analyze(sql).errors
    ] == [("ANA007", span)]
    with pytest.raises(sqlite3.OperationalError, match="wrong number"):
        reference.execute(sql)


def _boom(value):
    raise ValueError(f"no value for {value!r}")


#: Multi-row INSERTs whose second row fails: a function that raises, a
#: NULL in a NOT NULL column, a key the statement's first row took.
HALF_WRITES = [
    "INSERT INTO k VALUES (7, 'x'), (BOOM(8), 'y')",
    "INSERT INTO k VALUES (7, 'x'), (8, NULL)",
    "INSERT INTO k (s, id) VALUES ('x', 7), ('y', 7)",
]


@pytest.mark.parametrize("sql", HALF_WRITES)
def test_a_failing_insert_writes_no_row_in_either_engine(sql):
    create = "CREATE TABLE k (id INTEGER PRIMARY KEY, s TEXT NOT NULL)"
    db = Database()
    db.execute(create)
    db.execute("INSERT INTO k VALUES (1, 'a'), (2, 'b')")
    db.create_index("k", "s")
    db.register_udf("BOOM", _boom)
    table = db.table("k")
    version = table.version
    with closing(sqlite3.connect(":memory:")) as reference:
        reference.execute(create)
        reference.execute("INSERT INTO k VALUES (1, 'a'), (2, 'b')")
        reference.create_function("BOOM", 1, _boom)
        with pytest.raises(sqlite3.Error):
            reference.execute(sql)
        want = reference.execute("SELECT * FROM k ORDER BY id").fetchall()
    with pytest.raises(ReproError):
        db.execute(sql)
    assert table.rows == want == [(1, "a"), (2, "b")]
    assert table.version == version
    assert [table.lookup_ids("s", s) for s in "abxy"] == [[0], [1], [], []]
    assert table.range_keys("s", None, None) == ["a", "b"]
    # The key the failed statement would have taken is still free.
    db.execute("INSERT INTO k VALUES (7, 'z')")
    assert table.lookup_ids("s", "z") == [2]
