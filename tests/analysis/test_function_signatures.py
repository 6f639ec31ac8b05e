"""Every builtin function's signature, pinned at the analyzer and the engine.

Each builtin scalar and aggregate is called, in a SELECT list over
``t(i INTEGER, s TEXT)``, with ``*`` and with zero to four arguments,
all INTEGER (``i``), all TEXT (``s``) or all NULL: too few, exactly
enough and too many for every arity the builtins have.  For each call
``function_signatures.json`` records

* the analyzer's diagnostics (code, message, span), in order;
* the engine's rows, or its error type and message, at
  ``optimize=True`` and at ``optimize=False``, over the three rows of
  ``t`` and over an empty ``t``.

So a change to where a signature is declared, or to which rule
decides that a call is an aggregate, must leave every verdict and
every outcome as it is.  To rewrite the file after a deliberate
change, run ``PYTHONPATH=src python -m tests.analysis.test_function_signatures``
and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import ReproError

PIN = Path(__file__).with_name("function_signatures.json")

SCALARS = (
    "ABS", "ROUND", "LENGTH", "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM",
    "REPLACE", "SUBSTR", "SUBSTRING", "INSTR", "COALESCE", "IFNULL",
    "NULLIF", "IIF", "SQRT", "FLOOR", "CEIL", "SIGN", "MIN", "MAX",
)
AGGREGATES = ("COUNT", "SUM", "TOTAL", "AVG", "MIN", "MAX", "GROUP_CONCAT")
#: One argument of each kind: an INTEGER column, a TEXT column, NULL.
ARGUMENTS = ("i", "s", "NULL")
ROWS = [(4, "ab"), (-2, " Cd "), (None, None)]


def _calls() -> list[str]:
    calls = []
    for name in dict.fromkeys(SCALARS + AGGREGATES):
        calls.append(f"{name}(*)")
        calls.append(f"{name}()")
        for argument in ARGUMENTS:
            for count in range(1, 5):
                calls.append(f"{name}({', '.join([argument] * count)})")
    return calls


CALLS = _calls()


def _database(rows: list = ROWS) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("i", DataType.INTEGER), Column("s", DataType.TEXT)],
        )
    )
    db.insert("t", rows)
    return db


def _outcome(db: Database, sql: str, optimize: bool) -> list:
    try:
        rows = db.execute(sql, optimize=optimize).rows
    except ReproError as error:
        return [type(error).__name__, str(error)]
    return ["rows", [list(row) for row in rows]]


def observe(db: Database, empty: Database, call: str) -> dict:
    sql = f"SELECT {call} FROM t"
    report = db.analyze(sql)
    return {
        "diagnostics": [
            [
                diagnostic.code,
                diagnostic.message,
                None
                if diagnostic.span is None
                else [diagnostic.span.start, diagnostic.span.end],
            ]
            for diagnostic in report.diagnostics
        ],
        "optimize": _outcome(db, sql, True),
        "plain": _outcome(db, sql, False),
        "empty_optimize": _outcome(empty, sql, True),
        "empty_plain": _outcome(empty, sql, False),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN.read_text())


@pytest.fixture(scope="module")
def db() -> Database:
    return _database()


@pytest.fixture(scope="module")
def empty() -> Database:
    return _database([])


def test_every_call_is_pinned(pinned):
    assert sorted(pinned) == sorted(CALLS)


@pytest.mark.parametrize("call", CALLS)
def test_call_is_pinned(db, empty, pinned, call):
    assert observe(db, empty, call) == pinned[call]


if __name__ == "__main__":  # pragma: no cover - rewrites the pin
    database, nothing = _database(), _database([])
    lines = [
        f"{json.dumps(call)}: {json.dumps(observe(database, nothing, call))}"
        for call in sorted(CALLS)
    ]
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
