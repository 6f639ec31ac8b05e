"""Independent oracle for plain SQL: the stdlib ``sqlite3`` on the same rows.

Almost every correctness check in the repo compares the engine with its
own slower path; the benchmark instead runs every non-UDF statement of
``sql_analytic`` and ``sql_short`` through SQLite (the paper's actual
substrate) and compares rows.
"""

from __future__ import annotations

import math
import sqlite3
from collections.abc import Iterable, Sequence

from benchmarks.perf.gen import Statement, TableData

#: Relative/absolute tolerance for REAL cells (SUM/AVG accumulate in a
#: different order in the two engines).
FLOAT_TOLERANCE = 1e-9


class SqliteMirror:
    """An in-memory SQLite database holding the generated tables."""

    def __init__(self, tables: Iterable[TableData]) -> None:
        self._connection = sqlite3.connect(":memory:")
        for table in tables:
            columns = ", ".join(
                f"{name} {sql_type}{' PRIMARY KEY' if key else ''}"
                for name, sql_type, key in table.columns
            )
            self._connection.execute(
                f"CREATE TABLE {table.name} ({columns})"
            )
            marks = ", ".join("?" for _ in table.columns)
            self._connection.executemany(
                f"INSERT INTO {table.name} VALUES ({marks})", table.rows
            )
        self._connection.commit()

    def run(self, statement: Statement) -> list[tuple]:
        """Rows of a SELECT, or ``[(rowcount,)]`` for a write (the
        shape ``Database.execute`` reports writes in)."""
        cursor = self._connection.execute(statement.sql)
        if cursor.description is None:
            return [(cursor.rowcount,)]
        return cursor.fetchall()

    def close(self) -> None:
        self._connection.close()


def _cell_key(value: object) -> tuple:
    """Sort key that groups numerically-close REALs together enough for
    a stable multiset comparison (ties are re-checked cell by cell)."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, round(float(value), 6))
    return (2, str(value))


def _cells_equal(left: object, right: object) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        return math.isclose(
            float(left),
            float(right),
            rel_tol=FLOAT_TOLERANCE,
            abs_tol=FLOAT_TOLERANCE,
        )
    return left == right


def rows_match(
    ours: Sequence[Sequence], theirs: Sequence[Sequence], ordered: bool
) -> bool:
    """Row equality: as lists when ``ordered``, else as multisets, with
    ``FLOAT_TOLERANCE`` on REAL cells."""
    if len(ours) != len(theirs):
        return False
    if not ordered:
        key = lambda row: tuple(_cell_key(cell) for cell in row)  # noqa: E731
        ours = sorted(ours, key=key)
        theirs = sorted(theirs, key=key)
    return all(
        len(mine) == len(other)
        and all(_cells_equal(a, b) for a, b in zip(mine, other))
        for mine, other in zip(ours, theirs)
    )
