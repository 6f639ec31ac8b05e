"""Query results: a row layout plus materialised rows."""

from __future__ import annotations

from collections.abc import Iterator

from repro.db.types import SQLValue
from repro.errors import PlanningError

Row = tuple[SQLValue, ...]


class RowLayout:
    """Maps (binding, column) pairs to tuple positions.

    Each entry is a ``(binding, name)`` pair: ``binding`` is the table
    alias (or table name) a column came from, or ``None`` for computed
    columns.  Which column a reference names is
    :mod:`repro.db.resolve`'s to say; a layout only finds the slot of
    the pair it is given, case-insensitively, first one first.
    """

    def __init__(self, entries: list[tuple[str | None, str]]) -> None:
        self.entries = list(entries)
        #: ``(binding, name)``, both lower-cased -> its first slot.
        self.slots: dict[tuple[str | None, str], int] = {}
        #: The resolver's owners of these columns, made on first use; a
        #: stored table's layout is shared by every statement reading
        #: the table under one binding, so they are made once for all.
        self.owners: list | None = None
        for position, (binding, name) in enumerate(self.entries):
            key = (binding and binding.lower(), name.lower())
            self.slots.setdefault(key, position)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [name for _, name in self.entries]

    def position(self, binding: str | None, name: str) -> int | None:
        """The slot of ``(binding, name)``, or None."""
        return self.slots.get((binding and binding.lower(), name.lower()))

    @staticmethod
    def concat(left: "RowLayout", right: "RowLayout") -> "RowLayout":
        return RowLayout(left.entries + right.entries)


class ResultSet:
    """Materialised query output: column names and rows."""

    def __init__(self, columns: list[str], rows: list[Row]) -> None:
        self.columns = list(columns)
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column(self, name: str) -> list[SQLValue]:
        """Values of one output column by (case-insensitive) name."""
        lowered = name.lower()
        for position, column in enumerate(self.columns):
            if column.lower() == lowered:
                return [row[position] for row in self.rows]
        raise PlanningError(f"no result column {name!r}")

    def scalar(self) -> SQLValue:
        """The single value of a 1x1 result (None for an empty result)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def __repr__(self) -> str:
        return f"ResultSet({self.columns!r}, {len(self.rows)} rows)"
