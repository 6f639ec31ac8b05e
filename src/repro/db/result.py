"""Query results: a row layout plus materialised rows."""

from __future__ import annotations

from collections.abc import Iterator

from repro.db.types import SQLValue
from repro.errors import PlanningError

Row = tuple[SQLValue, ...]


class RowLayout:
    """Maps (binding, column) references to tuple positions.

    Each entry is a ``(binding, name)`` pair: ``binding`` is the table
    alias (or table name) a column came from, or ``None`` for computed
    columns.  Resolution is case-insensitive and detects ambiguity the
    way SQL requires (an unqualified name matching two bindings is an
    error).
    """

    def __init__(self, entries: list[tuple[str | None, str]]) -> None:
        self.entries = list(entries)
        self._by_qualified: dict[tuple[str, str], int] = {}
        #: Lowered name -> its first position; names that two distinct
        #: bindings expose are ambiguous when unqualified.
        self._by_name: dict[str, int] = {}
        self._ambiguous: set[str] = set()
        for position, (binding, name) in enumerate(self.entries):
            lowered = name.lower()
            first = self._by_name.setdefault(lowered, position)
            if self.entries[first][0] != binding:
                self._ambiguous.add(lowered)
            if binding is not None:
                key = (binding.lower(), lowered)
                self._by_qualified.setdefault(key, position)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [name for _, name in self.entries]

    @property
    def bindings(self) -> set[str]:
        return {
            binding for binding, _ in self.entries if binding is not None
        }

    def resolve(self, name: str, table: str | None = None) -> int:
        """Position of a column reference; raises PlanningError."""
        if table is not None:
            key = (table.lower(), name.lower())
            if key in self._by_qualified:
                return self._by_qualified[key]
            raise PlanningError(f"unknown column {table}.{name}")
        lowered = name.lower()
        position = self._by_name.get(lowered)
        if position is None:
            raise PlanningError(f"unknown column {name!r}")
        if lowered in self._ambiguous:
            # Distinct bindings exposing the same name are ambiguous;
            # duplicates within one binding never happen by construction.
            raise PlanningError(f"ambiguous column {name!r}")
        return position

    def can_resolve(self, name: str, table: str | None = None) -> bool:
        try:
            self.resolve(name, table)
            return True
        except PlanningError:
            return False

    def positions_for_binding(self, binding: str) -> list[int]:
        lowered = binding.lower()
        return [
            position
            for position, (entry_binding, _) in enumerate(self.entries)
            if entry_binding is not None
            and entry_binding.lower() == lowered
        ]

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
