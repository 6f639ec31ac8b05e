"""Columnar DataFrame and Column types.

Deliberately a small, explicit subset of the pandas API — exactly the
operations the TAG pipelines and benchmark code need.  Column-wise
comparisons produce boolean :class:`Column` masks usable for filtering;
``sort_values`` accepts a key function (the paper's match-based pipeline
sorts by ``abs(Longitude)``); ``merge`` performs hash joins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.db.types import sort_key
from repro.errors import FrameError

if TYPE_CHECKING:  # pragma: no cover
    from repro.frame.groupby import GroupBy


class Column:
    """One named column of values; supports vectorised comparisons."""

    def __init__(self, name: str, values: Sequence[Any]) -> None:
        self.name = name
        self.values = list(values)

    # -- basic container protocol ---------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def tolist(self) -> list[Any]:
        return list(self.values)

    # -- elementwise operations ------------------------------------------

    def _compare(self, other: Any, op: Callable[[Any, Any], bool]) -> "Column":
        if isinstance(other, Column):
            if len(other) != len(self):
                raise FrameError("column length mismatch in comparison")
            pairs = zip(self.values, other.values)
        else:
            pairs = ((value, other) for value in self.values)
        mask = [
            False if left is None or right is None else op(left, right)
            for left, right in pairs
        ]
        return Column(self.name, mask)

    def __eq__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._compare(other, lambda a, b: a == b)

    def __ne__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b)

    def __lt__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a >= b)

    def __hash__(self) -> int:  # Columns are mutable views; identity hash.
        return id(self)

    def __and__(self, other: "Column") -> "Column":
        if len(other) != len(self):
            raise FrameError("column length mismatch in '&'")
        return Column(
            self.name,
            [bool(a) and bool(b) for a, b in zip(self.values, other.values)],
        )

    def __or__(self, other: "Column") -> "Column":
        if len(other) != len(self):
            raise FrameError("column length mismatch in '|'")
        return Column(
            self.name,
            [bool(a) or bool(b) for a, b in zip(self.values, other.values)],
        )

    def __invert__(self) -> "Column":
        return Column(self.name, [not bool(value) for value in self.values])

    def isin(self, values: Iterable[Any]) -> "Column":
        lookup = set(values)
        return Column(self.name, [value in lookup for value in self.values])

    # -- reductions --------------------------------------------------------

    def unique(self) -> list[Any]:
        """Distinct values, first-occurrence order (NULLs excluded)."""
        seen: set[Any] = set()
        result: list[Any] = []
        for value in self.values:
            if value is None or value in seen:
                continue
            seen.add(value)
            result.append(value)
        return result

    def _non_null(self) -> list[Any]:
        return [value for value in self.values if value is not None]

    def sum(self) -> Any:
        return sum(self._non_null())

    def mean(self) -> float | None:
        values = self._non_null()
        return sum(values) / len(values) if values else None

    def min(self) -> Any:
        values = self._non_null()
        return min(values, key=sort_key) if values else None

    def max(self) -> Any:
        values = self._non_null()
        return max(values, key=sort_key) if values else None

    def count(self) -> int:
        return len(self._non_null())

    def __repr__(self) -> str:
        preview = ", ".join(repr(value) for value in self.values[:5])
        suffix = ", ..." if len(self.values) > 5 else ""
        return f"Column({self.name!r}, [{preview}{suffix}])"


class DataFrame:
    """A columnar table with pandas-flavoured selection and transforms."""

    def __init__(self, data: dict[str, Sequence[Any]] | None = None) -> None:
        self._data: dict[str, list[Any]] = {}
        if data:
            lengths = {len(values) for values in data.values()}
            if len(lengths) > 1:
                raise FrameError(
                    f"columns have unequal lengths: "
                    f"{ {k: len(v) for k, v in data.items()} }"
                )
            self._data = {name: list(values) for name, values in data.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(
        cls, columns: Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> "DataFrame":
        materialised = [list(row) for row in rows]
        data = {
            name: [row[position] for row in materialised]
            for position, name in enumerate(columns)
        }
        if not data:
            raise FrameError("from_rows requires at least one column")
        return cls(data)

    @classmethod
    def from_records(cls, records: Iterable[dict[str, Any]]) -> "DataFrame":
        materialised = list(records)
        if not materialised:
            return cls({})
        columns: list[str] = []
        for record in materialised:
            for key in record:
                if key not in columns:
                    columns.append(key)
        return cls(
            {
                name: [record.get(name) for record in materialised]
                for name in columns
            }
        )

    # -- shape / access ------------------------------------------------------

    @property
    def columns(self) -> list[str]:
        return list(self._data)

    def __len__(self) -> int:
        if not self._data:
            return 0
        return len(next(iter(self._data.values())))

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, key: "str | list[str] | Column") -> Any:
        if isinstance(key, str):
            try:
                return Column(key, self._data[key])
            except KeyError as exc:
                raise FrameError(f"no column {key!r}") from exc
        if isinstance(key, list):
            missing = [name for name in key if name not in self._data]
            if missing:
                raise FrameError(f"no column(s) {missing}")
            return DataFrame({name: self._data[name] for name in key})
        if isinstance(key, Column):
            return self.filter_mask(key.values)
        raise FrameError(f"unsupported selection key {type(key).__name__}")

    def __setitem__(self, name: str, values: "Column | Sequence[Any]") -> None:
        if isinstance(values, Column):
            values = values.values
        values = list(values)
        if self._data and len(values) != len(self):
            raise FrameError(
                f"assigned column length {len(values)} != frame length "
                f"{len(self)}"
            )
        self._data[name] = values

    def row(self, index: int) -> dict[str, Any]:
        return {name: values[index] for name, values in self._data.items()}

    def iterrows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for index in range(len(self)):
            yield index, self.row(index)

    def to_records(self) -> list[dict[str, Any]]:
        return [self.row(index) for index in range(len(self))]

    # -- transforms -----------------------------------------------------------

    def filter_mask(self, mask: Sequence[Any]) -> "DataFrame":
        if len(mask) != len(self):
            raise FrameError(
                f"mask length {len(mask)} != frame length {len(self)}"
            )
        keep = [index for index, flag in enumerate(mask) if flag]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "DataFrame":
        return DataFrame(
            {
                name: [values[index] for index in indices]
                for name, values in self._data.items()
            }
        )

    def head(self, count: int = 5) -> "DataFrame":
        return self.take(range(min(count, len(self))))

    def sort_values(
        self,
        by: str | list[str],
        ascending: bool | list[bool] = True,
        key: Callable[[Any], Any] | None = None,
    ) -> "DataFrame":
        names = [by] if isinstance(by, str) else list(by)
        flags = (
            [ascending] * len(names)
            if isinstance(ascending, bool)
            else list(ascending)
        )
        if len(flags) != len(names):
            raise FrameError("ascending list must match sort columns")
        indices = list(range(len(self)))
        for name, flag in reversed(list(zip(names, flags))):
            values = self._data.get(name)
            if values is None:
                raise FrameError(f"no column {name!r}")

            def sorter(index: int, values=values) -> tuple:
                value = values[index]
                if key is not None and value is not None:
                    value = key(value)
                return sort_key(value)

            indices.sort(key=sorter, reverse=not flag)
        return self.take(indices)

    def rename(self, columns: dict[str, str]) -> "DataFrame":
        return DataFrame(
            {
                columns.get(name, name): values
                for name, values in self._data.items()
            }
        )

    def assign(self, **new_columns: Sequence[Any]) -> "DataFrame":
        frame = DataFrame(self._data)
        for name, values in new_columns.items():
            frame[name] = values
        return frame

    def groupby(self, by: str | list[str]) -> "GroupBy":
        from repro.frame.groupby import GroupBy

        names = [by] if isinstance(by, str) else list(by)
        return GroupBy(self, names)

    def __repr__(self) -> str:
        return f"DataFrame({len(self)} rows x {len(self.columns)} cols)"


def merge(
    left: DataFrame,
    right: DataFrame,
    left_on: str,
    right_on: str,
    how: str = "inner",
    suffixes: tuple[str, str] = ("_x", "_y"),
) -> DataFrame:
    """Hash join of two frames on one key column each.

    pandas semantics for names: when ``left_on == right_on`` the key
    appears once in the output (unsuffixed); every other name present
    in both frames gets ``suffixes`` appended on its respective side.
    ``how`` may be ``inner`` or ``left``.
    """
    if how not in ("inner", "left"):
        raise FrameError(f"unsupported merge how={how!r}")
    if left_on not in left.columns:
        raise FrameError(f"left frame has no column {left_on!r}")
    if right_on not in right.columns:
        raise FrameError(f"right frame has no column {right_on!r}")

    shared_key = left_on if left_on == right_on else None
    overlap = set(left.columns) & set(right.columns)
    if shared_key is not None:
        overlap.discard(shared_key)
    left_names = {
        name: name + suffixes[0] if name in overlap else name
        for name in left.columns
    }
    right_names = {
        name: name + suffixes[1] if name in overlap else name
        for name in right.columns
    }
    right_output = [
        name for name in right.columns if name != shared_key
    ]

    buckets: dict[Any, list[int]] = {}
    right_keys = right[right_on].values
    for index, key in enumerate(right_keys):
        if key is None:
            continue
        buckets.setdefault(key, []).append(index)

    out: dict[str, list[Any]] = {
        left_names[name]: [] for name in left.columns
    }
    for name in right_output:
        out.setdefault(right_names[name], [])

    left_keys = left[left_on].values
    for left_index, key in enumerate(left_keys):
        matches = buckets.get(key, []) if key is not None else []
        if not matches and how == "left":
            left_row = left.row(left_index)
            for name in left.columns:
                out[left_names[name]].append(left_row[name])
            for name in right_output:
                out[right_names[name]].append(None)
            continue
        for right_index in matches:
            left_row = left.row(left_index)
            right_row = right.row(right_index)
            for name in left.columns:
                out[left_names[name]].append(left_row[name])
            for name in right_output:
                out[right_names[name]].append(right_row[name])
    return DataFrame(out)
