"""Group-by aggregation over :class:`~repro.frame.frame.DataFrame`."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.errors import FrameError
from repro.frame import frame as frame_module

#: Named reductions accepted by :meth:`GroupBy.agg`.
_REDUCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": lambda values: sum(v for v in values if v is not None),
    "mean": lambda values: (
        (lambda kept: sum(kept) / len(kept) if kept else None)(
            [v for v in values if v is not None]
        )
    ),
    "min": lambda values: (
        min((v for v in values if v is not None), default=None)
    ),
    "max": lambda values: (
        max((v for v in values if v is not None), default=None)
    ),
    "first": lambda values: values[0] if values else None,
    "list": list,
}


class GroupBy:
    """Lazy grouping: holds group keys -> row indices."""

    def __init__(
        self, frame: "frame_module.DataFrame", by: list[str]
    ) -> None:
        for name in by:
            if name not in frame.columns:
                raise FrameError(f"no column {name!r} to group by")
        self._frame = frame
        self._by = by
        self._groups: dict[tuple, list[int]] = {}
        self._order: list[tuple] = []
        key_columns = [frame[name].values for name in by]
        for index in range(len(frame)):
            key = tuple(column[index] for column in key_columns)
            if key not in self._groups:
                self._groups[key] = []
                self._order.append(key)
            self._groups[key].append(index)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, list[int]]:
        return dict(self._groups)

    def agg(
        self, **aggregations: "tuple[str, str] | str"
    ) -> "frame_module.DataFrame":
        """Aggregate each group.

        Each keyword is an output column; its value is either
        ``(source_column, reduction_name)`` or a bare reduction name
        applied to the first grouping key (useful for ``count``)::

            df.groupby("genre").agg(n=("title", "count"),
                                    total=("revenue", "sum"))
        """
        out: dict[str, list[Any]] = {name: [] for name in self._by}
        for name in aggregations:
            out[name] = []
        for key in self._order:
            indices = self._groups[key]
            for position, by_name in enumerate(self._by):
                out[by_name].append(key[position])
            for name, spec in aggregations.items():
                if isinstance(spec, str):
                    source, reduction_name = self._by[0], spec
                else:
                    source, reduction_name = spec
                reduction = _REDUCTIONS.get(reduction_name)
                if reduction is None:
                    raise FrameError(
                        f"unknown aggregation {reduction_name!r}"
                    )
                values = [
                    self._frame[source].values[index] for index in indices
                ]
                out[name].append(reduction(values))
        return frame_module.DataFrame(out)

    def size(self) -> "frame_module.DataFrame":
        """Row count per group, as a frame with a ``size`` column."""
        out: dict[str, list[Any]] = {name: [] for name in self._by}
        out["size"] = []
        for key in self._order:
            for position, by_name in enumerate(self._by):
                out[by_name].append(key[position])
            out["size"].append(len(self._groups[key]))
        return frame_module.DataFrame(out)

