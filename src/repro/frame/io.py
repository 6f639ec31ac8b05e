"""CSV persistence for dataframes and datasets.

The paper's hand-written pipelines read the BIRD tables as CSV files
("../pandas_dfs/california_schools/schools.csv", Appendix C).  These
helpers give the same workflow: export a generated dataset to a CSV
directory once, then load frames from disk.

Values round-trip losslessly: NULL as an empty field, booleans as
true/false, numbers re-inferred on read.
"""

from __future__ import annotations

import csv
import pathlib

from repro.errors import FrameError
from repro.frame.frame import DataFrame


def write_csv(frame: DataFrame, path: str | pathlib.Path) -> None:
    """Write a frame to ``path`` as UTF-8 CSV with a header row."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(frame.columns)
        for _, record in frame.iterrows():
            writer.writerow(
                [_render(record[name]) for name in frame.columns]
            )


def read_csv(path: str | pathlib.Path) -> DataFrame:
    """Read a CSV written by :func:`write_csv` (or any simple CSV)."""
    source = pathlib.Path(path)
    if not source.exists():
        raise FrameError(f"no such CSV file: {source}")
    with source.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise FrameError(f"empty CSV file: {source}") from exc
        rows = [[_parse(cell) for cell in row] for row in reader]
    for row in rows:
        if len(row) != len(header):
            raise FrameError(
                f"ragged CSV row in {source}: expected {len(header)} "
                f"fields, got {len(row)}"
            )
    return DataFrame.from_rows(header, rows)


def _render(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse(cell: str) -> object:
    if cell == "":
        return None
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    return cell


def export_dataset(dataset, directory: str | pathlib.Path) -> list[str]:
    """Write every frame of a dataset as ``<dir>/<table>.csv``.

    Returns the written file paths, mirroring the per-domain CSV layout
    the paper's pipelines consume.
    """
    base = pathlib.Path(directory)
    written = []
    for name, frame in dataset.frames.items():
        path = base / f"{name}.csv"
        write_csv(frame, path)
        written.append(str(path))
    return written

