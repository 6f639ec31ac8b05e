"""Unit tests for CSV persistence."""

import pytest

from repro.errors import FrameError
from repro.frame import DataFrame, read_csv, write_csv
from repro.frame.io import export_dataset


@pytest.fixture()
def frame() -> DataFrame:
    return DataFrame(
        {
            "id": [1, 2, 3],
            "name": ["a", 'quote"inside', "comma, inside"],
            "ratio": [1.5, None, -2.0],
            "flag": [True, False, None],
        }
    )


class TestRoundTrip:
    def test_values_round_trip(self, frame, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(frame, path)
        loaded = read_csv(path)
        assert loaded.columns == frame.columns
        assert loaded.to_records() == frame.to_records()

    def test_null_vs_empty_like_values(self, tmp_path):
        frame = DataFrame({"x": [None, 0, "0", ""]})
        path = tmp_path / "t.csv"
        write_csv(frame, path)
        loaded = read_csv(path)
        # "" and None both serialize to an empty field; integers and
        # numeric strings both come back as numbers -- documented
        # CSV-level lossiness.
        assert loaded["x"].tolist() == [None, 0, 0, None]

    def test_nested_directory_created(self, frame, tmp_path):
        path = tmp_path / "a" / "b" / "t.csv"
        write_csv(frame, path)
        assert path.exists()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FrameError):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FrameError):
            read_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(FrameError):
            read_csv(path)


class TestDatasetExport:
    def test_export_and_load(self, tmp_path, datasets):
        dataset = datasets["codebase_community"]
        written = export_dataset(dataset, tmp_path)
        assert sorted(written) == sorted(
            str(tmp_path / f"{name}.csv") for name in dataset.frames
        )
        for name, frame in dataset.frames.items():
            loaded = read_csv(tmp_path / f"{name}.csv")
            assert loaded.to_records() == frame.to_records(), name

    def test_paper_workflow(self, tmp_path, datasets):
        # Appendix C reads pandas_dfs/<domain>/<table>.csv; same shape.
        export_dataset(
            datasets["california_schools"],
            tmp_path / "california_schools",
        )
        schools = read_csv(
            tmp_path / "california_schools" / "schools.csv"
        )
        top = schools.sort_values(
            "Longitude", ascending=False, key=abs
        ).head(1)
        assert top["GSoffered"][0]
