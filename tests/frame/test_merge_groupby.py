"""Unit tests for frame merge and groupby."""

import pytest

from repro.errors import FrameError
from repro.frame import DataFrame, merge


@pytest.fixture()
def left() -> DataFrame:
    return DataFrame(
        {"id": [1, 2, 3, None], "name": ["a", "b", "c", "d"]}
    )


@pytest.fixture()
def right() -> DataFrame:
    return DataFrame(
        {"ref": [1, 1, 3, 9], "score": [10, 11, 12, 13]}
    )


class TestMerge:
    def test_inner_merge(self, left, right):
        joined = merge(left, right, left_on="id", right_on="ref")
        assert joined["name"].tolist() == ["a", "a", "c"]
        assert joined["score"].tolist() == [10, 11, 12]

    def test_left_merge_keeps_unmatched(self, left, right):
        joined = merge(left, right, left_on="id", right_on="ref", how="left")
        assert len(joined) == 5
        # Rows for the unmatched ids (2 and NULL) carry NULL scores.
        scores_by_name = {
            record["name"]: record["score"]
            for record in joined.to_records()
            if record["name"] in ("b", "d")
        }
        assert scores_by_name == {"b": None, "d": None}

    def test_null_keys_never_match(self, left, right):
        joined = merge(left, right, left_on="id", right_on="ref")
        assert "d" not in joined["name"].tolist()

    def test_same_named_key_appears_once(self):
        a = DataFrame({"k": [1, 2], "x": ["p", "q"]})
        b = DataFrame({"k": [1, 2], "y": ["r", "s"]})
        joined = merge(a, b, left_on="k", right_on="k")
        assert joined.columns == ["k", "x", "y"]

    def test_overlapping_non_key_columns_suffixed(self):
        a = DataFrame({"k": [1], "v": ["left"]})
        b = DataFrame({"j": [1], "v": ["right"]})
        joined = merge(a, b, left_on="k", right_on="j")
        assert set(joined.columns) == {"k", "v_x", "j", "v_y"}

    def test_overlapping_differently_named_keys_suffixed(self):
        a = DataFrame({"Id": [1], "t": ["x"]})
        b = DataFrame({"Id": [5], "PostId": [1]})
        joined = merge(a, b, left_on="Id", right_on="PostId")
        assert set(joined.columns) == {"Id_x", "t", "Id_y", "PostId"}

    def test_bad_how_rejected(self, left, right):
        with pytest.raises(FrameError):
            merge(left, right, left_on="id", right_on="ref", how="outer")

    def test_missing_key_rejected(self, left, right):
        with pytest.raises(FrameError):
            merge(left, right, left_on="nope", right_on="ref")

    def test_preserves_left_order(self, left, right):
        joined = merge(left, right, left_on="id", right_on="ref")
        assert joined["id"].tolist() == sorted(joined["id"].tolist())


class TestGroupBy:
    @pytest.fixture()
    def frame(self) -> DataFrame:
        return DataFrame(
            {
                "g": ["x", "y", "x", "x", "y"],
                "v": [1, 2, 3, None, 4],
            }
        )

    def test_agg_named_reductions(self, frame):
        out = frame.groupby("g").agg(
            n=("v", "count"),
            total=("v", "sum"),
            mean=("v", "mean"),
            low=("v", "min"),
            high=("v", "max"),
            first=("v", "first"),
        )
        x_row = out[out["g"] == "x"].row(0)
        assert x_row["n"] == 3  # count counts rows, including None
        assert x_row["total"] == 4
        assert x_row["mean"] == pytest.approx(2.0)
        assert (x_row["low"], x_row["high"]) == (1, 3)
        assert x_row["first"] == 1

    def test_size(self, frame):
        out = frame.groupby("g").size()
        assert dict(zip(out["g"], out["size"])) == {"x": 3, "y": 2}

    def test_group_order_is_first_occurrence(self, frame):
        out = frame.groupby("g").size()
        assert out["g"].tolist() == ["x", "y"]

    def test_multi_column_grouping(self):
        frame = DataFrame(
            {"a": [1, 1, 2], "b": ["p", "p", "q"], "v": [1, 2, 3]}
        )
        out = frame.groupby(["a", "b"]).agg(total=("v", "sum"))
        assert len(out) == 2

    def test_unknown_reduction_rejected(self, frame):
        with pytest.raises(FrameError):
            frame.groupby("g").agg(bad=("v", "median"))

    def test_unknown_group_column_rejected(self, frame):
        with pytest.raises(FrameError):
            frame.groupby("nope")
