"""Unit tests for the DataFrame/Column substrate."""

import pytest

from repro.errors import FrameError
from repro.frame import Column, DataFrame


@pytest.fixture()
def df() -> DataFrame:
    return DataFrame(
        {
            "name": ["a", "b", "c", "d"],
            "score": [3, 1, None, 2],
            "city": ["X", "Y", "X", None],
        }
    )


class TestConstruction:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(FrameError):
            DataFrame({"a": [1], "b": [1, 2]})

    def test_from_rows(self):
        frame = DataFrame.from_rows(["a", "b"], [(1, 2), (3, 4)])
        assert frame["a"].tolist() == [1, 3]

    def test_from_records_unions_keys(self):
        frame = DataFrame.from_records([{"a": 1}, {"a": 2, "b": 3}])
        assert frame["b"].tolist() == [None, 3]

    def test_empty(self):
        assert DataFrame({}).empty
        assert len(DataFrame({"a": []})) == 0


class TestSelection:
    def test_column_access(self, df):
        assert isinstance(df["name"], Column)
        assert df["name"].tolist() == ["a", "b", "c", "d"]

    def test_missing_column_raises(self, df):
        with pytest.raises(FrameError):
            df["nope"]

    def test_column_list_selection(self, df):
        sub = df[["name", "score"]]
        assert sub.columns == ["name", "score"]

    def test_boolean_mask_selection(self, df):
        kept = df[df["score"] > 1]
        assert kept["name"].tolist() == ["a", "d"]  # None drops out

    def test_row_and_iterrows(self, df):
        assert df.row(0) == {"name": "a", "score": 3, "city": "X"}
        assert len(list(df.iterrows())) == 4

    def test_setitem_validates_length(self, df):
        with pytest.raises(FrameError):
            df["extra"] = [1]

    def test_setitem_accepts_column(self, df):
        df["double"] = Column(
            "double",
            [None if value is None else value * 2 for value in df["score"]],
        )
        assert df["double"].tolist() == [6, 2, None, 4]


class TestColumnOperations:
    def test_comparisons_are_null_safe(self, df):
        mask = (df["score"] >= 2).tolist()
        assert mask == [True, False, False, True]

    def test_eq_and_ne(self, df):
        assert (df["city"] == "X").tolist() == [True, False, True, False]
        assert (df["city"] != "X").tolist() == [False, True, False, False]

    def test_logical_combinators(self, df):
        mask = (df["score"] > 0) & (df["city"] == "X")
        assert mask.tolist() == [True, False, False, False]
        either = (df["score"] > 2) | (df["city"] == "Y")
        assert either.tolist() == [True, True, False, False]
        assert (~(df["score"] > 0)).tolist() == [False, False, True, False]

    def test_isin_and_na_helpers(self, df):
        assert df["city"].isin(["X"]).tolist() == [
            True, False, True, False,
        ]
        assert df["score"].isin([1, 3]).tolist() == [
            True, True, False, False,
        ]

    def test_unique_skips_nulls_keeps_order(self, df):
        assert df["city"].unique() == ["X", "Y"]

    def test_reductions(self, df):
        assert df["score"].sum() == 6
        assert df["score"].mean() == pytest.approx(2.0)
        assert df["score"].min() == 1
        assert df["score"].max() == 3
        assert df["score"].count() == 3



class TestTransforms:
    def test_sort_values_with_nulls_first(self, df):
        ordered = df.sort_values("score")
        assert ordered["name"].tolist() == ["c", "b", "d", "a"]

    def test_sort_values_descending(self, df):
        ordered = df.sort_values("score", ascending=False)
        assert ordered["name"].tolist()[:2] == ["a", "d"]

    def test_sort_values_with_key(self):
        frame = DataFrame({"x": [-5, 2, -1]})
        ordered = frame.sort_values("x", key=abs, ascending=False)
        assert ordered["x"].tolist() == [-5, 2, -1]

    def test_sort_values_multi_key(self):
        frame = DataFrame(
            {"g": ["b", "a", "a"], "v": [1, 2, 1]}
        )
        ordered = frame.sort_values(["g", "v"], ascending=[True, False])
        assert ordered.row(0) == {"g": "a", "v": 2}

    def test_sort_requires_matching_flags(self, df):
        with pytest.raises(FrameError):
            df.sort_values(["name"], ascending=[True, False])

    def test_head(self, df):
        assert len(df.head(2)) == 2
        assert len(df.head(99)) == 4

    def test_rename_and_assign(self, df):
        renamed = df.rename(columns={"name": "title"})
        assert "title" in renamed.columns
        extended = df.assign(flag=[1, 0, 1, 0])
        assert extended["flag"].tolist() == [1, 0, 1, 0]
        assert "flag" not in df.columns  # assign copies
