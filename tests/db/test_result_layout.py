"""Unit tests for RowLayout and ResultSet."""

import pytest

from repro.db.result import ResultSet, RowLayout
from repro.errors import PlanningError


@pytest.fixture()
def layout() -> RowLayout:
    return RowLayout(
        [("m", "id"), ("m", "title"), ("r", "id"), (None, "_agg0")]
    )


class TestRowLayout:
    def test_qualified_resolution(self, layout):
        assert layout.resolve("id", "m") == 0
        assert layout.resolve("id", "r") == 2

    def test_case_insensitive(self, layout):
        assert layout.resolve("TITLE", "M") == 1

    def test_unqualified_unique(self, layout):
        assert layout.resolve("title") == 1
        assert layout.resolve("_agg0") == 3

    def test_unqualified_ambiguous(self, layout):
        with pytest.raises(PlanningError, match="ambiguous"):
            layout.resolve("id")

    def test_unknown(self, layout):
        with pytest.raises(PlanningError):
            layout.resolve("nope")
        with pytest.raises(PlanningError):
            layout.resolve("title", "zzz")

    def test_can_resolve(self, layout):
        assert layout.can_resolve("title", "m")
        assert not layout.can_resolve("id")  # ambiguous counts as no

    def test_positions_for_binding(self, layout):
        assert layout.positions_for_binding("m") == [0, 1]
        assert layout.positions_for_binding("zzz") == []

    def test_concat(self):
        left = RowLayout([("a", "x")])
        right = RowLayout([("b", "y")])
        combined = RowLayout.concat(left, right)
        assert combined.names == ["x", "y"]
        assert combined.resolve("y", "b") == 1

    def test_names_and_bindings(self, layout):
        assert layout.names == ["id", "title", "id", "_agg0"]
        assert layout.bindings == {"m", "r"}


class TestResultSet:
    @pytest.fixture()
    def result(self) -> ResultSet:
        return ResultSet(["a", "b"], [(1, "x"), (2, "y")])

    def test_len_and_iter(self, result):
        assert len(result) == 2
        assert list(result) == [(1, "x"), (2, "y")]

    def test_column_by_name(self, result):
        assert result.column("B") == ["x", "y"]
        with pytest.raises(PlanningError):
            result.column("c")

    def test_scalar(self, result):
        assert result.scalar() == 1
        assert ResultSet(["a"], []).scalar() is None
