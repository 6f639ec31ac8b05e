"""Unit tests for RowLayout and ResultSet.

Which column a name binds to is :mod:`repro.db.resolve`'s to say, so the
resolution cases read through it: :func:`~repro.db.resolve.slot` for an
owner's slot and for a name the planner made (``_agg0``), and
:meth:`Scope.bind` and star expansion for a statement's own names.
"""

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db.resolve import Column as Owner
from repro.db.resolve import resolve, slot
from repro.db.result import ResultSet, RowLayout
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import PlanningError


@pytest.fixture()
def layout() -> RowLayout:
    return RowLayout(
        [("m", "id"), ("m", "title"), ("r", "id"), (None, "_agg0")]
    )


def position(layout: RowLayout, name: str, table: str | None = None) -> int:
    return slot(layout, ast.ColumnRef(name, table))


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            "m",
            [Column("id", DataType.INTEGER), Column("title", DataType.TEXT)],
        )
    )
    database.create_table(TableSchema("r", [Column("id", DataType.INTEGER)]))
    return database


class TestRowLayout:
    def test_qualified_resolution(self, layout):
        assert position(layout, "id", "m") == 0
        assert position(layout, "id", "r") == 2

    def test_case_insensitive(self, layout):
        assert position(layout, "TITLE", "M") == 1

    def test_unqualified_unique(self, db, layout):
        sql = "SELECT 1 FROM m JOIN r ON m.id = r.id"
        owner = resolve(db, parse_statement(sql)).scope.bind("title")
        assert slot(layout, ast.ColumnRef("title", owner=owner)) == 1
        assert position(layout, "_agg0") == 3
        with pytest.raises(PlanningError, match="unknown column 'title'"):
            position(layout, "title")  # no owner: bound by no other rule

    def test_unqualified_ambiguous(self, db):
        sql = "SELECT id FROM m JOIN r ON m.id = r.id"
        assert resolve(db, parse_statement(sql)).scope.bind("id") is True
        with pytest.raises(PlanningError, match="ambiguous"):
            db.execute(sql)

    def test_unknown(self, layout):
        with pytest.raises(PlanningError):
            position(layout, "nope")
        with pytest.raises(PlanningError):
            position(layout, "title", "zzz")

    def test_can_resolve(self, db):
        scope = resolve(
            db, parse_statement("SELECT 1 FROM m JOIN r ON m.id = r.id")
        ).scope
        assert isinstance(scope.bind("title", "m"), Owner)
        assert scope.bind("id") is True  # ambiguous counts as no owner
        assert scope.bind("nope") is False

    def test_positions_for_binding(self, db):
        resolved = resolve(
            db, parse_statement("SELECT m.* FROM m JOIN r ON m.id = r.id")
        )
        assert [
            (item.expression.table, item.expression.name)
            for item in resolved.items
        ] == [("m", "id"), ("m", "title")]
        assert not resolved.failures
        select = parse_statement("SELECT zzz.* FROM m")
        resolved = resolve(db, select)
        assert resolved.items == []
        star = select.items[0].expression
        assert [(key, f.error) for key, f in resolved.failures.items()] == [
            (id(star), "unknown table 'zzz' in zzz.*")
        ]

    def test_concat(self):
        left = RowLayout([("a", "x")])
        right = RowLayout([("b", "y")])
        combined = RowLayout.concat(left, right)
        assert combined.names == ["x", "y"]
        assert position(combined, "y", "b") == 1

    def test_names_and_bindings(self, layout):
        assert layout.names == ["id", "title", "id", "_agg0"]


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


class TestLayoutsPerPlan:
    """Planning a key join builds each layout once: the join's and the
    projection's.  A combined layout for the ON clause is built only
    for a residual, and an index join takes the layout of the hash join
    it replaces."""

    @pytest.fixture()
    def keyed(self) -> Database:
        database = Database()
        database.create_table(
            TableSchema(
                "c",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("name", DataType.TEXT),
                ],
            )
        )
        database.create_table(
            TableSchema(
                "o",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("cid", DataType.INTEGER),
                    Column("qty", DataType.INTEGER),
                ],
            )
        )
        database.insert("c", [(n, f"c{n}") for n in range(100)])
        database.insert("o", [(n, n % 100, n % 7) for n in range(1000)])
        for table, column in (("c", "id"), ("o", "id"), ("o", "cid")):
            database.create_index(table, column)
        return database

    @pytest.fixture()
    def built(self, monkeypatch) -> list[RowLayout]:
        layouts: list[RowLayout] = []
        real = RowLayout.__init__

        def counted(self, entries) -> None:
            layouts.append(self)
            real(self, entries)

        monkeypatch.setattr(RowLayout, "__init__", counted)
        return layouts

    @pytest.mark.parametrize(
        "on, joins, count",
        [
            ("o.cid = c.id", "IndexJoin", 2),
            ("o.cid = c.id AND o.qty > 3", "IndexJoin", 3),
        ],
    )
    def test_a_key_join_builds_each_layout_once(
        self, keyed, built, on, joins, count
    ):
        sql = f"SELECT o.id, c.name FROM o JOIN c ON {on} WHERE c.id = 7"
        assert joins in keyed.explain(sql)
        del built[:]
        keyed.explain(sql)
        assert len(built) == count
        assert keyed.execute(sql).rows == [
            (n, "c7")
            for n in range(7, 1000, 100)
            if "qty" not in on or n % 7 > 3
        ]
