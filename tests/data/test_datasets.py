"""Unit tests for the synthetic BIRD-like dataset generators."""

import pytest

from repro.data import DOMAINS, load_all, load_domain
from repro.data.base import Dataset
from repro.errors import BenchmarkError
from repro.knowledge.formula1 import RACE_HISTORY


class TestLoaders:
    def test_all_domains_build(self, datasets):
        assert set(datasets) == set(DOMAINS)
        for dataset in datasets.values():
            assert isinstance(dataset, Dataset)
            assert dataset.db.table_names
            assert dataset.description

    def test_unknown_domain(self):
        with pytest.raises(BenchmarkError):
            load_domain("nope")

    def test_determinism(self):
        first = load_domain("codebase_community", seed=5)
        second = load_domain("codebase_community", seed=5)
        assert first.db.table("posts").rows == second.db.table("posts").rows

    def test_seeds_differ(self):
        a = load_domain("european_football_2", seed=1)
        b = load_domain("european_football_2", seed=2)
        assert a.db.table("Player").rows != b.db.table("Player").rows

    def test_frames_mirror_db(self, datasets):
        for dataset in datasets.values():
            for name in dataset.db.table_names:
                table = dataset.db.table(name)
                frame = dataset.frame(name)
                assert len(frame) == len(table)
                assert frame.columns == table.schema.column_names

    def test_unknown_frame(self, datasets):
        with pytest.raises(BenchmarkError):
            datasets["formula_1"].frame("nope")


class TestCaliforniaSchools:
    def test_sat_scores_unique(self, datasets):
        scores = datasets["california_schools"].frame("satscores")
        maths = scores["AvgScrMath"].tolist()
        assert len(maths) == len(set(maths))
        takers = scores["NumTstTakr"].tolist()
        assert len(takers) == len(set(takers))

    def test_coordinates_near_city(self, datasets, kb):
        from repro.knowledge.geography import CITY_COORDINATES

        schools = datasets["california_schools"].frame("schools")
        for record in schools.to_records()[:50]:
            latitude, longitude = CITY_COORDINATES[record["City"]]
            assert abs(record["Latitude"] - latitude) < 0.1
            assert abs(record["Longitude"] - longitude) < 0.1

    def test_foreign_keys_resolve(self, datasets):
        db = datasets["california_schools"].db
        orphans = db.execute(
            "SELECT COUNT(*) FROM satscores s WHERE s.cds NOT IN "
            "(SELECT CDSCode FROM schools)"
        ).scalar()
        assert orphans == 0


class TestCodebaseCommunity:
    def test_named_post_exists(self, datasets):
        posts = datasets["codebase_community"].frame("posts")
        titles = posts["Title"].tolist()
        assert "How does gentle boosting differ from AdaBoost?" in titles

    def test_every_post_has_comments(self, datasets):
        db = datasets["codebase_community"].db
        without = db.execute(
            "SELECT COUNT(*) FROM posts p WHERE p.Id NOT IN "
            "(SELECT PostId FROM comments)"
        ).scalar()
        assert without == 0

    def test_top_view_counts_distinct(self, datasets):
        posts = datasets["codebase_community"].frame("posts")
        top = posts.sort_values("ViewCount", ascending=False).head(10)
        views = top["ViewCount"].tolist()
        assert len(views) == len(set(views))


class TestFormula1:
    def test_races_match_fact_store(self, datasets, kb):
        db = datasets["formula_1"].db
        for circuit_name, years in RACE_HISTORY.items():
            got = db.execute(
                "SELECT r.year FROM races r JOIN circuits c "
                "ON r.circuitId = c.circuitId "
                f"WHERE c.name = '{circuit_name}' ORDER BY r.year"
            ).column("year")
            assert got == sorted(years)

    def test_rounds_sequential_within_year(self, datasets):
        db = datasets["formula_1"].db
        rounds = db.execute(
            "SELECT round FROM races WHERE year = 2005 ORDER BY round"
        ).column("round")
        assert rounds == list(range(1, len(rounds) + 1))

    def test_results_reference_races(self, datasets):
        db = datasets["formula_1"].db
        orphans = db.execute(
            "SELECT COUNT(*) FROM results WHERE raceId NOT IN "
            "(SELECT raceId FROM races)"
        ).scalar()
        assert orphans == 0

    def test_positions_start_at_one(self, datasets):
        db = datasets["formula_1"].db
        assert db.execute(
            "SELECT MIN(position) FROM results"
        ).scalar() == 1


class TestEuropeanFootball:
    def test_heights_realistic(self, datasets):
        players = datasets["european_football_2"].frame("Player")
        heights = players["height"].tolist()
        assert all(155.0 <= h <= 210.0 for h in heights)
        assert any(h > 188.0 for h in heights)  # taller than Curry
        assert any(h < 170.0 for h in heights)  # shorter than Messi

    def test_player_names_unique(self, datasets):
        players = datasets["european_football_2"].frame("Player")
        names = players["player_name"].tolist()
        assert len(names) == len(set(names))

    def test_attributes_one_per_player(self, datasets):
        dataset = datasets["european_football_2"]
        assert len(dataset.frame("Player_Attributes")) == len(
            dataset.frame("Player")
        )

    def test_uk_league_team_counts_distinct(self, datasets):
        db = datasets["european_football_2"].db
        counts = db.execute(
            "SELECT l.name, COUNT(*) AS n FROM League l "
            "JOIN Team t ON l.id = t.league_id "
            "WHERE l.name IN ('England Premier League', "
            "'Scotland Premier League') GROUP BY l.name"
        ).column("n")
        assert len(set(counts)) == len(counts)


class TestDebitCard:
    def test_countries_from_fact_store(self, datasets, kb):
        stations = datasets["debit_card_specializing"].frame("gasstations")
        for country in stations["Country"].unique():
            assert kb.get("uses_euro", country) is not None

    def test_transactions_reference_stations(self, datasets):
        db = datasets["debit_card_specializing"].db
        orphans = db.execute(
            "SELECT COUNT(*) FROM transactions_1k WHERE GasStationID "
            "NOT IN (SELECT GasStationID FROM gasstations)"
        ).scalar()
        assert orphans == 0

    def test_yearmonth_covers_every_customer(self, datasets):
        dataset = datasets["debit_card_specializing"]
        customers = len(dataset.frame("customers"))
        assert len(dataset.frame("yearmonth")) == customers * 3


class TestPromptSchema:
    def test_contains_create_tables_and_samples(self, datasets):
        text = datasets["california_schools"].prompt_schema()
        assert text.count("CREATE TABLE") == 3
        assert "-- Sample rows (schools)" in text
        assert "value examples" in text

    def test_prompt_schema_parses_back(self, datasets):
        from repro.lm.handlers.text2sql import _parse_schema

        tables, edges = _parse_schema(
            datasets["california_schools"].prompt_schema()
        )
        assert set(tables) == {"schools", "satscores", "frpm"}
        assert edges


class TestTableVersion:
    """``Table.version`` is the write epoch: it moves exactly where the
    cached statistics are dropped, which is what ``prompt_schema``'s
    per-table blocks are checked against."""

    @staticmethod
    def _table():
        from repro.db import Column, Database, DataType, TableSchema

        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [
                    Column(
                        "id",
                        DataType.INTEGER,
                        nullable=False,
                        primary_key=True,
                    ),
                    Column("s", DataType.TEXT),
                ],
            )
        )
        return db, db.table("t")

    def test_moves_on_writes_that_drop_statistics(self):
        db, table = self._table()
        assert table.version == 0
        seen = [table.version]

        def moved() -> bool:
            seen.append(table.version)
            return seen[-1] == seen[-2] + 1

        stats = table._stats
        table.insert([1, "a"])
        assert moved() and table._stats is not stats
        db.insert("t", [[2, "b"], [3, "c"]])
        assert table.version == seen[-1] + 2  # one per row
        seen.append(table.version)
        db.execute("INSERT INTO t VALUES (4, 'd')")
        assert moved()
        db.execute("UPDATE t SET s = 'z' WHERE id = 2")
        assert moved()
        table.update_rows([(0, [1, "again"])])
        assert moved()
        db.execute("DELETE FROM t WHERE id = 4")
        assert moved()
        table.delete_rows([0])
        assert moved()

    def test_stays_on_everything_else(self):
        from repro.errors import SchemaError

        db, table = self._table()
        db.insert("t", [[1, "a"], [2, "b"]])
        version, stats = table.version, table._stats
        table.column_stats("s")
        db.create_index("t", "s")
        db.set_partitioning("t", "id", shards=2)
        table.set_partitioning(None)
        db.execute("SELECT * FROM t WHERE s = 'a'")
        db.execute("UPDATE t SET s = 'q' WHERE id = 99")  # matches nothing
        db.execute("DELETE FROM t WHERE id = 99")
        assert table.delete_rows([]) == 0
        with pytest.raises(SchemaError):
            table.insert([1, "duplicate key"])
        with pytest.raises(SchemaError):
            table.update_rows([(0, [2, "duplicate key"])])
        with pytest.raises(SchemaError):
            table.delete_rows([17])
        assert (table.version, table._stats) == (version, stats)
        assert table._stats is stats


def test_prompt_schema_under_concurrent_readers_and_a_writer():
    """Serve workers share one ``Dataset``.  Readers racing a writer
    each publish what they rendered; whatever they leave behind, the
    first call after the last write is current."""
    import sys
    import threading
    import time

    from repro.db import Column, Database, DataType, TableSchema

    db = Database()
    db.create_table(TableSchema("t", [Column("n", DataType.INTEGER)]))
    db.insert("t", [[0]])
    table = db.table("t")
    dataset = Dataset("race", db, "stress fixture")
    done = threading.Event()
    calls = [0] * 4
    last: list[str | None] = [None] * 4

    def reader(slot: int) -> None:
        while not done.is_set():
            dataset.prompt_schema()
            calls[slot] += 1
        last[slot] = dataset.prompt_schema()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(4)
    ]
    try:
        for thread in readers:
            thread.start()
        deadline = time.monotonic() + 10
        written = 0
        while written < 400 or (
            min(calls) < 50 and time.monotonic() < deadline
        ):
            written += 1
            table.update_rows([(0, [written])])
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert min(calls) >= 50
    current = Dataset("race", db, "").prompt_schema()
    assert f"--   {written}" in current
    assert last == [current] * 4
    assert dataset.prompt_schema() == current
