"""EXPLAIN ANALYZE: operator counters, virtual time, golden renders.

The golden outputs pin the full annotated plan text for two TAG-style
queries — the serving demo's romance lookup and a join/aggregate over
the california_schools domain.  Any change to planning, operator
naming, row accounting, or the cost model shows up as a readable diff
here.
"""

import pytest

from repro.data import load_domain, movies
from repro.db import Database
from repro.errors import PlanningError
from repro.obs import OperatorCostModel, instrument_plan, render_stats
from repro.serve.demo import ROMANCE_SQL

ROMANCE_GOLDEN = """\
Limit(1, offset=0) [rows_in=1 rows_out=1 vtime=0.000102s]
  Slice([0, 1]) [rows_in=1 rows_out=1 vtime=0.000102s]
    Sort(1 key(s)) [rows_in=10 rows_out=1 vtime=0.000111s]
      Project(movie_title, review, revenue) [rows_in=10 rows_out=10 vtime=0.000120s]
        Filter(where) [rows_in=20 rows_out=10 vtime=0.000130s]
          Scan(movies AS movies) [rows_in=0 rows_out=20 vtime=0.000120s]"""

SCHOOLS_SQL = (
    "SELECT s.County, COUNT(*) AS n FROM schools AS s "
    "JOIN satscores AS t ON s.CDSCode = t.cds "
    "GROUP BY s.County ORDER BY n DESC, s.County LIMIT 3"
)

SCHOOLS_GOLDEN = """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Sort(2 key(s)) [rows_in=24 rows_out=3 vtime=0.000127s]
    Project(County, n) [rows_in=24 rows_out=24 vtime=0.000148s]
      Aggregate(groups=1, calls=[COUNT]) [rows_in=150 rows_out=24 vtime=0.000274s]
        HashJoin(INNER, 1 key(s)) [rows_in=400 rows_out=150 vtime=0.000650s]
          Scan(schools AS s) [rows_in=0 rows_out=250 vtime=0.000350s]
          Scan(satscores AS t) [rows_in=0 rows_out=150 vtime=0.000250s]"""


@pytest.fixture(scope="module")
def movie_db():
    return movies.build().db


@pytest.fixture(scope="module")
def schools_db():
    return load_domain("california_schools", seed=0).db


class TestGoldenPlans:
    def test_romance_query_golden(self, movie_db):
        analyzed = movie_db.explain_analyze(ROMANCE_SQL)
        assert analyzed.render() == ROMANCE_GOLDEN

    def test_schools_join_aggregate_golden(self, schools_db):
        analyzed = schools_db.explain_analyze(SCHOOLS_SQL)
        assert analyzed.render() == SCHOOLS_GOLDEN

    def test_render_matches_sql_prefix_form(self, movie_db):
        """``EXPLAIN ANALYZE <q>`` via execute() is the same render."""
        result = movie_db.execute(f"EXPLAIN ANALYZE {ROMANCE_SQL}")
        assert result.columns == ["plan"]
        assert [row[0] for row in result.rows] == (
            ROMANCE_GOLDEN.splitlines()
        )

    def test_prefix_is_case_insensitive(self, movie_db):
        result = movie_db.execute(f"explain analyze {ROMANCE_SQL}")
        assert result.columns == ["plan"]


class TestAnalyzedQuery:
    def test_result_rows_match_plain_execution(self, movie_db):
        analyzed = movie_db.explain_analyze(ROMANCE_SQL)
        plain = movie_db.execute(ROMANCE_SQL)
        assert analyzed.result.columns == plain.columns
        assert analyzed.result.rows == plain.rows

    def test_rows_in_sums_children(self, schools_db):
        analyzed = schools_db.explain_analyze(SCHOOLS_SQL)
        for stats in analyzed.stats.walk():
            assert stats.rows_in == sum(
                child.rows_out for child in stats.children
            )

    def test_limit_early_exit_is_honest(self, movie_db):
        """A LIMIT that stops pulling shows up in child rows_out: the
        Sort fed the Limit only the rows it actually demanded."""
        analyzed = movie_db.explain_analyze(ROMANCE_SQL)
        limit = analyzed.stats
        assert limit.describe.startswith("Limit")
        assert limit.rows_out == 1
        [slice_stats] = limit.children
        assert slice_stats.rows_out < 10  # 10 romance rows exist

    def test_total_seconds_sums_exclusive_costs(self, movie_db):
        analyzed = movie_db.explain_analyze(ROMANCE_SQL)
        assert analyzed.total_seconds == pytest.approx(
            sum(
                analyzed.cost.seconds(stats)
                for stats in analyzed.stats.walk()
            )
        )
        assert analyzed.total_seconds > 0.0

    def test_deterministic_across_runs(self, schools_db):
        first = schools_db.explain_analyze(SCHOOLS_SQL).render()
        second = schools_db.explain_analyze(SCHOOLS_SQL).render()
        assert first == second

    def test_rejects_non_select(self, movie_db):
        with pytest.raises(PlanningError):
            movie_db.explain_analyze("DELETE FROM movies WHERE 1 = 1")


class TestInstrumentation:
    def test_instrument_plan_counts_without_changing_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t (x) VALUES (3), (1), (2)")
        from repro.db.planner import Planner
        from repro.db.sql.parser import parse_statement

        statement = parse_statement("SELECT x FROM t ORDER BY x")
        plan, names = Planner(db, db.functions).plan_select(statement)
        proxy, stats = instrument_plan(plan)
        rows = list(proxy.execute())
        assert rows == [(1,), (2,), (3,)]
        assert stats.rows_out == 3

    def test_custom_cost_model(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t (x) VALUES (1), (2)")
        analyzed = db.explain_analyze("SELECT x FROM t")
        expensive = OperatorCostModel(
            startup_s=1.0, per_row_in_s=0.0, per_row_out_s=0.0
        )
        rendered = render_stats(analyzed.stats, expensive)
        assert all(
            "vtime=1.000000s" in line for line in rendered.splitlines()
        )
