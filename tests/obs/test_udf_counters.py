"""Exact LM-UDF counters: Usage fields and per-node EXPLAIN stats.

These tests pin the full accounting contract of the batched UDF path
for a golden query: ``udf_cache_misses == lm_calls`` (each miss is a
dispatched invocation), ``udf_cache_hits`` counts row-occurrences
served without an invocation (intra-morsel dedup, statement memo, or
the cross-statement LRU), and every number is the same in the bound
:class:`~repro.lm.usage.Usage` and on the owning plan node's EXPLAIN
ANALYZE line.
"""

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import ExecutionError
from repro.lm import SimulatedLM, Usage, register_llm_judge

#: Duplicate-heavy golden data: 8 rows, 3 distinct judged values.
ROWS = [
    ("thriller", 1),
    ("comedy", 2),
    ("thriller", 3),
    ("romance", 4),
    ("comedy", 5),
    ("thriller", 6),
    ("romance", 7),
    ("comedy", 8),
]

GOLDEN_SQL = "SELECT s, SLOW(s) AS j FROM t WHERE SLOW(s) <> 'X' ORDER BY n"

GOLDEN_ANALYZE = """\
Slice([0, 1]) [rows_in=8 rows_out=8 vtime=0.000116s]
  Sort(1 key(s)) [rows_in=8 rows_out=8 vtime=0.000116s]
    BatchedProject(s, j, n, batch=4, sites=1) [rows_in=8 rows_out=8 vtime=0.000116s lm_calls=0 lm_batches=0 udf_cache_hits=8 udf_cache_misses=0]
      BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=8 rows_out=8 vtime=0.000116s lm_calls=3 lm_batches=1 udf_cache_hits=5 udf_cache_misses=3]
        Scan(t AS t) [rows_in=0 rows_out=8 vtime=0.000108s]
Optimizer:
  route: batched (caller-pinned udf_batch_size=4): est 6 LM calls / 336 tokens (per-row 16 calls / 896 tokens)"""


def build_database() -> tuple[Database, Usage]:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("s", DataType.TEXT),
                Column("n", DataType.INTEGER),
            ],
        )
    )
    db.insert("t", ROWS)
    usage = Usage()

    def scalar(value):
        return str(value).upper()

    def batch(tuples):
        return [str(value).upper() for (value,) in tuples]

    db.register_udf("SLOW", scalar, expensive=True, batch=batch)
    db.bind_udf_meters(usage=usage)
    return db, usage


class TestExactCounters:
    def test_golden_query_counter_contract(self):
        db, usage = build_database()
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        # 8 rows, 3 distinct values.  The filter's first morsel of 4
        # dispatches 3 distinct tuples (1 intra-morsel duplicate); the
        # second morsel of 4 is fully covered by the statement memo.
        # The projection reuses the same memo for all 8 occurrences.
        assert usage.udf_cache_misses == 3
        assert usage.udf_cache_hits == 13  # (1 + 4) filter + 8 project

    def test_second_statement_is_all_hits(self):
        db, usage = build_database()
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        misses_after_first = usage.udf_cache_misses
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        assert usage.udf_cache_misses == misses_after_first
        assert usage.udf_cache_hits == 13 + 16  # every occurrence hits

    def test_every_sink_agrees_across_statements(self):
        """Two executions and an EXPLAIN ANALYZE of the golden query:
        Usage holds their sum, the plan nodes the last statement's."""
        db, usage = build_database()
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        analyzed = db.explain_analyze(GOLDEN_SQL, udf_batch_size=4)
        assert usage.udf_cache_misses == 3
        assert usage.udf_cache_hits == 13 + 16 + 16
        assert usage.optimizer_decisions == 3
        # One decision per statement: the footer's single route line.
        footer = analyzed.render().split("Optimizer:\n")[1]
        assert footer == GOLDEN_ANALYZE.split("Optimizer:\n")[1]
        assert footer.count("\n") == 0
        assert [
            stats.extra
            for stats in analyzed.stats.walk()
            if stats.extra
        ] == [
            {
                "lm_calls": 0,
                "lm_batches": 0,
                "udf_cache_hits": 8,
                "udf_cache_misses": 0,
            }
        ] * 2

    def test_llm_judge_meters_model_usage(self):
        """The real LM UDF: lm_calls on Usage equals dispatched prompts,
        batches are paid once per morsel dispatch."""
        db = Database()
        db.create_table(TableSchema("t", [Column("s", DataType.TEXT)]))
        db.insert("t", [(s,) for s, _ in ROWS])
        lm = SimulatedLM()
        register_llm_judge(db, lm)
        result = db.execute(
            "SELECT s, LLM('a genre', s) FROM t", udf_batch_size=8
        )
        assert len(result.rows) == 8
        assert lm.usage.calls == 3  # one per distinct genre
        assert lm.usage.batches == 1  # one morsel covers the table
        assert lm.usage.udf_cache_misses == 3
        assert lm.usage.udf_cache_hits == 5

    def test_llm_judge_batched_matches_scalar_oracle(self):
        def run(udf_batch_size):
            db = Database()
            db.create_table(
                TableSchema("t", [Column("s", DataType.TEXT)])
            )
            db.insert("t", [(s,) for s, _ in ROWS])
            lm = SimulatedLM()
            register_llm_judge(db, lm)
            result = db.execute(
                "SELECT s, LLM('a genre', s) FROM t",
                udf_batch_size=udf_batch_size,
            )
            return result.rows, lm.usage.calls

        oracle_rows, oracle_calls = run(None)
        batched_rows, batched_calls = run(8)
        assert batched_rows == oracle_rows
        assert batched_calls < oracle_calls  # 3 distinct vs 8 per-row


class TestGoldenAnalyze:
    def test_golden_render_with_per_node_lm_stats(self):
        db, _ = build_database()
        analyzed = db.explain_analyze(GOLDEN_SQL, udf_batch_size=4)
        assert analyzed.render() == GOLDEN_ANALYZE

    def test_render_is_deterministic(self):
        first = build_database()[0]
        second = build_database()[0]
        assert first.explain_analyze(
            GOLDEN_SQL, udf_batch_size=4
        ).render() == second.explain_analyze(
            GOLDEN_SQL, udf_batch_size=4
        ).render()

    def test_per_node_stats_sum_to_usage(self):
        db, usage = build_database()
        analyzed = db.explain_analyze(GOLDEN_SQL, udf_batch_size=4)
        hits = sum(
            stats.extra.get("udf_cache_hits", 0)
            for stats in analyzed.stats.walk()
        )
        misses = sum(
            stats.extra.get("udf_cache_misses", 0)
            for stats in analyzed.stats.walk()
        )
        assert hits == usage.udf_cache_hits
        assert misses == usage.udf_cache_misses

    def test_per_row_pinned_plan_has_no_batched_stats(self):
        # udf_batch_size=None pins the per-row oracle path: no batched
        # operators, so no per-node LM counters — but the optimizer
        # still footers the (pinned) route decision.
        db, _ = build_database()
        analyzed = db.explain_analyze(GOLDEN_SQL, udf_batch_size=None)
        rendered = analyzed.render()
        assert "lm_calls" not in rendered
        assert "BatchedFilter" not in rendered
        assert "route: per-row (caller-pinned udf_batch_size=None)" in (
            rendered
        )

    def test_results_match_between_analyze_and_execute(self):
        db, _ = build_database()
        analyzed = db.explain_analyze(GOLDEN_SQL, udf_batch_size=4)
        plain = build_database()[0].execute(GOLDEN_SQL)
        assert analyzed.result.rows == plain.rows
        assert analyzed.result.columns == plain.columns


class TestUsageFields:
    def test_usage_udf_fields_default_zero(self):
        usage = Usage()
        assert usage.udf_cache_hits == 0
        assert usage.udf_cache_misses == 0

    def test_metrics_stay_silent_without_binding(self):
        db, usage = build_database()
        db.bind_udf_meters()  # unbinds: counters go nowhere now
        db.execute(GOLDEN_SQL, udf_batch_size=4)
        assert usage == Usage()

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_miss_count_is_batch_size_invariant(self, batch_size):
        """Misses = distinct tuples regardless of morsel geometry."""
        db, usage = build_database()
        db.execute(GOLDEN_SQL, udf_batch_size=batch_size)
        assert usage.udf_cache_misses == 3


# -- the statement-end sum ---------------------------------------------------

#: The UDF counters a statement adds to the bound Usage when it ends.
UDF_COUNTERS = (
    "udf_cache_hits",
    "udf_cache_misses",
    "cascade_cheap_hits",
    "cascade_escalations",
)

#: Fails at row 5, the first ``'v5'`` past the cheap conjunct.
FAILING_SQL = "SELECT n, SLOW(s) FROM t WHERE n < 30 AND SLOW(s) <> 'V0'"

#: The subquery's WHERE calls SLOW over the 26 rows its cheap conjuncts
#: keep: 6 distinct values, one miss each, 20 hits.
SUBQUERY_SQL = (
    "SELECT n, s FROM t WHERE n = "
    "(SELECT MAX(n) FROM t WHERE n < 30 AND s <> 'v5' AND SLOW(s) = 'V3')"
)


def failing_database(shards: int | None) -> tuple[Database, Usage]:
    """100 rows ``(n, 'v{n % 7}')``; SLOW has a batch form and raises
    on ``'v5'``; at ``shards`` hash partitions of ``n`` over 2 workers."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("n", DataType.INTEGER), Column("s", DataType.TEXT)],
        )
    )
    db.insert("t", [(n, f"v{n % 7}") for n in range(100)])

    def scalar(value):
        if value == "v5":
            raise ValueError("SLOW refuses v5")
        return str(value).upper()

    def batch(tuples):
        return [scalar(value) for (value,) in tuples]

    db.register_udf("SLOW", scalar, expensive=True, batch=batch)
    if shards is not None:
        db.set_partitioning("t", "n", shards)
        db.configure_sharding(workers=2)
    usage = Usage()
    db.bind_udf_meters(usage=usage)
    return db, usage


@pytest.fixture
def udf_adds(monkeypatch):
    """The amounts of each ``Usage.add`` that carries a UDF counter."""
    adds: list[dict] = []
    real = Usage.add

    def add(self, **amounts):
        if any(amounts.get(name) for name in UDF_COUNTERS):
            adds.append(amounts)
        return real(self, **amounts)

    monkeypatch.setattr(Usage, "add", add)
    return adds


class TestStatementEndSum:
    @pytest.mark.parametrize(
        "shards, hits, misses", [(None, 5, 7), (2, 20, 12)], ids=str
    )
    def test_a_failing_statement_counts_what_ran(
        self, udf_adds, shards, hits, misses
    ):
        db, usage = failing_database(shards)
        with pytest.raises(ExecutionError, match="SLOW refuses v5"):
            db.execute(FAILING_SQL, udf_batch_size=8)
        assert (usage.udf_cache_hits, usage.udf_cache_misses) == (
            hits,
            misses,
        )
        assert udf_adds == [
            {
                "udf_cache_hits": hits,
                "udf_cache_misses": misses,
                "cascade_cheap_hits": 0,
                "cascade_escalations": 0,
            }
        ]

    @pytest.mark.parametrize("shards", [None, 2], ids=str)
    def test_a_subquery_is_counted_once(self, udf_adds, shards):
        db, usage = failing_database(shards)
        result = db.execute(SUBQUERY_SQL, udf_batch_size=8)
        assert result.rows == [(24, "v3")]
        assert (usage.udf_cache_hits, usage.udf_cache_misses) == (20, 6)
        assert len(udf_adds) == 1
