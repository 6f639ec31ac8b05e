"""``LIMIT n`` reads no row past its last kept one, and nothing under
it reads ahead.

A row read past the limit runs every operator below it for nothing:
a UDF in ``WHERE`` is called once more, EXPLAIN ANALYZE counts one more
row into the ``Limit``, and a batched expensive UDF resolves one more
morsel of LM calls.  ``LIMIT 0`` still reads one row, so a ``Sort``
below it evaluates every input row (``test_top_n``).

The operators that read a morsel at a time (a literal ``Filter``, an
inner ``HashJoin`` probe) read row by row under a row limit, up to the
first operator that drains its input: the counts and EXPLAIN ANALYZE
rows below are the row-at-a-time engine's.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.lm import SimulatedLM, register_llm_judge
from repro.serve import BatchingLM


class Spy:
    """A UDF that counts its calls; a batch form counts tuples sent."""

    def __init__(self) -> None:
        self.calls = 0

    def scalar(self, value):
        self.calls += 1
        return value

    def batch(self, tuples):
        self.calls += len(tuples)
        return [value for (value,) in tuples]


def make(rows: int = 10) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("id", DataType.INTEGER), Column("n", DataType.INTEGER)],
        )
    )
    db.insert("t", [(index, index % 7) for index in range(rows)])
    return db


def limit_line(rendered: str) -> str:
    return next(
        line for line in rendered.splitlines() if line.startswith("Limit(")
    )


def test_a_cheap_udf_under_limit_runs_once_per_row_kept():
    db = make()
    spy = Spy()
    db.register_udf("SPY", spy.scalar)
    sql = "SELECT id FROM t WHERE SPY(n) >= 0 LIMIT 2"
    assert db.execute(sql).rows == [(0,), (1,)]
    assert spy.calls == 2
    spy.calls = 0
    assert db.execute(f"{sql} OFFSET 3").rows == [(3,), (4,)]
    assert spy.calls == 5


def test_explain_analyze_counts_only_the_rows_kept_into_the_limit():
    db = make()
    db.register_udf("SPY", Spy().scalar)
    rendered = db.explain_analyze(
        "SELECT id FROM t WHERE SPY(n) >= 0 LIMIT 2"
    ).render()
    assert limit_line(rendered).startswith(
        "Limit(2, offset=0) [rows_in=2 rows_out=2 "
    )


def test_a_batched_expensive_udf_under_limit_resolves_one_morsel():
    db = make()
    spy = Spy()
    db.register_udf("SLOW", spy.scalar, expensive=True, batch=spy.batch)
    sql = "SELECT id FROM t WHERE SLOW(id) >= 0 LIMIT 2"
    assert db.execute(sql, udf_batch_size=2).rows == [(0,), (1,)]
    assert spy.calls == 2
    db = make()  # a fresh UDF cache: the statement's calls are all misses
    db.register_udf("SLOW", spy.scalar, expensive=True, batch=spy.batch)
    rendered = db.explain_analyze(sql, udf_batch_size=2).render()
    assert "lm_calls=2 lm_batches=1" in rendered
    assert limit_line(rendered).startswith(
        "Limit(2, offset=0) [rows_in=2 rows_out=2 "
    )


def test_limit_zero_still_reads_one_row():
    db = make()
    spy = Spy()
    db.register_udf("SPY", spy.scalar)
    assert db.execute("SELECT id FROM t WHERE SPY(n) >= 0 LIMIT 0").rows == []
    assert spy.calls == 1
    spy.calls = 0
    db.execute("SELECT id FROM t WHERE SPY(n) >= 0 LIMIT 0 OFFSET 4")
    assert spy.calls == 5


# ---------------------------------------------------------------------------
# The pull-ahead guard: under a LIMIT, nothing reads a morsel ahead
# ---------------------------------------------------------------------------

M = getattr(physical, "MORSEL_SIZE", 2048)


def make_reviews() -> Database:
    """``t``: more than two morsels of rows; ``u``: a three-row key
    table for joins."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER),
                Column("n", DataType.INTEGER),
                Column("s", DataType.TEXT),
            ],
        )
    )
    db.insert(
        "t",
        [
            (i, i % 10, f"review {i % 13} is {'great' if i % 3 else 'awful'}")
            for i in range(2 * M + 5)
        ],
    )
    db.create_table(
        TableSchema(
            "u", [Column("k", DataType.INTEGER), Column("label", DataType.TEXT)]
        )
    )
    db.insert("u", [(k, f"k{k}") for k in (9, 8, 9)])
    return db


#: ``(statement, udf_batch_size, EXPLAIN ANALYZE render, rows, SPY
#: calls, LM calls)`` as the row-at-a-time engine reads them: every
#: node under the Limit reads only as far as the rows kept need.
GUARDED = [
    (
        "SELECT id FROM t WHERE n > 7 LIMIT 3",
        None,
        """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Project(id) [rows_in=3 rows_out=3 vtime=0.000106s]
    Filter(where) [rows_in=19 rows_out=3 vtime=0.000122s]
      Scan(t AS t) [rows_in=0 rows_out=19 vtime=0.000119s]""",
        [(8,), (9,), (18,)],
        0,
        0,
    ),
    (
        "SELECT id FROM t WHERE LLM('positive', s) = 'yes' AND n > 7 LIMIT 3",
        4,
        """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Project(id) [rows_in=3 rows_out=3 vtime=0.000106s]
    BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=12 rows_out=3 vtime=0.000115s lm_calls=10 lm_batches=3 udf_cache_hits=2 udf_cache_misses=10]
      Filter(where) [rows_in=60 rows_out=12 vtime=0.000172s]
        Scan(t AS t) [rows_in=0 rows_out=60 vtime=0.000160s]""",
        [(9,), (38,), (48,)],
        0,
        10,
    ),
    (
        "SELECT id FROM (SELECT id, n FROM t WHERE LLM('positive', s) = "
        "'yes') AS d WHERE n > 7 LIMIT 3",
        4,
        """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Project(id) [rows_in=3 rows_out=3 vtime=0.000106s]
    Filter(where) [rows_in=8 rows_out=3 vtime=0.000111s]
      Slice([0, 1]) [rows_in=8 rows_out=8 vtime=0.000116s]
        Project(id, n) [rows_in=8 rows_out=8 vtime=0.000116s]
          BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=52 rows_out=8 vtime=0.000160s lm_calls=26 lm_batches=10 udf_cache_hits=26 udf_cache_misses=26]
            Scan(t AS t) [rows_in=0 rows_out=52 vtime=0.000152s]""",
        [(9,), (38,), (48,)],
        0,
        26,
    ),
    (
        "SELECT SPY(id) FROM t WHERE n > 7 LIMIT 3",
        None,
        """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Project(SPY(id)) [rows_in=3 rows_out=3 vtime=0.000106s]
    Filter(where) [rows_in=19 rows_out=3 vtime=0.000122s]
      Scan(t AS t) [rows_in=0 rows_out=19 vtime=0.000119s]""",
        [(8,), (9,), (18,)],
        3,
        0,
    ),
    (
        "SELECT t.id, u.label FROM t JOIN u ON t.n = u.k LIMIT 3",
        None,
        """\
Limit(3, offset=0) [rows_in=3 rows_out=3 vtime=0.000106s]
  Project(id, label) [rows_in=3 rows_out=3 vtime=0.000106s]
    HashJoin(INNER, 1 key(s)) [rows_in=13 rows_out=3 vtime=0.000116s]
      Scan(t AS t) [rows_in=0 rows_out=10 vtime=0.000110s]
      Scan(u AS u) [rows_in=0 rows_out=3 vtime=0.000103s]""",
        [(8, "k8"), (9, "k9"), (9, "k9")],
        0,
        0,
    ),
    (
        # An Aggregate drains its input: below it, reading ahead is free.
        "SELECT n, COUNT(*) FROM t WHERE n > 2 GROUP BY n LIMIT 2",
        None,
        """\
Limit(2, offset=0) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, COUNT(*)) [rows_in=2 rows_out=2 vtime=0.000104s]
    Aggregate(groups=1, calls=[COUNT]) [rows_in=2870 rows_out=2 vtime=0.002972s]
      Filter(where) [rows_in=4101 rows_out=2870 vtime=0.007071s]
        Scan(t AS t) [rows_in=0 rows_out=4101 vtime=0.004201s]""",
        [(3, 410), (4, 410)],
        0,
        0,
    ),
]


@pytest.mark.parametrize(
    "sql, batch, rendered, rows, spied, lm_calls",
    GUARDED,
    ids=[case[0] for case in GUARDED],
)
def test_nothing_under_a_limit_reads_ahead(
    sql, batch, rendered, rows, spied, lm_calls
):
    for explain in (True, False):
        db = make_reviews()
        lm = SimulatedLM()
        register_llm_judge(db, lm)
        spy = Spy()
        db.register_udf("SPY", spy.scalar)
        if explain:
            analyzed = db.explain_analyze(sql, udf_batch_size=batch)
            assert analyzed.render().split("\nOptimizer:")[0] == rendered
            got = analyzed.result.rows
        else:
            got = db.execute(sql, udf_batch_size=batch).rows
        assert got == rows
        assert (spy.calls, lm.usage.calls) == (spied, lm_calls)


SHARDED_SQL = (
    "SELECT n, COUNT(*), SUM(id), MAX(s) FROM t "
    "WHERE n > 2 AND LLM('positive', s) = 'yes' "
    "GROUP BY n ORDER BY n DESC LIMIT 3"
)


def sharded_run(shards: int) -> tuple[str, str, dict]:
    db = make_reviews()
    lm = BatchingLM(SimulatedLM())
    register_llm_judge(db, lm)
    db.set_partitioning("t", "n", shards=shards)
    db.configure_sharding(workers=2, lm=lm)
    analyzed = db.explain_analyze(SHARDED_SQL, udf_batch_size=8)
    # The nodes above the exchange: below it, the pipelines are per shard.
    rendered = analyzed.render().split("\n          Exchange(shards=")[0]
    usage = {
        name: getattr(lm.usage, name)
        for name in ("calls", "prompt_tokens", "udf_cache_misses")
    }
    return repr(analyzed.result.rows), rendered, usage


def test_a_sharded_statement_is_byte_identical_at_any_shard_count():
    runs = [sharded_run(shards) for shards in (1, 2, 8)]
    assert runs[0][1].endswith("Merge [rows_in=515 rows_out=515 vtime=0.001130s]")
    assert runs[0] == runs[1] == runs[2]
