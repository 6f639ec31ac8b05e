"""Golden renders and counter contracts for the morsel UDF operators.

One statement with the same expensive call in WHERE and in the SELECT
list, planned unsharded and over one and two shards at
``udf_batch_size=4``.  The full ``EXPLAIN`` and ``EXPLAIN ANALYZE``
texts are pinned — operator names, per-shard subtrees with their
``lm_calls/lm_batches/udf_cache_*`` counters, the optimizer footer —
together with a cascade (``cheap=``) variant, the first-failing-row
contract, and the ``Exchange`` node's merged totals, which its line
renders as the sum of the per-shard subtrees below it (an ``Exchange``
over no call sites renders none).  No LM host is configured,
so UDF shards run one after another and shard 0 claims every key: the
per-shard counters are a function of the data alone.

The last class pins what the shard contract does and does not promise
for a statement whose call sites share a memo key: rows and every
shared counter are invariant across shard and worker counts, and equal
to the unsharded plan only when no key is shared between sites.  Shards
read the UDF cache from a statement-start snapshot, so the SELECT site
cannot see what the WHERE site resolved in the same statement and
dispatches it again.
"""

import pytest

from repro.db import plan as physical
from repro.errors import ExecutionError
from repro.lm import Usage
from tests.db.test_sharding import (
    CELLS,
    INVARIANT_USAGE,
    CountingUDF,
    judged_rows,
    make_table,
    usage_fingerprint,
)

ROWS = [(i, f"v{i % 5}") for i in range(24)]

SQL = "SELECT n, SLOW(s) FROM t WHERE n > 3 AND SLOW(s) <> 'V1' ORDER BY n"

#: The rows of ``SQL`` on the per-row path: n > 3, every ``v1`` dropped.
EXPECTED_ROWS = [(i, f"V{i % 5}") for i in range(4, 24) if i % 5 != 1]


def build(shards=None, workers=2, cheap=False, fail_on=None):
    udf = CountingUDF(fail_on=fail_on)
    db = make_table(ROWS)
    tier = None
    if cheap:

        def tier(value):
            return str(value).upper() if value in ("v0", "v1") else None

    db.register_udf(
        "SLOW", udf.scalar, expensive=True, batch=udf.batch, cheap=tier
    )
    usage = Usage()
    db.bind_udf_meters(usage=usage)
    if shards is not None:
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=workers)
    return db, udf, usage


FOOTER = """\
Optimizer:
  route: batched (caller-pinned udf_batch_size=4): est 10 LM calls / 560 tokens (per-row 48 calls / 2688 tokens)
  predicate-reorder: 1 cheap conjunct(s) (est sel 0.333, rows 24 -> 8) before 1 expensive conjunct(s) @ 56 tok/call; written order kept among expensive conjuncts"""

CASCADE_FOOTER = """\
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 5 LM calls / 420 tokens (per-row 48 calls / 2688 tokens)
  cascade: cheap tier for SLOW: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  predicate-reorder: 1 cheap conjunct(s) (est sel 0.333, rows 24 -> 8) before 1 expensive conjunct(s) @ 56 tok/call; written order kept among expensive conjuncts"""

PLAN = {
    None: """\
Sort(1 key(s))
  BatchedProject(n, SLOW(s), batch=4, sites=1)
    BatchedFilter(where[expensive], batch=4, sites=1)
      Filter(where)
        Scan(t AS t)
""" + FOOTER,
    1: """\
Sort(1 key(s))
  Merge
    Exchange(shards=1)
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1)
        ShardBatchedFilter(where[expensive], batch=4, sites=1)
          ShardFilter(where)
            ShardScan(t AS t, hash(n) % 1, shard=0)
""" + FOOTER + """
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    2: """\
Sort(1 key(s))
  Merge
    Exchange(shards=2)
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1)
        ShardBatchedFilter(where[expensive], batch=4, sites=1)
          ShardFilter(where)
            ShardScan(t AS t, hash(n) % 2, shard=0)
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1)
        ShardBatchedFilter(where[expensive], batch=4, sites=1)
          ShardFilter(where)
            ShardScan(t AS t, hash(n) % 2, shard=1)
""" + FOOTER + """
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
}

ANALYZED = {
    None: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  BatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=0 lm_batches=0 udf_cache_hits=16 udf_cache_misses=0]
    BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=20 rows_out=16 vtime=0.000136s lm_calls=5 lm_batches=2 udf_cache_hits=15 udf_cache_misses=5]
      Filter(where) [rows_in=24 rows_out=20 vtime=0.000144s]
        Scan(t AS t) [rows_in=0 rows_out=24 vtime=0.000124s]
""" + FOOTER,
    1: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  Merge [rows_in=16 rows_out=16 vtime=0.000132s]
    Exchange(shards=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=9 lm_batches=3 udf_cache_hits=27 udf_cache_misses=9]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=4 lm_batches=1 udf_cache_hits=12 udf_cache_misses=4]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=20 rows_out=16 vtime=0.000136s lm_calls=5 lm_batches=2 udf_cache_hits=15 udf_cache_misses=5]
          ShardFilter(where) [rows_in=24 rows_out=20 vtime=0.000144s]
            ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=24 vtime=0.000124s]
""" + FOOTER + """
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    2: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  Merge [rows_in=16 rows_out=16 vtime=0.000132s]
    Exchange(shards=2) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=9 lm_batches=3 udf_cache_hits=27 udf_cache_misses=9]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=9 rows_out=9 vtime=0.000118s lm_calls=4 lm_batches=1 udf_cache_hits=5 udf_cache_misses=4]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=10 rows_out=9 vtime=0.000119s lm_calls=5 lm_batches=2 udf_cache_hits=5 udf_cache_misses=5]
          ShardFilter(where) [rows_in=12 rows_out=10 vtime=0.000122s]
            ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=7 rows_out=7 vtime=0.000114s lm_calls=0 lm_batches=0 udf_cache_hits=7 udf_cache_misses=0]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=10 rows_out=7 vtime=0.000117s lm_calls=0 lm_batches=0 udf_cache_hits=10 udf_cache_misses=0]
          ShardFilter(where) [rows_in=12 rows_out=10 vtime=0.000122s]
            ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=12 vtime=0.000112s]
""" + FOOTER + """
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
}

CASCADE_ANALYZED = {
    None: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  BatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=0 lm_batches=0 udf_cache_hits=16 udf_cache_misses=0 cascade_cheap_hits=0 cascade_escalations=0]
    BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=20 rows_out=16 vtime=0.000136s lm_calls=3 lm_batches=2 udf_cache_hits=15 udf_cache_misses=3 cascade_cheap_hits=2 cascade_escalations=3]
      Filter(where) [rows_in=24 rows_out=20 vtime=0.000144s]
        Scan(t AS t) [rows_in=0 rows_out=24 vtime=0.000124s]
""" + CASCADE_FOOTER,
    1: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  Merge [rows_in=16 rows_out=16 vtime=0.000132s]
    Exchange(shards=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=6 lm_batches=3 udf_cache_hits=27 udf_cache_misses=6 cascade_cheap_hits=3 cascade_escalations=6]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=3 lm_batches=1 udf_cache_hits=12 udf_cache_misses=3 cascade_cheap_hits=1 cascade_escalations=3]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=20 rows_out=16 vtime=0.000136s lm_calls=3 lm_batches=2 udf_cache_hits=15 udf_cache_misses=3 cascade_cheap_hits=2 cascade_escalations=3]
          ShardFilter(where) [rows_in=24 rows_out=20 vtime=0.000144s]
            ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=24 vtime=0.000124s]
""" + CASCADE_FOOTER + """
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    2: """\
Sort(1 key(s)) [rows_in=16 rows_out=16 vtime=0.000132s]
  Merge [rows_in=16 rows_out=16 vtime=0.000132s]
    Exchange(shards=2) [rows_in=16 rows_out=16 vtime=0.000132s lm_calls=6 lm_batches=2 udf_cache_hits=27 udf_cache_misses=6 cascade_cheap_hits=3 cascade_escalations=6]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=9 rows_out=9 vtime=0.000118s lm_calls=3 lm_batches=1 udf_cache_hits=5 udf_cache_misses=3 cascade_cheap_hits=1 cascade_escalations=3]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=10 rows_out=9 vtime=0.000119s lm_calls=3 lm_batches=1 udf_cache_hits=5 udf_cache_misses=3 cascade_cheap_hits=2 cascade_escalations=3]
          ShardFilter(where) [rows_in=12 rows_out=10 vtime=0.000122s]
            ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
      ShardBatchedProject(n, SLOW(s), batch=4, sites=1) [rows_in=7 rows_out=7 vtime=0.000114s lm_calls=0 lm_batches=0 udf_cache_hits=7 udf_cache_misses=0 cascade_cheap_hits=0 cascade_escalations=0]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=10 rows_out=7 vtime=0.000117s lm_calls=0 lm_batches=0 udf_cache_hits=10 udf_cache_misses=0 cascade_cheap_hits=0 cascade_escalations=0]
          ShardFilter(where) [rows_in=12 rows_out=10 vtime=0.000122s]
            ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=12 vtime=0.000112s]
""" + CASCADE_FOOTER + """
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
}


@pytest.mark.parametrize("shards", [None, 1, 2])
class TestGoldenRenders:
    def test_explain(self, shards):
        db, _, _ = build(shards)
        assert db.explain(SQL, udf_batch_size=4) == PLAN[shards]

    def test_explain_analyze(self, shards):
        db, _, _ = build(shards)
        analyzed = db.explain_analyze(SQL, udf_batch_size=4)
        assert analyzed.render() == ANALYZED[shards]
        assert analyzed.result.rows == EXPECTED_ROWS

    def test_cascade_explain_analyze(self, shards):
        db, _, _ = build(shards, cheap=True)
        analyzed = db.explain_analyze(SQL, udf_batch_size=4)
        assert analyzed.render() == CASCADE_ANALYZED[shards]
        assert analyzed.result.rows == EXPECTED_ROWS


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("cheap", [False, True])
def test_exchange_line_is_the_sum_of_its_shard_subtrees(shards, cheap):
    db, _, _ = build(shards, cheap=cheap)
    analyzed = db.explain_analyze(SQL, udf_batch_size=4)
    (exchange,) = [
        node
        for node in analyzed.stats.walk()
        if node.describe.startswith("Exchange")
    ]
    totals: dict[str, int] = {}
    for pipeline in exchange.children:
        for node in pipeline.walk():
            for key, amount in node.extra.items():
                totals[key] = totals.get(key, 0) + amount
    assert exchange.extra == totals
    assert exchange.extra["lm_calls"] > 0


def test_exchange_over_no_call_sites_renders_no_counters():
    db, _, _ = build(shards=2)
    analyzed = db.explain_analyze("SELECT n FROM t WHERE n > 3")
    lines = analyzed.render().splitlines()
    assert any(line.lstrip().startswith("Exchange(") for line in lines)
    assert all(line.endswith("s]") for line in lines if "[" in line)


def run_to_failure(sql, shards):
    """Rows streamed before the statement fails, and the failure."""
    db, _, _ = build(shards, fail_on="v3")
    plan, _, _ = db._planned(sql, "EXPLAIN", False, True, 4, None)
    rows = []
    with pytest.raises(ExecutionError) as caught:
        for row in plan.execute():
            rows.append(row)
    return rows, str(caught.value)


@pytest.mark.parametrize("shards", [None, 1, 2, 8])
def test_first_failing_row_is_the_same_at_any_shard_count(shards):
    # Row 8 is the first row past n > 3 that carries 'v3'.  Under the
    # filter alone the rows ahead of it stream out first; a morsel
    # projection above fails while its first morsel is still filling.
    message = "error in function SLOW: cannot judge 'v3'"
    where_only = "SELECT n FROM t WHERE n > 3 AND SLOW(s) <> 'V1'"
    assert run_to_failure(where_only, shards) == (
        [(4,), (5,), (7,)],
        message,
    )
    assert run_to_failure(SQL, shards) == ([], message)


def exchange_totals(db):
    """Execute ``SQL`` off its plan; rows plus the Exchange's counters."""
    plan, _, _ = db._planned(SQL, "EXPLAIN", False, True, 4, None)
    rows = list(plan.execute())
    node = plan
    while not isinstance(node, physical.Exchange):
        node = node.child
    return rows, dict(node.exec_stats)


class TestCrossSiteGap:
    def test_counters_invariant_across_cells_not_equal_to_unsharded(self):
        oracle, oracle_udf, _ = build()
        assert oracle.execute(SQL, udf_batch_size=None).rows == EXPECTED_ROWS
        assert oracle_udf.batch_tuples == 0  # per-row path: scalar calls
        unsharded, udf, usage = build()
        assert unsharded.execute(SQL, udf_batch_size=4).rows == EXPECTED_ROWS
        assert (udf.batch_tuples, usage.udf_cache_misses) == (5, 5)
        seen = set()
        for shards, workers in CELLS:
            db, udf, usage = build(shards, workers)
            rows, totals = exchange_totals(db)
            assert rows == EXPECTED_ROWS, (shards, workers)
            # 5 distinct values under WHERE; the four that survive it
            # are dispatched again under SELECT.
            assert udf.batch_tuples == 9, (shards, workers)
            # Morsel composition, hence the batch count, is what the
            # shard count changes (3 at one or two shards, 5 at eight).
            assert totals.pop("lm_batches") in (3, 5), (shards, workers)
            assert totals == {
                "lm_calls": 9,
                "udf_cache_hits": 27,
                "udf_cache_misses": 9,
            }, (shards, workers)
            seen.add(tuple(usage_fingerprint(usage).items()))
        assert len(seen) == 1

    def test_lm_judge_stack(self):
        rows = [(i, f"review number {i % 5}") for i in range(24)]
        sql = (
            "SELECT n, LLM('a positive review', s) AS judged FROM t "
            "WHERE n > 3 AND LLM('a positive review', s) = 'yes' ORDER BY n"
        )
        oracle_rows, _ = judged_rows(rows, None, None, sql, None)
        unsharded_rows, unsharded = judged_rows(rows, None, None, sql, 4)
        assert unsharded_rows == oracle_rows
        cells = [judged_rows(rows, *cell, sql, 4) for cell in CELLS]
        for got_rows, got_usage in cells:
            assert got_rows == oracle_rows
            assert got_usage == cells[0][1]
        assert set(cells[0][1]) == set(INVARIANT_USAGE)
        assert cells[0][1]["calls"] >= unsharded["calls"]
        assert (unsharded["calls"], cells[0][1]["calls"]) == (5, 7)
