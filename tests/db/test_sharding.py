"""Sharded parallel execution: equivalence, pruning, and determinism.

The unsharded plan is the correctness oracle; the exchange path must
produce identical rows, identical order and identical error behaviour
for every shard count and worker count.  Its *shared counters* are the
same in every (shards, workers) cell, and equal the unsharded plan's
for a statement whose expensive call has one site.  The invariance
contract covers ``calls``, token counters, and all cache counters —
but deliberately not ``batches`` or ``simulated_seconds``: coalescing
concurrent shards' morsels into bigger flush batches is the speedup,
so those two vary (deterministically) per (shards, workers) cell.  A
call repeated at two sites (WHERE and the select list) is dispatched
once per site under shards, against once unsharded; that gap is pinned
in ``tests/obs/test_morsel_explain.py::TestCrossSiteGap``.  See
DESIGN.md §16.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, PartitionSpec, TableSchema
from repro.errors import ExecutionError, SchemaError
from repro.lm.model import SimulatedLM
from repro.lm.udf import register_llm_judge
from repro.lm.usage import Usage
from repro.obs import racecheck
from repro.obs.racecheck import RaceChecker
from repro.serve.batching import BatchingLM

CELLS = [(1, 1), (1, 4), (2, 1), (2, 4), (8, 1), (8, 4)]

UDF_SQL = "SELECT s, LLM('a positive review', s) AS judged FROM t ORDER BY n"

#: Usage fields the exchange must keep byte-identical at any shard and
#: worker count.  ``batches`` / ``simulated_seconds`` are excluded on
#: purpose — batch composition is what sharding changes.
INVARIANT_USAGE = (
    "calls",
    "prompt_tokens",
    "output_tokens",
    "cache_hits",
    "cache_misses",
    "udf_cache_hits",
    "udf_cache_misses",
)


def usage_fingerprint(usage) -> dict:
    return {name: getattr(usage, name) for name in INVARIANT_USAGE}


def make_table(rows) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("n", DataType.INTEGER),
                Column("s", DataType.TEXT),
            ],
        )
    )
    if rows:
        db.insert("t", rows)
    return db


def judged_rows(rows, shards, workers, sql=UDF_SQL, udf_batch_size=8):
    """One execution through the LM-judge stack; returns rows + usage."""
    db = make_table(rows)
    lm = BatchingLM(SimulatedLM())
    register_llm_judge(db, lm)
    if shards is not None:
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=workers, lm=lm)
    result = db.execute(sql, udf_batch_size=udf_batch_size)
    return result.rows, usage_fingerprint(lm.usage)


class CountingUDF:
    """Deterministic expensive UDF with scalar and batch forms."""

    def __init__(self, fail_on=None):
        self.batch_calls = 0
        self.batch_tuples = 0
        self.fail_on = fail_on

    def _judge(self, value):
        if value is None:
            return None
        if self.fail_on is not None and value == self.fail_on:
            raise ValueError(f"cannot judge {value!r}")
        return str(value).upper()

    def scalar(self, value):
        return self._judge(value)

    def batch(self, tuples):
        self.batch_calls += 1
        self.batch_tuples += len(tuples)
        return [self._judge(value) for (value,) in tuples]


def make_udf_db(rows, udf) -> Database:
    db = make_table(rows)
    db.register_udf("SLOW", udf.scalar, expensive=True, batch=udf.batch)
    return db


ROWS = [(i, f"value {i % 7}") for i in range(40)]


class TestPartitionSpec:
    def test_hash_is_stable_and_in_range(self):
        spec = PartitionSpec.hashed("k", 8)
        for value in ("a", "b", 3, 2.5, "a"):
            shard = spec.shard_of(value)
            assert 0 <= shard < 8
            assert shard == spec.shard_of(value)

    def test_hash_shard_of_on_a_fixed_sample(self):
        # The crc32 mapping is what stored rows were partitioned by: a
        # change to it moves rows between shards, so it is pinned.
        keys = [
            0, 1, 7, -3, 2**53 + 1, 1.0, 2.5, -0.5, True, False,
            "", "a", "value 3", "Sepang International Circuit", "ünïcode",
        ]
        expected = {
            2: [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1],
            4: [1, 0, 0, 3, 2, 0, 3, 0, 0, 1, 0, 1, 0, 0, 1],
            8: [1, 4, 0, 7, 2, 4, 7, 4, 4, 1, 4, 1, 0, 0, 5],
        }
        for shards, shard_ids in expected.items():
            spec = PartitionSpec.hashed("k", shards)
            assert [spec.shard_of(key) for key in keys] == shard_ids
            assert spec.describe() == f"hash(k) % {shards}"

    def test_hash_is_type_canonical(self):
        # 1 and 1.0 compare equal in SQL; they must co-locate.
        spec = PartitionSpec.hashed("k", 8)
        assert spec.shard_of(1) == spec.shard_of(1.0)

    def test_null_lands_on_shard_zero(self):
        assert PartitionSpec.hashed("k", 8).shard_of(None) == 0

    def test_shards_must_be_positive(self):
        with pytest.raises(SchemaError):
            PartitionSpec.hashed("k", 0)

    def test_describe(self):
        assert PartitionSpec.hashed("n", 4).describe() == "hash(n) % 4"

    def test_catalog_validation(self):
        db = make_table([])
        with pytest.raises(SchemaError):
            db.set_partitioning("t", "n", shards=0)
        with pytest.raises(SchemaError):
            db.configure_sharding(workers=0)


class TestRelationalEquivalence:
    QUERIES = [
        "SELECT n, s FROM t",
        "SELECT n, s FROM t WHERE n > 10 ORDER BY s, n",
        "SELECT s, COUNT(*) AS c FROM t GROUP BY s ORDER BY c DESC, s",
        "SELECT n FROM t WHERE s <> 'value 3' ORDER BY n DESC LIMIT 5",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_hash_sharded_rows_match_oracle(self, sql):
        oracle = make_table(ROWS).execute(sql)
        for shards, workers in CELLS:
            db = make_table(ROWS)
            db.set_partitioning("t", "n", shards=shards)
            db.configure_sharding(workers=workers)
            result = db.execute(sql)
            assert result.rows == oracle.rows
            assert result.columns == oracle.columns

    def test_unordered_scan_preserves_global_scan_order(self):
        # No ORDER BY: the merge's tag order IS the insertion order.
        oracle = make_table(ROWS).execute("SELECT n FROM t WHERE n >= 0")
        db = make_table(ROWS)
        db.set_partitioning("t", "n", shards=8)
        db.configure_sharding(workers=4)
        sharded = db.execute("SELECT n FROM t WHERE n >= 0")
        assert sharded.rows == oracle.rows


class TestUDFEquivalence:
    def test_rows_and_counters_invariant_across_cells(self):
        rows = [(i, f"review number {i % 11}") for i in range(40)]
        oracle_rows, oracle_usage = judged_rows(rows, None, None)
        for shards, workers in CELLS:
            got_rows, got_usage = judged_rows(rows, shards, workers)
            assert got_rows == oracle_rows, (shards, workers)
            assert got_usage == oracle_usage, (shards, workers)

    def test_repeated_cells_are_exactly_deterministic(self):
        rows = [(i, f"review number {i % 5}") for i in range(24)]
        for shards, workers in ((2, 4), (8, 4)):
            runs = [judged_rows(rows, shards, workers) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]

    def test_cross_shard_duplicates_dispatch_once(self):
        # 40 rows, 4 distinct values scattered over 8 shards: the
        # cross-shard dedup must keep dispatches at the distinct count.
        rows = [(i, f"dup {i % 4}") for i in range(40)]
        udf = CountingUDF()
        db = make_udf_db(rows, udf)
        db.set_partitioning("t", "n", shards=8)
        db.configure_sharding(workers=4)
        result = db.execute("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert udf.batch_tuples == 4
        assert result.rows == [(f"DUP {i % 4}",) for i in range(40)]

    def test_memo_carries_across_statements(self):
        rows = [(i, f"memo {i % 6}") for i in range(30)]
        udf = CountingUDF()
        db = make_udf_db(rows, udf)
        db.set_partitioning("t", "n", shards=8)
        db.configure_sharding(workers=4)
        first = db.execute("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert udf.batch_tuples == 6
        second = db.execute("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert udf.batch_tuples == 6  # fully memoized, zero dispatches
        assert first.rows == second.rows

    def test_where_expensive_plans_sharded_batched_filter(self):
        udf = CountingUDF()
        db = make_udf_db(ROWS, udf)
        db.set_partitioning("t", "n", shards=4)
        rendered = db.explain(
            "SELECT n FROM t WHERE SLOW(s) = 'VALUE 1'", udf_batch_size=8
        )
        assert "Exchange(shards=4)" in rendered
        assert "ShardBatchedFilter" in rendered

    def test_projection_plans_sharded_batched_project(self):
        udf = CountingUDF()
        db = make_udf_db(ROWS, udf)
        db.set_partitioning("t", "n", shards=4)
        rendered = db.explain("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert "Exchange(shards=4)" in rendered
        assert "ShardBatchedProject" in rendered


class TestPruning:
    def _partitioned(self, rows=ROWS, shards=4):
        db = make_table(rows)
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=4)
        return db

    def test_equality_prunes_to_one_shard(self):
        db = self._partitioned()
        rendered = db.explain("SELECT s FROM t WHERE n = 7")
        assert "Exchange(shards=1)" in rendered
        assert "shard-pruning: partition-key predicate pruned 3 of 4 shard(s)" in rendered
        assert db.execute("SELECT s FROM t WHERE n = 7").rows == [
            ("value 0",)
        ]

    def test_in_list_prunes_to_member_shards(self):
        db = self._partitioned()
        spec = db.table("t").partition_spec
        survivors = {spec.shard_of(v) for v in (3, 7, 11)}
        rendered = db.explain("SELECT s FROM t WHERE n IN (3, 7, 11)")
        assert f"Exchange(shards={len(survivors)})" in rendered
        oracle = make_table(ROWS).execute(
            "SELECT s FROM t WHERE n IN (3, 7, 11)"
        )
        assert (
            db.execute("SELECT s FROM t WHERE n IN (3, 7, 11)").rows
            == oracle.rows
        )

    def test_pruned_counter_is_metered(self):
        db = self._partitioned()
        usage = Usage()
        db.bind_udf_meters(usage=usage)
        db.execute("SELECT s FROM t WHERE n = 7")
        # The pruning is one of the metered decisions, and the footer
        # line that records it carries the shard count.
        decisions = usage.optimizer_decisions
        rendered = db.explain("SELECT s FROM t WHERE n = 7")
        lines = rendered[rendered.index("Optimizer:") :].splitlines()[1:]
        assert len(lines) == decisions
        assert (
            "  shard-pruning: partition-key predicate pruned 3 of 4 shard(s)"
            in lines
        )

    def test_null_equality_prunes_everything(self):
        # `n = NULL` matches no row: every shard is pruned and the
        # plan collapses to an empty Values node.
        db = self._partitioned()
        rendered = db.explain("SELECT s FROM t WHERE n = NULL")
        assert "Exchange" not in rendered
        assert "pruned 4 of 4 shard(s)" in rendered
        assert db.execute("SELECT s FROM t WHERE n = NULL").rows == []

    def test_uncoercible_literal_disables_pruning(self):
        db = self._partitioned()
        rendered = db.explain("SELECT s FROM t WHERE n = 'not a number'")
        assert "shard-pruning" not in rendered
        assert "Exchange(shards=4)" in rendered

    def test_a_coercion_bug_is_not_read_as_an_uncoercible_literal(
        self, monkeypatch
    ):
        db = self._partitioned()

        def broken(value, dtype):
            raise TypeError("a bug, not a SchemaError")

        monkeypatch.setattr("repro.db.types.coerce", broken)
        with pytest.raises(TypeError, match="a bug"):
            db.explain("SELECT s FROM t WHERE n = 7")

    def test_non_key_predicate_does_not_prune(self):
        db = self._partitioned()
        rendered = db.explain("SELECT n FROM t WHERE s = 'value 1'")
        assert "shard-pruning" not in rendered
        assert "Exchange(shards=4)" in rendered

    def test_pruning_decision_count_is_shard_invariant(self):
        # The pruning decision is emitted whenever the predicate is
        # prunable — even when it eliminates zero shards — so the
        # optimizer decision count never depends on the shard count.
        for shards in (1, 2, 8):
            db = self._partitioned(shards=shards)
            rendered = db.explain("SELECT s FROM t WHERE n = 7")
            assert "shard-pruning" in rendered


class TestDeclineRules:
    def _partitioned_udf(self):
        udf = CountingUDF()
        db = make_udf_db(ROWS, udf)
        db.set_partitioning("t", "n", shards=4)
        db.configure_sharding(workers=4)
        return db

    def test_subquery_declines(self):
        db = self._partitioned_udf()
        rendered = db.explain(
            "SELECT s FROM t WHERE n IN (SELECT n FROM t WHERE n > 5)"
        )
        assert "Exchange" not in rendered
        assert "shard-declined: t: statement contains a subquery" in rendered

    def test_limit_without_order_by_declines(self):
        db = self._partitioned_udf()
        rendered = db.explain("SELECT s FROM t WHERE n > 3 LIMIT 2")
        assert "Exchange" not in rendered
        assert "LIMIT without ORDER BY streams a prefix" in rendered

    def test_limit_with_order_by_shards(self):
        db = self._partitioned_udf()
        rendered = db.explain(
            "SELECT s FROM t WHERE n > 3 ORDER BY n LIMIT 2"
        )
        assert "Exchange(shards=4)" in rendered

    def test_per_row_route_declines(self):
        db = self._partitioned_udf()
        rendered = db.explain(
            "SELECT n FROM t WHERE SLOW(s) = 'X'", udf_batch_size=None
        )
        assert "Exchange" not in rendered
        assert "expensive conjuncts are pinned to the per-row route" in rendered

    def test_conditional_only_expensive_declines(self):
        # All expensive calls sit in conditional positions: no strict
        # batch sites, so sharding would put per-row LM calls on shard
        # threads.  The plan stays unsharded.
        db = self._partitioned_udf()
        rendered = db.explain(
            "SELECT n FROM t WHERE n > 0 OR SLOW(s) = 'X'",
            udf_batch_size=8,
        )
        assert "Exchange" not in rendered
        assert "expensive conjunct has no batchable call sites" in rendered

    def test_index_lookup_beats_sharding(self):
        db = make_table(ROWS)
        db.create_index("t", "s")
        db.set_partitioning("t", "n", shards=4)
        db.configure_sharding(workers=4)
        rendered = db.explain("SELECT n FROM t WHERE s = 'value 1'")
        assert "IndexLookup" in rendered
        assert "Exchange" not in rendered

    def test_optimize_false_never_shards(self):
        db = make_table(ROWS)
        db.set_partitioning("t", "n", shards=4)
        db.configure_sharding(workers=4)
        rendered = db.explain("SELECT n FROM t WHERE n > 3", optimize=False)
        assert "Exchange" not in rendered

    def test_unpartitioned_table_never_shards(self):
        db = make_table(ROWS)
        db.configure_sharding(workers=4)
        rendered = db.explain("SELECT n FROM t WHERE n > 3")
        assert "Exchange" not in rendered

    def test_clear_partitioning_restores_unsharded_plans(self):
        db = make_table(ROWS)
        db.set_partitioning("t", "n", shards=4)
        assert "Exchange" in db.explain("SELECT n FROM t WHERE n > 3")
        db.clear_partitioning("t")
        assert "Exchange" not in db.explain("SELECT n FROM t WHERE n > 3")


class TestSortTieBreak:
    """ORDER BY ties must break by *global* scan position under shards.

    The naive un-optimized, un-partitioned evaluation is the oracle:
    its stable sort sees rows in global insertion order.  A sharded
    scan that leaked per-shard positions into the tie-break would
    reorder equal-key rows.
    """

    @given(
        keys=st.lists(st.integers(0, 3), min_size=0, max_size=32),
        shards=st.sampled_from([2, 3, 8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_key_rows_keep_insertion_order(self, keys, shards):
        rows = [(i, f"key {key}") for i, key in enumerate(keys)]
        sql = "SELECT n, s FROM t WHERE n >= 0 ORDER BY s"
        oracle = make_table(rows).execute(sql, optimize=False)
        db = make_table(rows)
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=4)
        assert db.execute(sql).rows == oracle.rows


class TestErrorEquivalence:
    ROWS = [(1, "apple"), (2, "banana"), (3, "poison"), (4, "fig")]

    def _databases(self, shards=None, workers=4):
        udf = CountingUDF(fail_on="poison")
        db = make_udf_db(self.ROWS, udf)
        if shards is not None:
            db.set_partitioning("t", "n", shards=shards)
            db.configure_sharding(workers=workers)
        return db

    @pytest.mark.parametrize("shards,workers", [(2, 4), (8, 1), (8, 4)])
    def test_udf_error_is_identical_to_oracle(self, shards, workers):
        sql = "SELECT s FROM t WHERE SLOW(s) = 'APPLE'"
        with pytest.raises(ExecutionError) as oracle:
            self._databases().execute(sql, udf_batch_size=8)
        with pytest.raises(ExecutionError) as sharded:
            self._databases(shards, workers).execute(sql, udf_batch_size=8)
        assert str(sharded.value) == str(oracle.value)
        assert "error in function SLOW" in str(sharded.value)

    def test_errors_are_not_cached_across_statements(self):
        udf = CountingUDF(fail_on="poison")
        db = make_udf_db([(1, "poison")], udf)
        db.set_partitioning("t", "n", shards=8)
        db.configure_sharding(workers=4)
        for _ in range(2):
            with pytest.raises(ExecutionError):
                db.execute("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert len(db.udf_cache) == 0

    def test_successful_shards_still_commit_cache_puts(self):
        # Error granularity is per shard morsel: shards whose dispatch
        # succeeded replay their cache puts even when another shard's
        # row fails the statement.  Error *values* are never cached.
        db = self._databases(shards=8)
        with pytest.raises(ExecutionError):
            db.execute("SELECT SLOW(s) FROM t", udf_batch_size=8)
        assert len(db.udf_cache) == 3  # apple, banana, fig — not poison


class TestRacecheck:
    def test_sharded_udf_replay_is_race_free(self):
        rows = [(i, f"review number {i % 11}") for i in range(40)]
        checker = RaceChecker()
        with racecheck.checking(checker):
            got_rows, _ = judged_rows(rows, 8, 4)
        report = checker.report()
        assert report.ok, report.render()
        assert report.threads > 1

    def test_relational_sharded_replay_is_race_free(self):
        checker = RaceChecker()
        with racecheck.checking(checker):
            db = make_table(ROWS)
            db.set_partitioning("t", "n", shards=8)
            db.configure_sharding(workers=4)
            db.execute("SELECT n, s FROM t WHERE n > 5 ORDER BY s, n")
        report = checker.report()
        assert report.ok, report.render()
