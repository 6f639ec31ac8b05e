"""Shard-count trace determinism: identical bytes at any (S, W) cell.

Extends the PR 4 worker-count invariance to the sharded executor: the
exported JSONL and Chrome artifacts and the invariant Usage counters
must be byte-identical for shards in {1, 2, 8} x workers in {1, 4}.
Two deliberate exclusions (see DESIGN.md §16): ``Usage.batches`` and ``Usage.simulated_seconds`` vary per cell —
coalescing concurrent shards' morsels into bigger flush batches is the
speedup — and per-shard pipeline spans are hidden because the *number*
of shard subtrees depends on the shard count.
"""

from __future__ import annotations

import json

from repro.core import SQLExecutor
from repro.db import Column, Database, DataType, TableSchema
from repro.lm.model import SimulatedLM
from repro.lm.udf import register_llm_judge
from repro.obs import Tracer, to_chrome, to_jsonl
from repro.serve.batching import BatchingLM

CELLS = [(1, 1), (1, 4), (2, 1), (2, 4), (8, 1), (8, 4)]

SQL = "SELECT s, LLM('a positive review', s) AS judged FROM t ORDER BY n"

INVARIANT_USAGE = (
    "calls",
    "prompt_tokens",
    "output_tokens",
    "cache_hits",
    "cache_misses",
    "udf_cache_hits",
    "udf_cache_misses",
    "optimizer_decisions",
)


def run_traced(shards: int, workers: int):
    """One traced execution; returns the full determinism fingerprint."""
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
    db.insert("t", [(i, f"review number {i % 11}") for i in range(40)])
    lm = BatchingLM(SimulatedLM())
    register_llm_judge(db, lm)
    db.bind_udf_meters(usage=lm.usage)
    db.set_partitioning("t", "n", shards=shards)
    db.configure_sharding(workers=workers, lm=lm)
    tracer = Tracer()
    executor = SQLExecutor(db, udf_batch_size=8)
    with tracer.request("q", 0):
        records = executor.execute(SQL)
    usage = {name: getattr(lm.usage, name) for name in INVARIANT_USAGE}
    return {
        "jsonl": to_jsonl(tracer),
        "chrome": to_chrome(tracer),
        "usage": usage,
        "records": records,
    }


class TestShardCountInvariance:
    def test_artifacts_identical_across_all_cells(self):
        baseline = run_traced(*CELLS[0])
        for shards, workers in CELLS[1:]:
            got = run_traced(shards, workers)
            for key in ("jsonl", "chrome", "usage", "records"):
                assert got[key] == baseline[key], (key, shards, workers)

    def test_identical_across_repeat_runs(self):
        first = run_traced(8, 4)
        second = run_traced(8, 4)
        assert first == second


class TestSpanContent:
    def test_exchange_and_merge_spans_present(self):
        jsonl = run_traced(8, 4)["jsonl"]
        names = {
            json.loads(line)["name"] for line in jsonl.splitlines()
        }
        assert "op:Exchange" in names
        assert "op:Merge" in names

    def test_no_shard_details_leak_into_spans(self):
        # describe() strings include the shard count and per-shard ids;
        # spans must carry only the stable trace labels.
        jsonl = run_traced(8, 4)["jsonl"]
        assert "ShardScan" not in jsonl
        assert "shard=" not in jsonl
        assert "shards=" not in jsonl

    def test_no_lm_call_spans_from_shard_threads(self):
        # Shard threads run with no trace context, so per-delivery
        # ``lm.call`` leafs never appear under sharded execution — at
        # *any* cell (shard 0 of a 1-shard plan is still a spawned
        # thread).  Call attribution lives in Usage and the op: spans.
        for cell in ((1, 1), (8, 4)):
            jsonl = run_traced(*cell)["jsonl"]
            names = {
                json.loads(line)["name"] for line in jsonl.splitlines()
            }
            assert "lm.call" not in names
