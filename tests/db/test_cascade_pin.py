"""The LLM judge's cascade tier, pinned end to end.

``register_llm_judge(db, lm, cheap=tier)`` over twelve reviews with
six distinct texts.  The tier answers two texts (with what the model
itself says), abstains on three and raises on one; a raising tier is
an abstention, so the model judges four texts.  One filter and one
projection statement run at ``udf_batch_size=4`` and ``"auto"``, over
no, one and two hash shards, each on a fresh database and model.  Every
configuration pins the rows, the model's ``Usage`` and the full
``EXPLAIN ANALYZE`` text, whose batched nodes carry the
``cascade_cheap_hits`` / ``cascade_escalations`` counters.

How often the tier itself is called is deliberately not pinned.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.lm import SimulatedLM, register_llm_judge
from repro.lm.udf import judgment_udf_prompt

TASK = "a positive review"
TEXTS = [
    "great plot and acting",
    "dull and far too long",
    "a masterpiece",
    "the worst film this year",
    "fine, nothing special",
    "loved every minute",
]
ROWS = [(TEXTS[index % len(TEXTS)], index) for index in range(12)]
#: Which texts the tier answers (0, 1), raises on (2) or abstains on.
ANSWERED = TEXTS[:2]
RAISES = TEXTS[2]

STATEMENTS = {
    "filter": (
        f"SELECT n, s FROM t WHERE LLM('{TASK}', s) = 'yes' ORDER BY n"
    ),
    "project": f"SELECT n, LLM('{TASK}', s) AS j FROM t ORDER BY n",
}


def _judge(value: str) -> str:
    return SimulatedLM().complete(
        judgment_udf_prompt(TASK, value), max_tokens=4
    ).text


def _tier():
    answers = {text: _judge(text) for text in ANSWERED}

    def tier(task, value):
        if value == RAISES:
            raise RuntimeError("tier failed")
        return answers.get(value)

    return tier


def run(statement: str, batch, shards: int) -> dict:
    db = Database()
    db.create_table(
        TableSchema(
            "t", [Column("s", DataType.TEXT), Column("n", DataType.INTEGER)]
        )
    )
    db.insert("t", ROWS)
    if shards:
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=2)
    lm = SimulatedLM()
    register_llm_judge(db, lm, cheap=_tier())
    analyzed = db.explain_analyze(
        STATEMENTS[statement], udf_batch_size=batch
    )
    return {
        "rows": [list(row) for row in analyzed.result.rows],
        "usage": {
            name: value
            for name, value in asdict(lm.usage).items()
            if value
        },
        "explain_analyze": analyzed.render(),
    }


CONFIGS = [
    (statement, batch, shards)
    for statement in STATEMENTS
    for batch in (4, "auto")
    for shards in (0, 1, 2)
]

PINNED: dict = {
    ('filter', 4, 0): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237000000000001,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 2,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    BatchedFilter(where[expensive], batch=4, sites=1) [rows_in=12 rows_out=2 vtime=0.000114s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      Scan(t AS t) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call""",
    },
    ('filter', 4, 1): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237000000000001,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    Merge [rows_in=2 rows_out=2 vtime=0.000104s]
      Exchange(shards=1) [rows_in=2 rows_out=2 vtime=0.000104s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=12 rows_out=2 vtime=0.000114s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
          ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    },
    ('filter', 4, 2): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    Merge [rows_in=2 rows_out=2 vtime=0.000104s]
      Exchange(shards=2) [rows_in=2 rows_out=2 vtime=0.000104s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=6 rows_out=2 vtime=0.000108s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
          ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=6 vtime=0.000106s]
        ShardBatchedFilter(where[expensive], batch=4, sites=1) [rows_in=6 rows_out=0 vtime=0.000106s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
          ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=6 vtime=0.000106s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
    },
    ('filter', 'auto', 0): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 1,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.46185000000000004,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    BatchedFilter(where[expensive], batch=6, sites=1) [rows_in=12 rows_out=2 vtime=0.000114s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      Scan(t AS t) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call""",
    },
    ('filter', 'auto', 1): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 1,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.46185000000000004,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 4,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    Merge [rows_in=2 rows_out=2 vtime=0.000104s]
      Exchange(shards=1) [rows_in=2 rows_out=2 vtime=0.000104s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardBatchedFilter(where[expensive], batch=6, sites=1) [rows_in=12 rows_out=2 vtime=0.000114s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
          ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    },
    ('filter', 'auto', 2): {
        "rows": [[2, 'a masterpiece'], [8, 'a masterpiece']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 4,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=2 rows_out=2 vtime=0.000104s]
  Project(n, s) [rows_in=2 rows_out=2 vtime=0.000104s]
    Merge [rows_in=2 rows_out=2 vtime=0.000104s]
      Exchange(shards=2) [rows_in=2 rows_out=2 vtime=0.000104s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardBatchedFilter(where[expensive], batch=6, sites=1) [rows_in=6 rows_out=2 vtime=0.000108s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
          ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=6 vtime=0.000106s]
        ShardBatchedFilter(where[expensive], batch=6, sites=1) [rows_in=6 rows_out=0 vtime=0.000106s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
          ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=6 vtime=0.000106s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
    },
    ('project', 4, 0): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237000000000001,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 2,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  BatchedProject(n, j, batch=4, sites=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
    Scan(t AS t) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call""",
    },
    ('project', 4, 1): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237000000000001,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  Merge [rows_in=12 rows_out=12 vtime=0.000124s]
    Exchange(shards=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      ShardBatchedProject(n, j, batch=4, sites=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    },
    ('project', 4, 2): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  Merge [rows_in=12 rows_out=12 vtime=0.000124s]
    Exchange(shards=2) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      ShardBatchedProject(n, j, batch=4, sites=1) [rows_in=6 rows_out=6 vtime=0.000112s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
        ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=6 vtime=0.000106s]
      ShardBatchedProject(n, j, batch=4, sites=1) [rows_in=6 rows_out=6 vtime=0.000112s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
        ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=6 vtime=0.000106s]
Optimizer:
  route: cascade (caller-pinned udf_batch_size=4): est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
    },
    ('project', 'auto', 0): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 1,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.46185000000000004,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 3,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  BatchedProject(n, j, batch=6, sites=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
    Scan(t AS t) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call""",
    },
    ('project', 'auto', 1): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 1,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.46185000000000004,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 4,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  Merge [rows_in=12 rows_out=12 vtime=0.000124s]
    Exchange(shards=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      ShardBatchedProject(n, j, batch=6, sites=1) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=1 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
        ShardScan(t AS t, hash(n) % 1, shard=0) [rows_in=0 rows_out=12 vtime=0.000112s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 1 -> 1 pipeline(s)""",
    },
    ('project', 'auto', 2): {
        "rows": [[0, 'no'], [1, 'no'], [2, 'yes'], [3, 'no'], [4, 'no'], [5, 'no'], [6, 'no'], [7, 'no'], [8, 'yes'], [9, 'no'], [10, 'no'], [11, 'no']],
        "usage": {
            "calls": 4,
            "batches": 2,
            "prompt_tokens": 122,
            "output_tokens": 4,
            "simulated_seconds": 0.9237,
            "udf_cache_hits": 6,
            "udf_cache_misses": 4,
            "cascade_cheap_hits": 2,
            "cascade_escalations": 4,
            "optimizer_decisions": 4,
        },
        "explain_analyze": """\
Sort(1 key(s)) [rows_in=12 rows_out=12 vtime=0.000124s]
  Merge [rows_in=12 rows_out=12 vtime=0.000124s]
    Exchange(shards=2) [rows_in=12 rows_out=12 vtime=0.000124s lm_calls=4 lm_batches=2 udf_cache_hits=6 udf_cache_misses=4 cascade_cheap_hits=2 cascade_escalations=4]
      ShardBatchedProject(n, j, batch=6, sites=1) [rows_in=6 rows_out=6 vtime=0.000112s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
        ShardScan(t AS t, hash(n) % 2, shard=0) [rows_in=0 rows_out=6 vtime=0.000106s]
      ShardBatchedProject(n, j, batch=6, sites=1) [rows_in=6 rows_out=6 vtime=0.000112s lm_calls=2 lm_batches=1 udf_cache_hits=3 udf_cache_misses=2 cascade_cheap_hits=1 cascade_escalations=2]
        ShardScan(t AS t, hash(n) % 2, shard=1) [rows_in=0 rows_out=6 vtime=0.000106s]
Optimizer:
  route: cascade: est 3 LM calls / 252 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=6 from distinct-value bound 6 (rows_scanned=12)
  cascade: cheap tier for LLM: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  shard-parallel: t: hash(n) % 2 -> 2 pipeline(s)""",
    },
}


@pytest.mark.parametrize("statement,batch,shards", CONFIGS)
def test_cascade_is_pinned(statement, batch, shards):
    assert run(statement, batch, shards) == PINNED[statement, batch, shards]
