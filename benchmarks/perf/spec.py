"""The benchmark's vocabulary: workload names, metric names, units, bounds.

Every later performance or simplicity change cites these names, so they
are fixed here and ``BENCHMARK.json`` at the repo root repeats them
(``test_perf_smoke.py`` checks the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the base median by which the metric may worsen before a
    #: change counts as a regression; ``0.0`` means it must repeat
    #: exactly; ``None`` (per-layer metrics) means no bound.
    bound: float | None = None


#: name -> why the workload exists (one line each; README has the table).
WORKLOADS: dict[str, str] = {
    "tagbench": (
        "paper Table 1: five methods x 80 TAG-Bench queries; LM handlers, "
        "SQL front-end and analyzer do the work, the executor little"
    ),
    "sql_analytic": (
        "eight scan/join/aggregate/sort templates on 20,000 generated "
        "rows, no LM: the executor does the work, the front-end ~none"
    ),
    "sql_short": (
        "point/key-join/range statements with analyze=True plus 10% "
        "writes: parser, analyzer, planner and index upkeep dominate"
    ),
    "udf_scan": (
        "batched LLM() UDF over 2 shards with a hot text pool that fits "
        "the UDF memo cache and unique texts that thrash it"
    ),
    "serve_replay": (
        "TagServer replay of the 80 questions at 2 workers: BatchingLM "
        "barrier and dispatch on top of the tagbench LM and SQL layers"
    ),
}

#: The eight end-to-end metrics, reported for every workload.  Bounds
#: come from the spread measured on the shared 2-core sandbox (quartile
#: distance over the median of ten runs on ten seeds, 20 s each): the
#: timings spread 7-22 % raw and 3-11 % at reference speed
#: (reference.py), so they get the widest bound the driver allows (it
#: refuses a benchmark whose spread exceeds its bound and asks for a
#: spread under a third of it); RSS spread stayed under 2 %.
END_TO_END: tuple[Metric, ...] = (
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("cpu_s_per_kop", "cpu_s/kop", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("et_virtual_s_per_op", "sim_s", "lower", 0.0),
)

#: The two end-to-end metrics that repeat exactly and are 0 on some
#: workloads.  The driver's contract forbids zero-valued bounded
#: metrics, so ``BENCHMARK.json`` lists these under ``per_layer`` and
#: the traced run reports them; ``compare`` still enforces bound 0.
EXACT = ("failed_share", "et_virtual_s_per_op")

_LAYER_UNITS: dict[str, tuple[str, str]] = {
    # repro.methods
    "methods.text2sql.ms_per_query": ("ms", "lower"),
    "methods.rag.ms_per_query": ("ms", "lower"),
    "methods.rerank.ms_per_query": ("ms", "lower"),
    "methods.text2sql_lm.ms_per_query": ("ms", "lower"),
    "methods.handwritten.ms_per_query": ("ms", "lower"),
    "methods.rag.prepare_s": ("s", "lower"),
    "methods.rerank.prepare_s": ("s", "lower"),
    # repro.core
    "core.syn_ms_per_req": ("ms", "lower"),
    "core.exec_ms_per_req": ("ms", "lower"),
    "core.gen_ms_per_req": ("ms", "lower"),
    "core.pipeline_self_us_per_req": ("us", "lower"),
    # repro.lm
    "lm.calls_per_op": ("count", "lower"),
    "lm.batches_per_op": ("count", "lower"),
    "lm.prompt_tokens_per_op": ("count", "lower"),
    "lm.busy_share": ("ratio", "lower"),
    "lm.complete_us_per_call": ("us", "lower"),
    "lm.complete_us_per_ktoken": ("us", "lower"),
    "lm.tokenizer.us_per_ktoken": ("us", "lower"),
    "lm.prompt.text2sql_us": ("us", "lower"),
    "lm.prompt.answer_us": ("us", "lower"),
    "lm.prompt.judgment_us": ("us", "lower"),
    "lm.prompt.relevance_us": ("us", "lower"),
    "lm.prompt.comparison_us": ("us", "lower"),
    "lm.prompt.summary_us": ("us", "lower"),
    "lm.prompt.repair_us": ("us", "lower"),
    # repro.text
    "text.sentiment_us_per_text": ("us", "lower"),
    "text.sarcasm_us_per_text": ("us", "lower"),
    "text.similarity_us_per_pair": ("us", "lower"),
    # repro.db.sql
    "db.sql.lex_us_per_stmt": ("us", "lower"),
    "db.sql.parse_us_per_stmt": ("us", "lower"),
    "db.sql.tokens_per_stmt": ("count", "lower"),
    # repro.analysis
    "analysis.analyze_us_per_stmt": ("us", "lower"),
    "analysis.analyze_share_of_stmt": ("ratio", "lower"),
    # repro.db.optimizer + repro.db.planner
    "db.plan.route_us_per_stmt": ("us", "lower"),
    "db.plan.explain_us_per_stmt": ("us", "lower"),
    # repro.db.plan + repro.db.expr
    "db.exec.scan_rows_per_s": ("rows/s", "higher"),
    "db.exec.filter_rows_per_s": ("rows/s", "higher"),
    "db.exec.join_rows_per_s": ("rows/s", "higher"),
    "db.exec.aggregate_rows_per_s": ("rows/s", "higher"),
    "db.exec.sort_rows_per_s": ("rows/s", "higher"),
    "db.exec.subquery_rows_per_s": ("rows/s", "higher"),
    "db.exec.distinct_rows_per_s": ("rows/s", "higher"),
    "db.exec.like_rows_per_s": ("rows/s", "higher"),
    "db.exec.point_us": ("us", "lower"),
    "db.exec.self_us_per_stmt": ("us", "lower"),
    "db.exec.rows_examined_per_row_returned": ("ratio", "lower"),
    # repro.db.table (writes)
    "db.write.insert_us": ("us", "lower"),
    "db.write.update_ms": ("ms", "lower"),
    "db.write.delete_ms": ("ms", "lower"),
    # repro.db.shard
    "db.shard.stmt_ms_shards2": ("ms", "lower"),
    "db.shard.stmt_ms_shards1": ("ms", "lower"),
    "db.shard.wall_speedup": ("ratio", "higher"),
    "db.shard.virtual_speedup": ("ratio", "higher"),
    "db.shard.rows_per_s": ("rows/s", "higher"),
    # repro.db.udfcache
    "db.udfcache.hit_ratio": ("ratio", "higher"),
    "db.udfcache.hits_per_op": ("count", "higher"),
    "db.udfcache.misses_per_op": ("count", "lower"),
    # repro.frame
    "frame.merge_rows_per_s": ("rows/s", "higher"),
    "frame.filter_rows_per_s": ("rows/s", "higher"),
    "frame.sort_rows_per_s": ("rows/s", "higher"),
    "frame.groupby_rows_per_s": ("rows/s", "higher"),
    # repro.semantic
    "semantic.sem_filter_us_per_row": ("us", "lower"),
    "semantic.sem_topk_us_per_row": ("us", "lower"),
    "semantic.sem_agg_us_per_row": ("us", "lower"),
    "semantic.lm_calls_per_row": ("count", "lower"),
    # repro.embed
    "embed.embed_us_per_text": ("us", "lower"),
    # repro.vector
    "vector.flat_build_s": ("s", "lower"),
    "vector.flat_search_us_per_query": ("us", "lower"),
    "vector.ivf_build_s": ("s", "lower"),
    "vector.ivf_search_us_per_query": ("us", "lower"),
    # repro.serve
    "serve.batching.mean_batch_size": ("count", "higher"),
    "serve.batching.overhead_us_per_call": ("us", "lower"),
    "serve.server.wait_share": ("ratio", "lower"),
    "serve.server.rps_workers1": ("1/s", "higher"),
    "serve.semantic.lookup_us": ("us", "lower"),
    "serve.admission.decide_us": ("us", "lower"),
    # repro.obs
    "obs.tracer_on_ratio": ("ratio", "higher"),
    "obs.spans_per_req": ("count", "lower"),
    "obs.harness_overhead_ratio": ("ratio", "higher"),
    # repro.data
    "data.load_all_s": ("s", "lower"),
    "data.generate_s": ("s", "lower"),
}

PER_LAYER: tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, (unit, better) in _LAYER_UNITS.items()
)

UNITS: dict[str, str] = {
    metric.name: metric.unit for metric in END_TO_END + PER_LAYER
}


def bounded_end_to_end() -> list[Metric]:
    """The end-to-end metrics ``BENCHMARK.json`` lists with a bound."""
    return [m for m in END_TO_END if m.name not in EXACT]


def contract_per_layer() -> list[Metric]:
    """What ``BENCHMARK.json`` lists under ``per_layer``: the two exact
    end-to-end metrics plus every layer metric."""
    exact = [m for m in END_TO_END if m.name in EXACT]
    return exact + list(PER_LAYER)
