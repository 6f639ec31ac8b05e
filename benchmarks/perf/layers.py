"""Per-layer metrics of a traced run.

Three sources, in this order:

``from_trace``
    spans and ``Usage`` counters of the traced slice itself; a layer
    the workload bypasses reports nothing (``null`` in the record);
``replay_sql``
    direct calls of the SQL front-end's public functions
    (``tokenize``, ``parse_statement``, ``Database.analyze``,
    ``QueryOptimizer.choose_route``, ``Database.explain``,
    ``Database.execute``, ``Database.explain_analyze``) on the SQL
    texts the workload executed;
``home``
    microbenchmarks of layers that cannot be separated by a proxy,
    each measured once, in the traced run of its *home* workload (the
    one its "should move" column in the README names first).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable

from benchmarks.perf import gen
from benchmarks.perf.trace import Span, self_times
from benchmarks.perf.workloads import (
    METHOD_KEYS,
    Block,
    ServeReplay,
    Workload,
    build_udf_database,
)

_USAGE_FIELDS = (
    "calls", "batches", "prompt_tokens", "output_tokens",
    "udf_cache_hits", "udf_cache_misses",
)


def usage_snapshot(workload: Workload) -> dict[str, int]:
    return {
        name: sum(getattr(model.usage, name) for model in workload.models)
        for name in _USAGE_FIELDS
    }


def usage_delta(
    workload: Workload, before: dict[str, int]
) -> dict[str, int]:
    after = usage_snapshot(workload)
    return {name: after[name] - before[name] for name in _USAGE_FIELDS}


def _timed(call: Callable[[], Any], repeats: int = 1) -> float:
    """Median wall seconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# from the traced slice
# ----------------------------------------------------------------------


def from_trace(
    workload: Workload,
    spans: list[Span],
    blocks: list[Block],
    usage: dict[str, int],
) -> dict[str, float]:
    from repro.lm.tokenizer import count_tokens

    ops = sum(len(block.outcomes) for block in blocks)
    op_wall = sum(block.busy_s for block in blocks)
    metrics: dict[str, float] = {}

    if workload.models:
        lm_seconds = sum(s.duration for s in spans if s.layer == "lm")
        tokens = usage["prompt_tokens"] + usage["output_tokens"]
        metrics["lm.calls_per_op"] = usage["calls"] / ops
        metrics["lm.batches_per_op"] = usage["batches"] / ops
        metrics["lm.prompt_tokens_per_op"] = usage["prompt_tokens"] / ops
        metrics["lm.busy_share"] = lm_seconds / op_wall
        metrics["lm.complete_us_per_call"] = lm_seconds / usage["calls"] * 1e6
        metrics["lm.complete_us_per_ktoken"] = lm_seconds / tokens * 1e9
        prompts = [
            prompt
            for proxy in workload.lm_proxies
            if proxy._layer == "lm"
            for prompt in proxy.prompts
        ]
        seconds = _timed(
            lambda: [count_tokens(prompt) for prompt in prompts], 3
        )
        total = sum(count_tokens(prompt) for prompt in prompts)
        metrics["lm.tokenizer.us_per_ktoken"] = seconds / total * 1e9
    if any(proxy._layer == "serve.batching" for proxy in workload.lm_proxies):
        # Only where the workload puts a BatchingLM in front of the model.
        metrics["serve.batching.mean_batch_size"] = (
            usage["calls"] / usage["batches"]
        )

    lookups = usage["udf_cache_hits"] + usage["udf_cache_misses"]
    if lookups:
        metrics["db.udfcache.hit_ratio"] = usage["udf_cache_hits"] / lookups
        metrics["db.udfcache.hits_per_op"] = usage["udf_cache_hits"] / ops
        metrics["db.udfcache.misses_per_op"] = usage["udf_cache_misses"] / ops

    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    roots_by_kind: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span.parent is None and "kind" in span.attrs:
            roots_by_kind[span.attrs["kind"]].append(span.duration)

    for key in METHOD_KEYS.values():
        queries = by_name.get(f"methods/{key}")
        if queries:
            metrics[f"methods.{key}.ms_per_query"] = (
                _mean([s.duration for s in queries]) * 1e3
            )

    pipelines = by_name.get("core/pipeline")
    if pipelines:
        own = self_times(spans)
        for step in ("syn", "exec", "gen"):
            metrics[f"core.{step}_ms_per_req"] = (
                sum(s.duration for s in by_name[f"core/{step}"])
                / len(pipelines)
                * 1e3
            )
        metrics["core.pipeline_self_us_per_req"] = (
            _mean([own[s.id] for s in pipelines]) * 1e6
        )

    if workload.name == "sql_analytic":
        for kind in gen.ANALYTIC_KINDS:
            metrics[f"db.exec.{kind}_rows_per_s"] = workload.rows_in[
                kind
            ] / _mean(roots_by_kind[kind])
    if workload.name == "sql_short":
        metrics["db.write.insert_us"] = _mean(roots_by_kind["insert"]) * 1e6
        metrics["db.write.update_ms"] = _mean(roots_by_kind["update"]) * 1e3
        metrics["db.write.delete_ms"] = _mean(roots_by_kind["delete"]) * 1e3
    if workload.name == "serve_replay":
        # Share of worker time not spent running a request: waiting at
        # the batching barrier for the other worker, and dispatch.
        metrics["serve.server.wait_share"] = 1.0 - sum(
            sum(block.latencies) for block in blocks
        ) / (workload.WORKERS * op_wall)
    return metrics


# ----------------------------------------------------------------------
# SQL front-end replay
# ----------------------------------------------------------------------

#: Statements replayed per traced run (evenly sampled beyond that).
REPLAY_CAP = 48
#: ... of which at most this many are *executed* again on udf_scan,
#: where an execution is a 1,024-row LM scan.
REPLAY_EXECUTE_CAP_UDF = 8


def _sample(items: list, cap: int) -> list:
    if len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(index * step)] for index in range(cap)]


def _examined(stats: Any) -> int:
    """Rows leaf operators (scans, index lookups) produced."""
    if not stats.children:
        return stats.rows_out
    return sum(_examined(child) for child in stats.children)


def replay_sql(workload: Workload) -> dict[str, float]:
    from repro.db.optimizer import QueryOptimizer
    from repro.db.sql import ast
    from repro.db.sql.lexer import tokenize
    from repro.db.sql.parser import parse_statement
    from repro.errors import ReproError

    captured = [
        (proxy._target, sql)
        for proxy in workload.db_proxies
        for sql in proxy.statements
    ]
    if not captured:
        return {}
    options = (
        {"udf_batch_size": workload.UDF_BATCH}
        if workload.name == "udf_scan"
        else {}
    )
    execute_cap = (
        REPLAY_EXECUTE_CAP_UDF if workload.name == "udf_scan" else REPLAY_CAP
    )
    lex, parse, tokens = [], [], []
    analyze, route, explain, execute, paired = [], [], [], [], []
    examined = returned = executed = 0
    for db, sql in _sample(captured, REPLAY_CAP):
        lex_s = _timed(lambda: tokenize(sql), 5)
        lex.append(lex_s)
        tokens.append(len(tokenize(sql)))
        try:
            statement = parse_statement(sql)
        except ReproError:
            continue
        parse_s = _timed(lambda: parse_statement(sql), 5)
        parse.append(max(parse_s - lex_s, 0.0))
        if not isinstance(statement, ast.Select):
            continue
        # The call Database.execute(analyze=True) makes: the parsed
        # statement plus its source text.
        analyze_s = _timed(lambda: db.analyze(statement, source=sql), 3)
        analyze.append(analyze_s)
        try:
            route.append(
                _timed(
                    lambda: QueryOptimizer(db).choose_route(
                        statement, options.get("udf_batch_size", "auto")
                    ),
                    3,
                )
            )
            explain_s = _timed(lambda: db.explain(sql, **options), 3)
            explain.append(max(explain_s - parse_s, 0.0))
            if executed >= execute_cap:
                continue
            executed += 1
            execute_s = _timed(
                lambda: db.execute(sql, analyze=False, **options)
            )
            analyzed = db.explain_analyze(sql, **options)
        except ReproError:
            # Text2SQL output the engine rejects: the front-end cost
            # above is real, there is nothing to execute.
            continue
        execute.append(max(execute_s - explain_s, 0.0))
        paired.append((analyze_s, execute_s))
        examined += _examined(analyzed.stats)
        returned += analyzed.stats.rows_out
    metrics = {
        "db.sql.lex_us_per_stmt": _mean(lex) * 1e6,
        "db.sql.parse_us_per_stmt": _mean(parse) * 1e6,
        "db.sql.tokens_per_stmt": _mean(tokens),
        "analysis.analyze_us_per_stmt": _mean(analyze) * 1e6,
        "db.plan.route_us_per_stmt": _mean(route) * 1e6,
        "db.plan.explain_us_per_stmt": _mean(explain) * 1e6,
        "db.exec.self_us_per_stmt": _mean(execute) * 1e6,
        "db.exec.rows_examined_per_row_returned": examined
        / max(returned, 1),
    }
    if paired:
        analyze_total = sum(a for a, _ in paired)
        metrics["analysis.analyze_share_of_stmt"] = analyze_total / (
            analyze_total + sum(e for _, e in paired)
        )
    return metrics


# ----------------------------------------------------------------------
# home microbenchmarks
# ----------------------------------------------------------------------


def home(workload: Workload) -> dict[str, float]:
    measure = {
        "tagbench": _home_tagbench,
        "sql_analytic": _home_sql_analytic,
        "udf_scan": _home_udf_scan,
        "serve_replay": _home_serve_replay,
    }.get(workload.name)
    return measure(workload) if measure is not None else {}


def _home_tagbench(workload: Workload) -> dict[str, float]:
    import numpy as np

    from repro.embed import HashingEmbedder, serialize_row
    from repro.frame import merge
    from repro.lm import LMConfig, SimulatedLM, prompts
    from repro.semantic import SemanticOperators
    from repro.vector import FlatIndex, IVFIndex

    metrics: dict[str, float] = {}
    datasets = workload.datasets
    formula = datasets["formula_1"]
    community = datasets["codebase_community"]
    schema = formula.prompt_schema()
    question = next(
        spec.question for spec in workload.suite if spec.domain == "formula_1"
    )
    races = formula.frame("races").to_records()[:10]
    comments = [str(t) for t in community.frame("comments")["Text"].tolist()]
    model = SimulatedLM(LMConfig(seed=workload.seed))
    canned = {
        "text2sql": prompts.text2sql_prompt(schema, question),
        "answer": prompts.answer_prompt(question, races),
        "judgment": prompts.judgment_prompt(
            f"The comment '{comments[0]}' is positive"
        ),
        "relevance": prompts.relevance_prompt(
            question, serialize_row(races[0])
        ),
        "comparison": prompts.comparison_prompt(
            "most sarcastic", comments[0], comments[1]
        ),
        "summary": prompts.summary_prompt(
            "Summarize the comments", comments[:24]
        ),
        "repair": prompts.repair_prompt(
            schema,
            question,
            "SELECT nme FROM races",
            "ANA003: unknown column 'nme'",
        ),
    }
    for name, prompt in canned.items():
        metrics[f"lm.prompt.{name}_us"] = (
            _timed(lambda: model.complete(prompt), 15) * 1e6
        )

    results = formula.frame("results")
    race_frame = formula.frame("races")
    rows = len(results)
    metrics["frame.merge_rows_per_s"] = (rows + len(race_frame)) / _timed(
        lambda: merge(results, race_frame, "raceId", "raceId"), 5
    )
    metrics["frame.filter_rows_per_s"] = rows / _timed(
        lambda: results[results["points"] > 5], 9
    )
    metrics["frame.sort_rows_per_s"] = rows / _timed(
        lambda: results.sort_values(["points", "resultId"]), 5
    )
    metrics["frame.groupby_rows_per_s"] = rows / _timed(
        lambda: results.groupby("driverId").agg(
            n=("resultId", "count"), points=("points", "sum")
        ),
        5,
    )

    ops = SemanticOperators(model, batch_size=32)
    frame = community.frame("comments")
    before = model.usage.calls
    judged = frame.head(64)
    ranked = frame.head(32)
    folded = frame.head(48)
    sem_rows = 0
    for name, call, count in (
        (
            "sem_filter",
            lambda: ops.sem_filter(
                judged, "The comment '{Text}' is positive"
            ),
            len(judged),
        ),
        (
            "sem_topk",
            lambda: ops.sem_topk(
                ranked, "Which comment {Text} is most sarcastic?", 5
            ),
            len(ranked),
        ),
        (
            "sem_agg",
            lambda: ops.sem_agg(
                folded, "Summarize the comments", columns=["Text"]
            ),
            len(folded),
        ),
    ):
        metrics[f"semantic.{name}_us_per_row"] = (
            _timed(call, 3) / count * 1e6
        )
        sem_rows += 3 * count
    metrics["semantic.lm_calls_per_row"] = (
        model.usage.calls - before
    ) / sem_rows

    embedder = HashingEmbedder()
    texts = [
        serialize_row(record)
        for record in formula.frame("results").to_records()[:512]
    ]
    metrics["embed.embed_us_per_text"] = (
        _timed(lambda: embedder.embed_batch(texts), 3) / len(texts) * 1e6
    )
    vectors = embedder.embed_batch(texts)
    corpus = np.vstack([vectors] * 4)
    queries = [
        embedder.embed(spec.question) for spec in workload.suite[:32]
    ]

    def build_flat():
        index = FlatIndex(embedder.dimensions)
        index.add(corpus)
        return index

    def build_ivf():
        index = IVFIndex(embedder.dimensions, n_clusters=16, nprobe=2)
        index.train(corpus)
        index.add(corpus)
        return index

    for name, build in (("flat", build_flat), ("ivf", build_ivf)):
        metrics[f"vector.{name}_build_s"] = _timed(build, 3)
        index = build()
        metrics[f"vector.{name}_search_us_per_query"] = (
            _timed(lambda: [index.search(q, 10) for q in queries], 5)
            / len(queries)
            * 1e6
        )
    return metrics


def _home_sql_analytic(workload: Workload) -> dict[str, float]:
    db = workload.db_proxies[0]._target
    return {
        "db.exec.point_us": _timed(
            lambda: db.execute(
                "SELECT id, amount, status FROM orders WHERE id = 1234",
                analyze=False,
            ),
            51,
        )
        * 1e6
    }


def _home_udf_scan(workload: Workload) -> dict[str, float]:
    from repro.text import (
        cosine_similarity,
        sarcasm_score,
        sentiment_score,
        tf_idf_vectors,
    )

    metrics: dict[str, float] = {}
    texts = [row[1] for row in workload.table.rows[:512]]
    metrics["text.sentiment_us_per_text"] = (
        _timed(lambda: [sentiment_score(t) for t in texts], 5)
        / len(texts)
        * 1e6
    )
    metrics["text.sarcasm_us_per_text"] = (
        _timed(lambda: [sarcasm_score(t) for t in texts], 5)
        / len(texts)
        * 1e6
    )
    vectors = tf_idf_vectors(texts)
    pairs = list(zip(vectors, vectors[1:]))
    metrics["text.similarity_us_per_pair"] = (
        _timed(lambda: [cosine_similarity(a, b) for a, b in pairs], 5)
        / len(pairs)
        * 1e6
    )

    # Shard scaling on a cold memo cache: the same eight statements at
    # (shards, workers) = (2, 2) and (1, 1), untraced.  Wall speed-up
    # near 1 while virtual speed-up is near 2 is the GIL showing.
    statements = workload.statements[:8]
    wall: dict[int, float] = {}
    virtual: dict[int, float] = {}
    for shards in (2, 1):
        db, clock, _ = build_udf_database(
            workload.table, workload.seed, shards=shards, workers=shards
        )
        started = time.perf_counter()
        for statement in statements:
            db.execute(statement.sql, udf_batch_size=workload.UDF_BATCH)
        wall[shards] = time.perf_counter() - started
        virtual[shards] = clock.now()
    metrics["db.shard.stmt_ms_shards2"] = wall[2] / len(statements) * 1e3
    metrics["db.shard.stmt_ms_shards1"] = wall[1] / len(statements) * 1e3
    metrics["db.shard.wall_speedup"] = wall[1] / wall[2]
    metrics["db.shard.virtual_speedup"] = virtual[1] / virtual[2]
    metrics["db.shard.rows_per_s"] = (
        len(statements) * gen.UDF_WINDOW / wall[2]
    )
    return metrics


def _home_serve_replay(workload: Workload) -> dict[str, float]:
    from repro.lm import LMConfig, SimulatedLM, prompts
    from repro.obs import Tracer
    from repro.serve import (
        AdmissionPolicy,
        BatchingLM,
        SemanticResultCache,
        SQLAdmissionEstimator,
    )

    metrics: dict[str, float] = {}
    plain = ServeReplay(workload.seed)
    plain.setup(verify=False)
    requests = plain.requests

    def rps(server: Any) -> float:
        block = Block()
        plain.serve_into(block, server)
        return len(requests) / block.busy_s

    rps(plain.server)
    metrics["serve.server.rps_workers1"] = statistics.median(
        rps(plain.make_server(1)) for _ in range(3)
    )
    tracer = Tracer()
    traced_server = plain.make_server(plain.WORKERS, tracer=tracer)
    on, off = [], []
    for _ in range(3):
        tracer.clear()
        on.append(rps(traced_server))
        off.append(rps(plain.server))
    metrics["obs.tracer_on_ratio"] = statistics.median(
        on
    ) / statistics.median(off)
    metrics["obs.spans_per_req"] = sum(
        sum(1 for _ in root.walk()) for _, root in tracer.roots
    ) / len(requests)

    judgments = [
        prompts.judgment_prompt(f"'{question}' is a question about sport")
        for question in requests
    ]
    raw = SimulatedLM(LMConfig(seed=workload.seed))
    batching = BatchingLM(SimulatedLM(LMConfig(seed=workload.seed)))
    with batching.open_session():
        facade_s = _timed(
            lambda: [batching.complete(p, 4) for p in judgments], 5
        )
    raw_s = _timed(lambda: [raw.complete(p, 4) for p in judgments], 5)
    metrics["serve.batching.overhead_us_per_call"] = (
        (facade_s - raw_s) / len(judgments) * 1e6
    )

    cache = SemanticResultCache(capacity=256)
    for result in plain.server.serve(requests).results:
        cache.store(result.request, result.result)
    metrics["serve.semantic.lookup_us"] = (
        _timed(lambda: [cache.lookup(r) for r in requests], 5)
        / len(requests)
        * 1e6
    )

    dataset = plain.datasets["formula_1"]
    policy = AdmissionPolicy(
        SQLAdmissionEstimator(
            dataset.db,
            lambda request: "SELECT name FROM races WHERE year = 2009",
        ),
        max_lm_calls=100,
    )
    metrics["serve.admission.decide_us"] = (
        _timed(lambda: [policy.decide(r) for r in requests], 5)
        / len(requests)
        * 1e6
    )
    return metrics
