"""Command-line interface.

Usage (also via ``python -m repro``):

    python -m repro bench [--seed N] [--max-queries N]
    python -m repro query <qid> [--method NAME] [--seed N]
    python -m repro sql <domain> "<SELECT ...>" [--explain]
    python -m repro suite [--type T] [--capability C]
    python -m repro export <domain> <directory>
    python -m repro serve [--requests N] [--fault-rate R] [--retries N]
                          [--trace out.json]
    python -m repro trace [--requests N] [--workers N] [--format F] [--out P]
    python -m repro analyze "<SELECT ...>" --db <domain>
    python -m repro lint [--root DIR] [--conc] [--format text|json]

``EXPLAIN ANALYZE <select>`` works through the ``sql`` subcommand: the
annotated plan (rows in/out and virtual time per operator) prints as
the result rows.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import format_table1, format_table2
from repro.bench.runner import run_benchmark
from repro.bench.suite import build_suite
from repro.data import DOMAINS, load_domain
from repro.errors import ReproError
from repro.frame.io import export_dataset
from repro.lm import LMConfig, SimulatedLM

#: The serve and trace demos' query: the top-grossing romance movie's
#: review, one row for the generator to summarize.
_ROMANCE_SQL = (
    "SELECT movie_title, review FROM movies "
    "WHERE genre = 'Romance' ORDER BY revenue DESC LIMIT 1"
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI (subcommands: bench/query/sql/suite/export)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "TAG reproduction: benchmark runner, query inspector, SQL "
            "shell, dataset export."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser(
        "bench", help="run TAG-Bench and print Tables 1-2"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--max-queries", type=int, default=None)

    query = commands.add_parser(
        "query", help="run one benchmark query through the methods"
    )
    query.add_argument("qid")
    query.add_argument(
        "--method",
        default=None,
        help="method name substring (default: all five)",
    )
    query.add_argument("--seed", type=int, default=0)

    sql = commands.add_parser(
        "sql", help="execute SQL against a generated domain"
    )
    sql.add_argument("domain", choices=DOMAINS)
    sql.add_argument("statement")
    sql.add_argument("--explain", action="store_true")
    sql.add_argument("--seed", type=int, default=0)

    suite = commands.add_parser("suite", help="list benchmark queries")
    suite.add_argument("--type", dest="query_type", default=None)
    suite.add_argument("--capability", default=None)

    export = commands.add_parser(
        "export", help="write a domain's tables as CSV files"
    )
    export.add_argument("domain", choices=DOMAINS)
    export.add_argument("directory")
    export.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve",
        help="serve a demo TAG request stream under injected faults",
    )
    serve.add_argument("--requests", type=int, default=16)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--window", type=int, default=4)
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="total injected-fault probability per LM call",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="LM + fault-schedule seed"
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=3,
        help="retry attempts after the first (0 disables retries)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request budget in simulated seconds",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="consecutive failures that trip the circuit breaker",
    )
    serve.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the degraded raw-table fallback tier",
    )
    serve.add_argument(
        "--admit-budget",
        type=int,
        default=None,
        help=(
            "per-request LM-call admission budget; requests whose "
            "estimated LM-UDF cost exceeds it are rejected pre-dispatch"
        ),
    )
    serve.add_argument(
        "--max-repairs",
        type=int,
        default=0,
        help=(
            "validate→repair→retry budget per request: failed SQL is "
            "fed back to the LM with diagnostics up to this many "
            "times; admission prices the worst-case repair cost "
            "(0 disables the repair loop)"
        ),
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event file for the run",
    )
    serve.add_argument(
        "--no-optimize",
        action="store_true",
        help=(
            "disable the cost-based query optimizer (LM UDFs run "
            "per-row in written predicate order)"
        ),
    )
    serve.add_argument(
        "--semantic-cache",
        type=int,
        default=0,
        metavar="N",
        help=(
            "semantic result-cache capacity (0 disables): requests "
            "whose canonical form matches an accepted answer are "
            "served without dispatching a pipeline, and the demo "
            "stream becomes duplicate-heavy so hits are visible"
        ),
    )

    trace = commands.add_parser(
        "trace",
        help="serve a small demo stream and export its trace",
    )
    trace.add_argument("--requests", type=int, default=6)
    trace.add_argument("--workers", type=int, default=2)
    trace.add_argument("--window", type=int, default=4)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--format",
        dest="trace_format",
        choices=("chrome", "jsonl"),
        default="chrome",
    )
    trace.add_argument("--out", default="trace.json")

    analyze = commands.add_parser(
        "analyze",
        help="statically analyze a SELECT against a domain's catalog",
    )
    analyze.add_argument("statement")
    analyze.add_argument(
        "--db",
        dest="domain",
        required=True,
        choices=DOMAINS,
        help="domain whose catalog the query is checked against",
    )
    analyze.add_argument("--seed", type=int, default=0)

    lint = commands.add_parser(
        "lint",
        help="run the determinism linter over src/ (see repro.analysis.lint)",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root containing src/ and pyproject.toml",
    )
    lint.add_argument(
        "--conc",
        action="store_true",
        help=(
            "run the concurrency-safety analyzer (CONC201-CONC208, see "
            "repro.analysis.concurrency) instead of the determinism rules"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits a machine-readable report)",
    )

    return parser


def _command_bench(args) -> int:
    report = run_benchmark(seed=args.seed, max_queries=args.max_queries)
    print(format_table1(report))
    print()
    print(format_table2(report))
    return 0


def _command_query(args) -> int:
    from repro.methods import default_methods

    specs = [s for s in build_suite() if s.qid == args.qid]
    if not specs:
        print(f"no query with id {args.qid!r}", file=sys.stderr)
        return 1
    spec = specs[0]
    dataset = load_domain(spec.domain, seed=args.seed)
    print(f"[{spec.qid}] ({spec.query_type}/{spec.capability})")
    print(f"Q: {spec.question}")
    if spec.gold is not None:
        print(f"gold: {spec.gold(dataset)}")
    config = LMConfig(seed=args.seed)
    methods = default_methods(lambda: SimulatedLM(config))
    if args.method:
        methods = [
            m for m in methods if args.method.lower() in m.name.lower()
        ]
        if not methods:
            print(f"no method matching {args.method!r}", file=sys.stderr)
            return 1
    for method in methods:
        method.prepare(dataset)
        result = method.answer(spec, dataset)
        status = result.error or "ok"
        print(
            f"\n== {method.name} (ET {result.et_seconds:.2f}s, {status})"
        )
        print(f"   {result.answer}")
    return 0


def _command_sql(args) -> int:
    dataset = load_domain(args.domain, seed=args.seed)
    try:
        if args.explain:
            print(dataset.db.explain(args.statement))
            return 0
        result = dataset.db.execute(args.statement)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("\t".join(result.columns))
    for row in result.rows[:200]:
        print("\t".join(str(value) for value in row))
    if len(result.rows) > 200:
        print(f"... ({len(result.rows)} rows total)")
    return 0


def _command_suite(args) -> int:
    for spec in build_suite():
        if args.query_type and spec.query_type != args.query_type:
            continue
        if args.capability and spec.capability != args.capability:
            continue
        print(
            f"{spec.qid:18s} {spec.query_type:12s} "
            f"{spec.capability:10s} {spec.domain:24s} {spec.question}"
        )
    return 0


def _command_export(args) -> int:
    dataset = load_domain(args.domain, seed=args.seed)
    for path in export_dataset(dataset, args.directory):
        print(path)
    return 0


def _command_serve(args) -> int:
    from repro.core import (
        FallbackPipeline,
        NoGenerator,
        RepairPolicy,
        SQLExecutor,
        SelfCorrectingPipeline,
        SingleCallGenerator,
        TAGPipeline,
    )
    from repro.data import movies
    from repro.lm import FaultPlan
    from repro.serve import (
        BreakerPolicy,
        ResiliencePolicy,
        RetryPolicy,
        TagServer,
    )

    dataset = movies.build(seed=args.seed)
    # A per-row LM UDF powers the admission-control demo: "deep scan"
    # requests classify every review, so their estimated cost scales
    # with the table instead of the single-row lookup above.
    deep_sql = "SELECT movie_title, MOOD(review) FROM movies"

    def mood(review):
        return "positive" if "love" in str(review) else "mixed"

    dataset.db.register_udf(
        "MOOD",
        mood,
        expensive=True,
        batch=lambda tuples: [mood(review) for (review,) in tuples],
    )

    def query_for(request: str) -> str:
        return deep_sql if "deep scan" in request else _ROMANCE_SQL

    class _DemoSynthesizer:
        def synthesize(self, request: str) -> str:
            return query_for(request)

    def factory(lm):
        # Deep-scan requests hit the expensive UDF on every row; the
        # cost-based optimizer picks the vectorized route (morsel size
        # from the distinct-value bound) unless --no-optimize pins the
        # per-row path.
        optimize = not args.no_optimize
        steps = (
            _DemoSynthesizer(),
            SQLExecutor(dataset.db, optimize=optimize),
            SingleCallGenerator(lm, aggregation=True),
        )
        if args.max_repairs > 0:
            primary = SelfCorrectingPipeline(
                *steps,
                lm=lm,
                schema_sql=dataset.db.schema_sql(),
                policy=RepairPolicy(max_repairs=args.max_repairs),
            )
        else:
            primary = TAGPipeline(*steps)
        if args.no_fallback:
            return primary
        raw_table = TAGPipeline(
            _DemoSynthesizer(),
            SQLExecutor(dataset.db, optimize=optimize),
            NoGenerator(),
        )
        return FallbackPipeline([("tag", primary), ("table", raw_table)])

    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=args.retries + 1),
        deadline_s=args.deadline,
        breaker=(
            BreakerPolicy(failure_threshold=args.breaker_threshold)
            if args.breaker_threshold is not None
            else None
        ),
    )
    admission = None
    if args.admit_budget is not None:
        from repro.serve import AdmissionPolicy, SQLAdmissionEstimator

        admission = AdmissionPolicy(
            estimator=SQLAdmissionEstimator(dataset.db, query_for),
            max_lm_calls=args.admit_budget,
            repair_budget=args.max_repairs,
        )
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    semantic_cache = None
    if args.semantic_cache > 0:
        from repro.serve import SemanticResultCache

        semantic_cache = SemanticResultCache(capacity=args.semantic_cache)
    server = TagServer(
        factory,
        SimulatedLM(LMConfig(seed=args.seed)),
        workers=args.workers,
        window=args.window,
        fault_plan=FaultPlan.uniform(args.fault_rate, seed=args.seed),
        resilience=resilience,
        admission=admission,
        tracer=tracer,
        semantic_cache=semantic_cache,
    )
    # With the semantic cache on, fold the stream onto a few distinct
    # questions: real traffic repeats itself, and the duplicates are
    # what the cache coalesces.
    distinct = (
        max(1, args.requests // 3)
        if semantic_cache is not None
        else args.requests
    )
    requests = [
        (
            f"Classify the mood of every review (deep scan #{index})"
            if args.admit_budget is not None and index % 4 == 3
            else "Summarize the reviews of the top romance movie "
            f"(#{index % distinct})"
        )
        for index in range(args.requests)
    ]
    report = server.serve(requests)
    print(
        f"served {len(report.results)} requests "
        f"(workers={args.workers}, window={args.window}, "
        f"fault rate={args.fault_rate:g}, seed={args.seed})"
    )
    print(f"  availability     {report.availability:8.2%}")
    print(f"  degraded         {report.degraded_count:8d}")
    print(f"  goodput          {report.goodput_rps:8.3f} req/s")
    print(f"  throughput       {report.throughput_rps:8.3f} req/s")
    print(f"  makespan         {report.simulated_seconds:8.2f} simulated-s")
    print(
        f"  latency p50/p95  "
        f"{report.latency_percentile(0.5):8.2f} / "
        f"{report.latency_percentile(0.95):.2f} simulated-s"
    )
    usage = report.usage
    print(
        f"  faults/retries   {usage.faults_injected:8d} / {usage.retries}"
    )
    print(
        f"  trips/deadlines  "
        f"{usage.breaker_trips:8d} / {usage.deadline_exceeded}"
    )
    if args.max_repairs > 0:
        print(
            f"  repairs ok/used  "
            f"{usage.repair_successes:8d} / {usage.repair_attempts}"
        )
    if admission is not None:
        print(f"  admission-rej    {report.admission_rejected:8d}")
    if semantic_cache is not None:
        print(
            f"  semcache h/n/m   {usage.semcache_hits:8d} / "
            f"{usage.semcache_near_hits} / {usage.semcache_misses}"
        )
        print(f"  semcache entries {len(semantic_cache):8d}")
    if tracer is not None:
        from repro.obs import write_trace

        path = write_trace(tracer, args.trace, format="chrome")
        print(f"  trace            {path}")
    for result in report.errors:
        print(f"  FAILED #{result.index}: {result.result.error}")
    # Admission rejections are the budget working as intended; only
    # failures among *dispatched* requests make the exit code nonzero.
    dispatched_ok = all(
        result.ok for result in report.results if result.worker >= 0
    )
    return 0 if dispatched_ok else 1


def _command_trace(args) -> int:
    """Serve a small demo stream with tracing on and export the trace.

    Every request uses a distinct prompt and the cache is off, so the
    exported bytes are identical for any ``--workers`` value — the
    determinism contract ``make trace-smoke`` checks.
    """
    from repro.core import (
        FixedQuerySynthesizer,
        SQLExecutor,
        SingleCallGenerator,
        TAGPipeline,
    )
    from repro.data import movies
    from repro.obs import Tracer, write_trace
    from repro.serve import TagServer

    dataset = movies.build(seed=args.seed)

    def factory(lm):
        return TAGPipeline(
            FixedQuerySynthesizer(_ROMANCE_SQL),
            SQLExecutor(dataset.db),
            SingleCallGenerator(lm, aggregation=True),
        )

    tracer = Tracer()
    server = TagServer(
        factory,
        SimulatedLM(LMConfig(seed=args.seed)),
        workers=args.workers,
        window=args.window,
        tracer=tracer,
    )
    requests = [
        f"Summarize the reviews of the top romance movie (#{index})"
        for index in range(args.requests)
    ]
    report = server.serve(requests)
    path = write_trace(tracer, args.out, format=args.trace_format)
    spans = sum(
        sum(1 for _ in root.walk()) for _, root in tracer.roots
    )
    print(
        f"served {len(report.results)} requests "
        f"(workers={args.workers}, window={args.window}, "
        f"seed={args.seed})"
    )
    print(f"  spans            {spans:8d}")
    print(f"  makespan         {report.simulated_seconds:8.2f} simulated-s")
    print(f"  trace            {path}")
    return 0 if all(result.ok for result in report.results) else 1


def _command_analyze(args) -> int:
    dataset = load_domain(args.domain, seed=args.seed)
    report = dataset.db.analyze(args.statement)
    print(report.render())
    return 0 if report.ok else 1


def _command_lint(args) -> int:
    import json
    from pathlib import Path

    root = Path(args.root)
    if not (root / "src").is_dir():
        print(f"error: no src/ under {root}", file=sys.stderr)
        return 2
    if args.conc:
        from repro.analysis.concurrency import analyze_tree

        report = analyze_tree(root)
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.render())
        return 0 if report.ok else 1

    from repro.analysis.lint import lint_tree

    reported, suppressed = lint_tree(root)
    counts: dict[str, int] = {}
    for finding in reported:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": not reported,
                    "counts": dict(sorted(counts.items())),
                    "findings": [
                        {
                            "path": f.path,
                            "line": f.line,
                            "column": f.column,
                            "code": f.code,
                            "message": f.message,
                        }
                        for f in reported
                    ],
                    "suppressed": len(suppressed),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if reported else 0
    for finding in reported:
        print(finding.render())
    summary = f"lint: {len(reported)} finding(s)"
    if suppressed:
        summary += f", {len(suppressed)} suppressed via pyproject"
    print(summary)
    if counts:
        print(
            "per-rule: "
            + ", ".join(
                f"{code} x{n}" for code, n in sorted(counts.items())
            )
        )
    return 1 if reported else 0


_COMMANDS = {
    "bench": _command_bench,
    "query": _command_query,
    "sql": _command_sql,
    "suite": _command_suite,
    "export": _command_export,
    "serve": _command_serve,
    "trace": _command_trace,
    "analyze": _command_analyze,
    "lint": _command_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
