"""The five workloads.

Each is a closed loop driven by ONE load thread: the next op is issued
only after the previous one returned.  A workload is organised in
*blocks* (passes) of identical composition, so digests repeat from pass
to pass and the harness can run its reference burst between them.  Only
``udf_scan`` and ``serve_replay`` start threads of the program's own
(2 shards / 2 workers); nothing exceeds ``nproc`` = 2.

``setup()`` builds the inputs and the program objects from the seed;
``run_block(index)`` times one block and checks its outputs *between*
timed calls, never inside one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from benchmarks.perf import gen
from benchmarks.perf.oracle import SqliteMirror, rows_match
from benchmarks.perf.trace import (
    DatabaseProxy,
    LMProxy,
    Recorder,
    StepProxy,
)


def short_digest(value: object) -> str:
    return hashlib.blake2b(
        repr(value).encode("utf-8"), digest_size=6
    ).hexdigest()


@dataclass
class Outcome:
    """One op's checked result."""

    #: The program reported success (did not raise, ``ok`` was true).
    ok: bool
    #: Hash of (op id, answer/rows, error, virtual seconds): compared
    #: with the pinned expectation and from pass to pass.
    digest: str
    #: The output agrees with the independent oracle, where one exists.
    matches: bool = True
    virtual_s: float = 0.0


@dataclass
class Block:
    latencies: list[float] = field(default_factory=list)
    #: Wall seconds inside timed calls (the block's measured wall).
    busy_s: float = 0.0
    cpu_s: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)


class Workload:
    name = "workload"
    #: Program threads that run ops concurrently (1 = the load thread).
    program_threads = 1

    def __init__(self, seed: int, recorder: Recorder | None = None) -> None:
        self.seed = seed
        self.recorder = recorder
        #: Seconds of named set-up phases (``data.*``, ``methods.*``).
        self.phases: dict[str, float] = {}
        #: Wall seconds spent in oracles during set-up; harness time,
        #: reported apart from ``setup_s``.
        self.oracle_s = 0.0
        #: Every SimulatedLM the program meters usage on.
        self.models: list[Any] = []
        #: Proxies handed out by a traced run (empty when untraced).
        self.lm_proxies: list[LMProxy] = []
        self.db_proxies: list[DatabaseProxy] = []

    def setup(self, verify: bool = True) -> None:
        raise NotImplementedError

    def run_block(self, index: int) -> Block:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` opened."""

    # ------------------------------------------------------------------

    def _phase(self, name: str, started: float) -> None:
        self.phases[name] = (
            self.phases.get(name, 0.0) + time.perf_counter() - started
        )

    def _timed(
        self, block: Block, name: str, call: Callable[[], Any], **attrs: Any
    ) -> tuple[Any, Exception | None]:
        """Run one op under the wall and CPU clocks (and, in a traced
        run, as the root span of its op)."""
        recorder = self.recorder
        scope = (
            recorder.root(name, **attrs)
            if recorder is not None
            else contextlib.nullcontext()
        )
        cpu = time.process_time()
        start = time.perf_counter()
        with scope:
            try:
                value, error = call(), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                value, error = None, exc
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if recorder is not None:
            recorder.op += 1
        block.latencies.append(elapsed)
        block.busy_s += elapsed
        block.cpu_s += cpu
        return value, error

    def _wrap_db(self, db: Any) -> Any:
        if self.recorder is None:
            return db
        proxy = DatabaseProxy(db, self.recorder)
        self.db_proxies.append(proxy)
        return proxy

    def _wrap_lm(self, lm: Any, layer: str = "lm") -> Any:
        if self.recorder is None:
            return lm
        proxy = LMProxy(lm, self.recorder, layer)
        self.lm_proxies.append(proxy)
        return proxy


def _load_database(tables: list[gen.TableData], name: str = "bench"):
    from repro.db import Column, Database, DataType, ForeignKey, TableSchema

    db = Database(name)
    for table in tables:
        db.create_table(
            TableSchema(
                table.name,
                [
                    Column(
                        column,
                        DataType.from_sql(sql_type),
                        primary_key=key,
                    )
                    for column, sql_type, key in table.columns
                ],
                [ForeignKey(*fk) for fk in table.foreign_keys],
            )
        )
        db.insert(table.name, table.rows)
        for column in table.indexes:
            db.create_index(table.name, column)
    return db


# ----------------------------------------------------------------------
# tagbench
# ----------------------------------------------------------------------

#: Method.name -> the metric-name fragment of ``methods.<x>.ms_per_query``.
METHOD_KEYS = {
    "Text2SQL": "text2sql",
    "RAG": "rag",
    "Retrieval + LM Rank": "rerank",
    "Text2SQL + LM": "text2sql_lm",
    "Hand-written TAG": "handwritten",
}


class TagBench(Workload):
    """``Method.answer`` for five methods x 80 queries, pass after pass."""

    name = "tagbench"

    def setup(self, verify: bool = True) -> None:
        from repro.bench.suite import build_suite
        from repro.data import load_all
        from repro.lm import LMConfig, SimulatedLM
        from repro.methods import default_methods

        started = time.perf_counter()
        datasets = load_all(seed=self.seed)
        self._phase("data.load_all_s", started)
        self.datasets = {
            name: dataclasses.replace(dataset, db=self._wrap_db(dataset.db))
            for name, dataset in datasets.items()
        }
        self.suite = build_suite()
        config = LMConfig(seed=self.seed)

        def lm_factory():
            model = SimulatedLM(config)
            self.models.append(model)
            return self._wrap_lm(model)

        self.methods = default_methods(lm_factory)
        for method in self.methods:
            started = time.perf_counter()
            for dataset in self.datasets.values():
                method.prepare(dataset)
            self._phase(
                f"methods.{METHOD_KEYS[method.name]}.prepare_s", started
            )

    def run_block(self, index: int) -> Block:
        block = Block()
        for method in self.methods:
            key = METHOD_KEYS[method.name]
            for spec in self.suite:
                dataset = self.datasets[spec.domain]
                result, error = self._timed(
                    block,
                    f"methods/{key}",
                    lambda: method.answer(spec, dataset),
                    qid=spec.qid,
                )
                if error is not None:
                    outcome = Outcome(False, short_digest(repr(error)))
                else:
                    virtual = round(result.et_seconds, 9)
                    outcome = Outcome(
                        result.ok,
                        short_digest(
                            (key, spec.qid, result.answer, result.error,
                             virtual)
                        ),
                        virtual_s=virtual,
                    )
                block.outcomes.append(outcome)
        return block


# ----------------------------------------------------------------------
# sql_analytic / sql_short
# ----------------------------------------------------------------------


class SqlAnalytic(Workload):
    """``Database.execute(sql, analyze=False)`` over eight templates."""

    name = "sql_analytic"

    def setup(self, verify: bool = True) -> None:
        started = time.perf_counter()
        tables = gen.relational(self.seed)
        self.db = self._wrap_db(_load_database(tables))
        self._phase("data.generate_s", started)
        self.statements = gen.analytic_statements(self.seed)
        self.rows_in = {
            kind: len(tables[1].rows)
            + (len(tables[0].rows) if kind in ("join", "subquery") else 0)
            for kind in gen.ANALYTIC_KINDS
        }
        #: Rows SQLite returned for each statement, and — once an op's
        #: rows have matched them — the engine's own rows, which every
        #: later op is compared with first (list equality is far cheaper
        #: than a tolerant multiset comparison of 20,000 rows).
        self.expected: list[list[tuple]] | None = None
        self.verified: dict[int, list[tuple]] = {}
        if verify:
            started = time.perf_counter()
            mirror = SqliteMirror(tables)
            self.expected = [mirror.run(s) for s in self.statements]
            mirror.close()
            self.oracle_s += time.perf_counter() - started

    def _matches(self, position: int, rows: list[tuple]) -> bool:
        if self.expected is None or rows == self.verified.get(position):
            return True
        started = time.perf_counter()
        matched = rows_match(
            rows, self.expected[position], self.statements[position].ordered
        )
        self.oracle_s += time.perf_counter() - started
        if matched:
            self.verified[position] = rows
        return matched

    def run_block(self, index: int) -> Block:
        block = Block()
        for position, statement in enumerate(self.statements):
            result, error = self._timed(
                block,
                "db/execute",
                lambda: self.db.execute(statement.sql, analyze=False),
                kind=statement.kind,
            )
            if error is not None:
                outcome = Outcome(False, short_digest(repr(error)), False)
            else:
                outcome = Outcome(
                    True,
                    short_digest((position, len(result.rows))),
                    self._matches(position, result.rows),
                )
            block.outcomes.append(outcome)
        return block


class SqlShort(Workload):
    """Short statements the way ``SQLExecutor`` issues them, 10% writes.

    Every op — reads and writes — is replayed on a live SQLite mirror
    between timed calls and compared, so the fresh-constant half of the
    stream is checked without a pinned expectation.
    """

    name = "sql_short"

    def setup(self, verify: bool = True) -> None:
        started = time.perf_counter()
        tables = gen.relational(self.seed)
        self.db = self._wrap_db(_load_database(tables))
        self._phase("data.generate_s", started)
        self.hot = gen.short_hot_set(self.seed)
        self.mirror: SqliteMirror | None = None
        if verify:
            started = time.perf_counter()
            self.mirror = SqliteMirror(tables)
            self.oracle_s += time.perf_counter() - started

    def run_block(self, index: int) -> Block:
        block = Block()
        for statement in gen.short_block(self.seed, index, self.hot):
            is_read = statement.kind in ("point", "keyjoin", "range")
            result, error = self._timed(
                block,
                "db/execute",
                lambda: self.db.execute(statement.sql, analyze=is_read),
                kind=statement.kind,
                hot=statement.hot,
            )
            if error is not None:
                outcome = Outcome(False, short_digest(repr(error)), False)
            else:
                outcome = Outcome(
                    True,
                    short_digest((statement.sql, result.rows)),
                    self.mirror is None
                    or rows_match(
                        result.rows,
                        self.mirror.run(statement),
                        statement.ordered,
                    ),
                )
            block.outcomes.append(outcome)
        return block

    def close(self) -> None:
        if self.mirror is not None:
            self.mirror.close()
            self.mirror = None


# ----------------------------------------------------------------------
# udf_scan
# ----------------------------------------------------------------------


def build_udf_database(
    table: gen.TableData,
    seed: int,
    shards: int,
    workers: int,
    wrap_inner: Callable[[Any], Any] = lambda lm: lm,
    wrap_batching: Callable[[Any], Any] = lambda lm: lm,
):
    """``reviews`` with the ``LLM`` judge registered, partitioned on
    ``n`` and sharded through a ``BatchingLM``.  Returns
    ``(db, clock, model)``; ``shards=0`` leaves the table unpartitioned
    (the per-row oracle's configuration)."""
    from repro.lm import LMConfig, SimulatedLM, register_llm_judge
    from repro.serve.batching import BatchingLM
    from repro.serve.clock import VirtualClock

    db = _load_database([table], name="reviews")
    clock = VirtualClock()
    model = SimulatedLM(LMConfig(seed=seed))
    batching = wrap_batching(
        BatchingLM(wrap_inner(model), window=64, clock=clock)
    )
    register_llm_judge(db, batching)
    if shards:
        db.set_partitioning("reviews", "n", shards=shards)
        db.configure_sharding(workers=workers, lm=batching)
    return db, clock, model


class UdfScan(Workload):
    """Batched ``LLM()`` UDF scans over a 2-shard ``reviews`` table."""

    name = "udf_scan"
    program_threads = 2
    UDF_BATCH = 8

    def setup(self, verify: bool = True) -> None:
        started = time.perf_counter()
        self.table = gen.reviews(self.seed)
        db, self.clock, model = build_udf_database(
            self.table,
            self.seed,
            shards=2,
            workers=2,
            wrap_inner=self._wrap_lm,
            wrap_batching=lambda lm: self._wrap_lm(lm, "serve.batching"),
        )
        self.models.append(model)
        self.db = self._wrap_db(db)
        self._phase("data.generate_s", started)
        self.statements = gen.udf_statements(len(self.table.rows))
        #: Rows of the unsharded per-row path (``udf_batch_size=None``).
        self.expected: list[list[tuple]] | None = None
        if verify:
            started = time.perf_counter()
            oracle, _, _ = build_udf_database(
                self.table, self.seed, shards=0, workers=1
            )
            self.expected = [
                oracle.execute(s.sql, udf_batch_size=None).rows
                for s in self.statements
            ]
            self.oracle_s += time.perf_counter() - started

    def run_block(self, index: int) -> Block:
        block = Block()
        for position, statement in enumerate(self.statements):
            before = self.clock.now()
            result, error = self._timed(
                block,
                "db/execute",
                lambda: self.db.execute(
                    statement.sql, udf_batch_size=self.UDF_BATCH
                ),
                kind=statement.kind,
            )
            virtual = round(self.clock.now() - before, 9)
            if error is not None:
                outcome = Outcome(False, short_digest(repr(error)), False)
            else:
                outcome = Outcome(
                    True,
                    short_digest((position, result.rows, virtual)),
                    self.expected is None
                    or result.rows == self.expected[position],
                    virtual_s=virtual,
                )
            block.outcomes.append(outcome)
        return block


# ----------------------------------------------------------------------
# serve_replay
# ----------------------------------------------------------------------


class _Router:
    """The benchmark's own router pipeline: one ``TAGPipeline`` per
    domain, each request sent to its domain's.  Takes the wall time of
    every ``pipeline.run()`` on the worker thread that ran it."""

    def __init__(self, workload: "ServeReplay", lm: Any) -> None:
        from repro.core import (
            LMQuerySynthesizer,
            SQLExecutor,
            SingleCallGenerator,
            TAGPipeline,
        )

        self._workload = workload
        recorder = workload.recorder
        lm = workload._wrap_lm(lm, "serve.batching")
        self._pipelines = {}
        for name, dataset in workload.datasets.items():
            steps = (
                LMQuerySynthesizer(lm, dataset, retrieval_mode=True),
                SQLExecutor(dataset.db, analyze=True, max_rows=50),
                SingleCallGenerator(lm),
            )
            if recorder is not None:
                steps = tuple(StepProxy(s, recorder) for s in steps)
            self._pipelines[name] = TAGPipeline(*steps)

    def run(self, request: str):
        workload = self._workload
        index, domain = workload.route[request]
        pipeline = self._pipelines[domain]
        if workload.recorder is None:
            start = time.perf_counter()
            result = pipeline.run(request)
            workload.request_wall[index] = time.perf_counter() - start
        else:
            with workload.recorder.span(
                "core/pipeline",
                op=workload.recorder.op + index,
                domain=domain,
            ) as span:
                result = pipeline.run(request)
            workload.request_wall[index] = span.duration
        return result


class ServeReplay(Workload):
    """``TagServer.serve`` of the 80 questions at 2 workers, window 8."""

    name = "serve_replay"
    program_threads = 2
    WORKERS = 2
    WINDOW = 8

    def setup(self, verify: bool = True) -> None:
        from repro.data import load_all
        from repro.lm import LMConfig, SimulatedLM

        started = time.perf_counter()
        datasets = load_all(seed=self.seed)
        self._phase("data.load_all_s", started)
        self.datasets = {
            name: dataclasses.replace(dataset, db=self._wrap_db(dataset.db))
            for name, dataset in datasets.items()
        }
        pairs = gen.serve_requests(self.seed)
        self.requests = [question for question, _ in pairs]
        self.route = {
            question: (index, domain)
            for index, (question, domain) in enumerate(pairs)
        }
        self.request_wall = [0.0] * len(self.requests)
        self.models.append(SimulatedLM(LMConfig(seed=self.seed)))
        self.server = self.make_server(self.WORKERS)

    def make_server(self, workers: int, tracer: Any = None):
        from repro.serve import TagServer

        return TagServer(
            lambda lm: _Router(self, lm),
            self._wrap_lm(self.models[0]),
            workers=workers,
            window=self.WINDOW,
            tracer=tracer,
        )

    def run_block(self, index: int) -> Block:
        block = Block()
        self.serve_into(block, self.server)
        return block

    def serve_into(self, block: Block, server: Any) -> None:
        """One timed ``serve()`` of the request list, appended to
        ``block``: 80 ops, their latencies taken in the router."""
        timing = Block()
        report, error = self._timed(
            timing, "serve/serve", lambda: server.serve(self.requests)
        )
        if self.recorder is not None:
            # One timed call ran len(requests) ops.
            self.recorder.op += len(self.requests) - 1
        block.busy_s += timing.busy_s
        block.cpu_s += timing.cpu_s
        block.latencies.extend(self.request_wall)
        if error is not None:
            block.outcomes.extend(
                Outcome(False, short_digest(repr(error)), False)
                for _ in self.requests
            )
            return
        makespan = round(report.simulated_seconds, 9)
        for served in report.results:
            kind = served.result.error.kind if served.result.error else None
            block.outcomes.append(
                Outcome(
                    served.ok,
                    short_digest(
                        (served.index, served.result.answer, kind,
                         round(served.et_seconds, 9))
                    ),
                    virtual_s=makespan / len(self.requests),
                )
            )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TagBench, SqlAnalytic, SqlShort, UdfScan, ServeReplay)
}
