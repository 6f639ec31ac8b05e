"""Every metered counter, driven through the layer that emits it.

A counter such as ``udf_cache_hits`` is a field of a bound
:class:`~repro.lm.usage.Usage` that only :meth:`Usage.add
<repro.lm.usage.Usage.add>` writes.  Each case below binds a fresh
``Usage``, runs one piece of the system, and pins every metered field
exactly — so an event that did not happen counts nothing.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from repro.core import (
    LMQuerySynthesizer,
    NoGenerator,
    RepairPolicy,
    SQLExecutor,
    SelfCorrectingPipeline,
)
from repro.core.tag import TAGResult
from repro.db import Column, Database, DataType, TableSchema
from repro.errors import DeadlineExceededError, TransientLMError
from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM, Usage
from repro.lm.prompts import summary_prompt
from repro.obs import trace
from repro.serve.resilience import (
    BreakerPolicy,
    ResiliencePolicy,
    ResilientLM,
    RetryPolicy,
)
from repro.serve.semantic import SemanticResultCache

#: The Usage fields the layers above the model write.
METERED = (
    "udf_cache_hits",
    "udf_cache_misses",
    "cascade_cheap_hits",
    "cascade_escalations",
    "optimizer_decisions",
    "rows_truncated",
    "repair_attempts",
    "repair_successes",
    "repair_exhausted",
    "semcache_hits",
    "semcache_misses",
    "semcache_near_hits",
    "semcache_invalidations",
    "retries",
    "breaker_trips",
    "deadline_exceeded",
)

#: 8 rows, 3 distinct judged values (tests/obs/test_udf_counters.py's).
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
UDF_SQL = "SELECT s, SLOW(s) AS j FROM t WHERE SLOW(s) <> 'X' ORDER BY n"
PROMPT = summary_prompt("Summarize the notes", ["hello", "world"])


def udf_database(
    usage: Usage,
    cheap: bool = False,
    shards: int | None = None,
) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("s", DataType.TEXT), Column("n", DataType.INTEGER)],
        )
    )
    db.insert("t", ROWS)

    def scalar(value):
        return str(value).upper()

    def batch(tuples):
        return [str(value).upper() for (value,) in tuples]

    def cheap_tier(value):
        return "COMEDY" if value == "comedy" else None

    db.register_udf(
        "SLOW",
        scalar,
        expensive=True,
        batch=batch,
        cheap=cheap_tier if cheap else None,
    )
    db.bind_udf_meters(usage=usage)
    if shards is not None:
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=2)
    return db


def faulty(script, **plan) -> FaultyLM:
    return FaultyLM(
        SimulatedLM(LMConfig(seed=0)),
        FaultPlan(script=tuple(script), **plan),
    )


@dataclass
class World:
    """What a case may use: the shared fixtures."""

    datasets: dict
    suite: list


@dataclass
class Case:
    name: str
    #: Runs the layer; returns the Usage it bound.
    drive: Callable[[World], Usage]
    #: Every non-zero counter of METERED, exactly.
    usage: dict[str, int] = field(default_factory=dict)


# -- the engine -----------------------------------------------------------


def statement(method: str = "execute", **build) -> Callable[[World], Usage]:
    def drive(world: World) -> Usage:
        usage = Usage()
        db = udf_database(usage, **build)
        getattr(db, method)(UDF_SQL, udf_batch_size=4)
        return usage

    return drive


def truncation(method: str) -> Callable[[World], Usage]:
    def drive(world: World) -> Usage:
        usage = Usage()
        db = udf_database(usage)
        getattr(db, method)("SELECT s FROM t", max_rows=3)
        db.execute("SELECT s FROM t WHERE n > 2", max_rows=6)  # drops none
        return usage

    return drive


ENGINE = [
    Case(
        "batched statement",
        statement(),
        {"udf_cache_hits": 13, "udf_cache_misses": 3, "optimizer_decisions": 1},
    ),
    Case(
        "cascade statement",
        statement(cheap=True),
        {
            "udf_cache_hits": 13,
            "udf_cache_misses": 2,
            "cascade_cheap_hits": 1,
            "cascade_escalations": 2,
            "optimizer_decisions": 2,
        },
    ),
    *(
        Case(
            f"batched statement through Exchange, {shards} shard(s)",
            statement(shards=shards),
            {
                "udf_cache_hits": 10,
                "udf_cache_misses": 6,
                "optimizer_decisions": 2,
            },
        )
        for shards in (1, 2, 8)
    ),
    *(
        Case(
            f"cascade statement through Exchange, {shards} shard(s)",
            statement(cheap=True, shards=shards),
            {
                "udf_cache_hits": 10,
                "udf_cache_misses": 4,
                "cascade_cheap_hits": 2,
                "cascade_escalations": 4,
                "optimizer_decisions": 3,
            },
        )
        for shards in (1, 2, 8)
    ),
    Case(
        "optimizer decision via explain",
        statement("explain"),
        {"optimizer_decisions": 1},
    ),
    Case(
        "optimizer decision via explain_analyze",
        statement("explain_analyze"),
        {"udf_cache_hits": 13, "udf_cache_misses": 3, "optimizer_decisions": 1},
    ),
    Case(
        "max_rows truncation via execute",
        truncation("execute"),
        {"rows_truncated": 5},
    ),
    Case(
        "max_rows truncation via explain_analyze",
        truncation("explain_analyze"),
        {"rows_truncated": 5},
    ),
]


# -- the repair loop -------------------------------------------------------


def repair(garbled: int) -> Callable[[World], Usage]:
    def drive(world: World) -> Usage:
        dataset = world.datasets["formula_1"]
        lm = faulty(["malformed_sql"] * garbled)
        pipeline = SelfCorrectingPipeline(
            LMQuerySynthesizer(lm, dataset),
            SQLExecutor(dataset.db, analyze=True),
            NoGenerator(),
            lm=lm,
            schema_sql=dataset.prompt_schema(),
            policy=RepairPolicy(max_repairs=2),
        )
        question = next(
            spec.question
            for spec in world.suite
            if spec.domain == "formula_1"
        )
        assert pipeline.run(question).ok == (garbled <= 2)
        return lm.usage

    return drive


REPAIR = [
    Case(
        "repair loop that succeeds",
        repair(1),
        {"repair_attempts": 1, "repair_successes": 1},
    ),
    Case(
        "repair loop that exhausts",
        repair(3),
        {"repair_attempts": 2, "repair_exhausted": 1},
    ),
    Case("pipeline that needs no repair", repair(0)),
]


# -- the semantic cache ----------------------------------------------------


def semantic(world: World) -> Usage:
    usage = Usage()
    cache = SemanticResultCache(capacity=8, threshold=0.6, usage=usage)

    def result(answer) -> TAGResult:
        return TAGResult(request="q", query="SELECT 1", answer=answer)

    assert cache.lookup("Top romance movies") is None  # miss
    cache.store("Top romance movies", result(1))
    assert cache.lookup("top romance movie").via == "exact"
    assert cache.lookup("Top of the romance movies chart").via == "near"
    cache.meter_coalesced()  # an in-run duplicate: a hit
    cache.store("Average voter age", result(2))
    assert cache.invalidate() == 2
    assert cache.invalidate() == 0  # evicts nothing, meters nothing
    assert cache.lookup("Top romance movies") is None  # miss
    return usage


def disabled_semantic(world: World) -> Usage:
    usage = Usage()
    cache = SemanticResultCache(capacity=0, usage=usage)
    assert cache.lookup("Top movies") is None
    assert cache.lookup("Top movies") is None
    return usage


SEMCACHE = [
    Case(
        "semantic cache: exact, near, miss, coalesced, invalidate",
        semantic,
        {
            "semcache_hits": 2,
            "semcache_near_hits": 1,
            "semcache_misses": 2,
            "semcache_invalidations": 2,
        },
    ),
    Case(
        "disabled semantic cache",
        disabled_semantic,
        {"semcache_misses": 2},
    ),
]


# -- the resilience middleware ---------------------------------------------


def retried(world: World) -> Usage:
    lm = ResilientLM(
        faulty(["transient", "transient", None]),
        ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
    )
    assert lm.complete(PROMPT).text
    return lm.usage


def tripped(world: World) -> Usage:
    lm = ResilientLM(
        faulty(["transient"] * 2),
        ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(
                failure_threshold=2, reset_timeout_s=1000.0
            ),
        ),
    )
    for _ in range(2):
        with pytest.raises(TransientLMError):
            lm.complete(PROMPT)
    return lm.usage


def killed(world: World) -> Usage:
    lm = ResilientLM(
        faulty(["timeout", "timeout", None], timeout_s=30.0),
        ResiliencePolicy(
            retry=RetryPolicy(
                max_attempts=5, base_backoff_s=1.0, jitter=0.0
            ),
            deadline_s=40.0,
        ),
    )
    with pytest.raises(DeadlineExceededError):
        lm.complete(PROMPT)
    return lm.usage


def healthy(world: World) -> Usage:
    lm = ResilientLM(
        faulty([None]),
        ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3),
            deadline_s=40.0,
            breaker=BreakerPolicy(),
        ),
    )
    assert lm.complete(PROMPT).text
    return lm.usage


def plain_statement(world: World) -> Usage:
    usage = Usage()
    db = udf_database(usage)
    for run in (db.execute, db.explain, db.explain_analyze):
        run("SELECT s FROM t WHERE n > 2")
    return usage


RESILIENCE = [
    Case("a request retried twice", retried, {"retries": 2}),
    Case("a breaker trip", tripped, {"breaker_trips": 1}),
    Case(
        "a deadline kill",
        killed,
        {"retries": 1, "deadline_exceeded": 1},
    ),
    Case("a healthy call through the middleware", healthy),
    Case("a statement with nothing to meter", plain_statement),
]

CASES = ENGINE + REPAIR + SEMCACHE + RESILIENCE


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_usage_equals_metric_equals_expected(case, datasets, suite):
    usage = case.drive(World(datasets, suite))
    for name in METERED:
        assert getattr(usage, name) == case.usage.get(name, 0), name


def test_every_dual_sink_counter_is_driven():
    driven = {name for case in CASES for name in case.usage}
    assert driven == set(METERED)
    assert all(hasattr(Usage(), name) for name in driven)


@pytest.mark.parametrize(
    "build, rules",
    [
        ({}, ["route"]),
        ({"cheap": True}, ["route", "cascade"]),
        *(
            ({"shards": shards}, ["route", "shard-parallel"])
            for shards in (1, 2, 8)
        ),
        *(
            (
                {"cheap": True, "shards": shards},
                ["route", "cascade", "shard-parallel"],
            )
            for shards in (1, 2, 8)
        ),
    ],
    ids=str,
)
def test_each_metered_decision_is_a_footer_line(build, rules):
    """Which rules ``optimizer_decisions`` counted is read off the
    EXPLAIN ``Optimizer:`` footer, one line per decision."""
    usage = Usage()
    db = udf_database(usage, **build)
    rendered = db.explain(UDF_SQL, udf_batch_size=4)
    footer = rendered[rendered.index("Optimizer:") :].splitlines()[1:]
    assert [line.split(":")[0].strip() for line in footer] == rules
    assert usage.optimizer_decisions == len(rules)


# -- contention ------------------------------------------------------------


@pytest.mark.parametrize("usages", [1, 2], ids=["one usage", "two usages"])
@pytest.mark.parametrize("threads, each", [(4, 50_000), (16, 20_000)])
def test_no_count_is_lost_under_contention(threads, each, usages):
    """``Usage.x += n`` is a read-modify-write: concurrent statements
    (two serving workers, or two databases bound to one ``lm.usage``)
    must not lose increments.  Each thread adds through
    ``trace.count``, the call a statement makes when it ends, to one of
    ``usages`` shared Usages."""
    shared = [Usage() for _ in range(usages)]
    errors: list[BaseException] = []

    def work(usage: Usage) -> None:
        try:
            for _ in range(each):
                trace.count(usage, udf_cache_hits=1)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    workers = [
        threading.Thread(target=work, args=(shared[n % usages],))
        for n in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    assert [usage.udf_cache_hits for usage in shared] == [
        threads // usages * each
    ] * usages


# -- the seam ----------------------------------------------------------------


def test_usage_add_refuses_what_it_does_not_know():
    usage = Usage()
    with pytest.raises(KeyError):
        usage.add(lm_calls=1)
    with pytest.raises(KeyError):
        usage.add(udf_cache_hits=5, no_such_counter=0)
    assert usage == Usage()  # refused before anything was counted


def test_adding_zero_changes_nothing():
    """A zero amount is not even a write: no lock, no checker event."""
    from repro.obs import racecheck
    from repro.obs.racecheck import RaceChecker

    usage = Usage()
    checker = RaceChecker()
    with racecheck.checking(checker):
        usage.add(udf_cache_hits=0, simulated_seconds=0.0)
        usage.add()
    assert usage == Usage()
    assert checker.report().events == 0


#: A class's own attribute that shares a Usage field's name, as
#: ``(module, class, attribute)``: an aggregate's argument, an error's
#: payload, a request scope's charge.  Any other store to a field name,
#: ``self.retries += 1`` included, is a second sink.
NOT_USAGE = {
    ("db/plan.py", "Aggregate", "calls"),
    ("errors.py", "ContextLengthError", "prompt_tokens"),
    ("obs/trace.py", "RequestScope", "cache_hits"),
}


def _stored_attributes(node: ast.AST):
    """``(attribute, through self)`` for each attribute a node stores."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        for part in ast.walk(target):
            if isinstance(part, ast.Attribute):
                through_self = (
                    isinstance(part.value, ast.Name)
                    and part.value.id == "self"
                )
                yield part.attr, through_self


def _classes(tree: ast.AST):
    """Each node with the name of the innermost class holding it."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.ClassDef) else owner
            yield child, name
            yield from visit(child, name)

    yield from visit(tree, None)


def test_only_usage_add_writes_a_counter():
    """Adding a counter is a Usage field and the ``add`` call that
    emits it: outside ``lm/usage.py`` no module stores to an attribute
    named after any of the 25 fields or ``setattr``s one, except the
    few :data:`NOT_USAGE` classes' own attributes."""
    from repro.lm import usage as module

    fields = {field.name for field in dataclasses.fields(Usage)}
    assert len(fields) == 25
    source = Path(module.__file__).parents[1]
    offenders, exempted = [], set()
    for path in sorted(source.rglob("*.py")):
        if path == Path(module.__file__):
            continue
        relative = path.relative_to(source).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, owner in _classes(tree):
            found = []
            for name, through_self in _stored_attributes(node):
                site = (relative, owner, name)
                if through_self and site in NOT_USAGE:
                    exempted.add(site)
                elif name in fields:
                    found.append(name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in fields
            ):
                found.append(node.args[1].value)
            offenders += [
                f"{relative}:{node.lineno}: {name}" for name in found
            ]
    assert offenders == []
    assert exempted == NOT_USAGE  # no stale exemption


def _counted_names(node: ast.AST):
    """Counter names a call in ``src/`` emits literally: the keywords
    of an ``add(...)`` or ``count(usage, ...)``, and the key of a
    ``tally(stats, "name", amount)``."""
    if not isinstance(node, ast.Call):
        return
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )
    if name in ("add", "count"):
        for keyword in node.keywords:
            if keyword.arg is not None:
                yield keyword.arg
    elif (
        name == "tally"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
    ):
        yield node.args[1].value


def test_every_counted_name_is_a_usage_field():
    """Usage.add refuses an unknown name at run time, but an unbound
    holder never calls it; so, statically: every counter name emitted
    anywhere in ``src/`` is a field, and every field is emitted."""
    from repro.lm import usage as module

    fields = {field.name for field in dataclasses.fields(Usage)}
    source = Path(module.__file__).parents[1]
    named, unknown = set(), []
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for name in _counted_names(node):
                named.add(name)
                if name not in fields:
                    where = path.relative_to(source).as_posix()
                    unknown.append(f"{where}:{node.lineno}: {name}")
    assert unknown == []
    assert named == fields
