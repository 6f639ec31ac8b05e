"""What the statement cache keeps, when, and for how long.

The stateful pin (``test_statement_cache.py``) says a repeated
statement answers as one never seen; these tests say what is reused on
the way: the cache's own counts, what is and is not admitted, which
changes void an entry and which only its plan, that hits meter what
misses meter, and that workers sharing one ``Database`` may race on it.
"""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from benchmarks.perf import gen
from benchmarks.perf.workloads import _load_database
from repro.db import Database
from repro.db.stmtcache import CAPACITY
from repro.errors import ReproError
from repro.lm.usage import Usage
from tests.db.test_statistics_pin import INSERTS, PER_ROW, per_row_database

POINT = "SELECT id, amount FROM orders WHERE id = 3"
RANGE = "SELECT id FROM orders WHERE id BETWEEN 2 AND 9 ORDER BY id LIMIT 4"
KEY_JOIN = (
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id WHERE c.id = 1"
)
SUBQUERY = (
    "SELECT id FROM orders WHERE customer_id IN "
    "(SELECT id FROM customers WHERE name <> 'c2') ORDER BY id"
)
JUDGED = "SELECT id FROM orders WHERE JUDGE(status) = 'yes' ORDER BY id"


@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT)")
    db.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
        "customer_id INTEGER NOT NULL, amount REAL, status TEXT)"
    )
    for id in range(4):
        db.execute(f"INSERT INTO customers VALUES ({id}, 'c{id}')")
    for id in range(12):
        db.execute(
            f"INSERT INTO orders VALUES ({id}, {id % 4}, {id * 0.5}, "
            f"'{('open', 'paid')[id % 2]}')"
        )
    for table, column in (
        ("orders", "id"),
        ("orders", "customer_id"),
        ("customers", "id"),
    ):
        db.create_index(table, column)
    db.register_udf(
        "JUDGE", lambda status: "yes" if status == "open" else "no",
        expensive=True,
    )
    return db


def counts(db: Database) -> tuple[int, int, int]:
    cache = db.statement_cache
    return cache.hits, cache.misses, cache.plan_hits


def run(db: Database, sql: str, times: int, **options) -> list[tuple]:
    first = db.execute(sql, **options).rows
    for _ in range(times - 1):
        assert db.execute(sql, **options).rows == first
    return first


class TestAdmission:
    def test_ast_at_first_sight_plan_from_the_first_repeat(self, db):
        start = counts(db)
        db.execute(POINT, analyze=True)
        assert counts(db) == (start[0], start[1] + 1, start[2])
        kept = db._lookup(POINT)
        assert kept.analyzed and kept.plan is None
        before = counts(db)
        db.execute(POINT, analyze=True)
        assert counts(db) == (before[0] + 1, before[1], before[2])
        assert db._lookup(POINT).plan is not None
        before = counts(db)
        db.execute(POINT, analyze=True)
        assert counts(db) == (before[0] + 1, before[1], before[2] + 1)

    def test_verdict_is_kept_only_once_the_analyzer_gave_it(self, db):
        db.execute(POINT)
        assert not db._lookup(POINT).analyzed
        db.execute(POINT, analyze=True)
        assert db._lookup(POINT).analyzed

    @pytest.mark.parametrize(
        "sql",
        [
            "SELEC id FROM orders",
            "SELECT nope FROM orders",
            "SELECT id FROM missing",
            "SELECT id, amount + status FROM orders",
            "INSERT INTO customers VALUES (9, 'c9')",
            "UPDATE customers SET name = 'x' WHERE id = 9",
            "DELETE FROM customers WHERE id = 9",
        ],
    )
    @pytest.mark.parametrize("analyze", [False, True])
    def test_failures_and_writes_are_never_kept(self, db, sql, analyze):
        outcomes = []
        for _ in range(3):
            try:
                outcomes.append(db.execute(sql, analyze=analyze).columns)
            except ReproError as error:
                outcomes.append((type(error), str(error)))
        assert len(db.statement_cache) == 0
        if not sql.startswith(("INSERT", "UPDATE", "DELETE")):
            assert isinstance(outcomes[0], tuple)
            assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_a_statement_that_starts_failing_keeps_failing(self, db):
        limit = [100.0]

        def strict(amount):
            if amount > limit[0]:
                raise ValueError("over")
            return amount

        db.register_udf("STRICT", strict)
        sql = "SELECT STRICT(amount) FROM orders ORDER BY id"
        run(db, sql, 3)
        assert db._lookup(sql).plan is not None
        limit[0] = 1.0
        for _ in range(2):
            with pytest.raises(ReproError, match="over"):
                db.execute(sql)
        limit[0] = 100.0
        assert len(db.execute(sql).rows) == 12

    def test_explain_paths_keep_nothing_and_plan_afresh(self, db):
        for _ in range(3):
            db.explain(POINT)
            db.explain_analyze(POINT, analyze=True)
        assert len(db.statement_cache) == 0
        assert db.statement_cache.plan_hits == 0
        run(db, POINT, 3, analyze=True)
        hits = db.statement_cache.plan_hits
        assert db.explain_analyze(POINT, analyze=True).result.rows == [
            (3, 1.5)
        ]
        assert db.statement_cache.plan_hits == hits

    def test_capacity_is_bounded_and_least_recent_goes_first(self, db):
        texts = [
            f"SELECT id FROM orders WHERE id = {n}"
            for n in range(CAPACITY + 5)
        ]
        for sql in texts[:CAPACITY]:
            db.execute(sql)
        db.execute(texts[0])  # promoted: the oldest is now texts[1]
        for sql in texts[CAPACITY:]:
            db.execute(sql)
        assert len(db.statement_cache) == CAPACITY
        assert db._lookup(texts[0]) is not None
        assert db._lookup(texts[1]) is None
        assert db._lookup(texts[-1]) is not None


class TestOnlyPlansThatMayRunAgainAreKept:
    @pytest.mark.parametrize(
        "sql, options, node",
        [
            (SUBQUERY, {}, "Filter"),
            (JUDGED, {}, "BatchedFilter"),
            (JUDGED, {"udf_batch_size": 4}, "BatchedFilter"),
        ],
    )
    def test_run_state_outside_execute_means_ast_only(
        self, db, sql, options, node
    ):
        assert node in db.explain(sql, **options)
        run(db, sql, 4, analyze=True, **options)
        kept = db._lookup(sql)
        assert kept.analyzed and kept.plan is None
        assert db.statement_cache.plan_hits == 0

    def test_sharded_plans_are_not_kept(self, db):
        db.set_partitioning("orders", "customer_id", shards=2)
        sql = "SELECT id FROM orders WHERE amount >= 1.5 ORDER BY id"
        assert "Exchange" in db.explain(sql)
        run(db, sql, 4)
        assert db._lookup(sql).plan is None

    def test_the_per_row_route_is_kept_with_its_report(self, db):
        rows = run(db, JUDGED, 4, udf_batch_size=None)
        assert rows == [(id,) for id in range(0, 12, 2)]
        kept = db._lookup(JUDGED)
        assert kept.options == (True, None)
        assert kept.report.route == "per-row"
        # Its report's estimates read orders' statistics, but no choice
        # of its plan did: a write leaves the plan serving.
        assert kept.weighed == ()
        hits = db.statement_cache.plan_hits
        db.execute("INSERT INTO orders VALUES (12, 0, 6.0, 'open')")
        rows = db.execute(JUDGED, udf_batch_size=None).rows
        assert rows == [(id,) for id in range(0, 13, 2)]
        assert db.statement_cache.plan_hits == hits + 1

    def test_a_plan_serves_only_the_options_it_was_built_under(self, db):
        run(db, KEY_JOIN, 3)
        assert "IndexJoin" in db._lookup(KEY_JOIN).plan.explain()
        hits = db.statement_cache.plan_hits
        rows = db.execute(KEY_JOIN, optimize=False).rows
        assert db.statement_cache.plan_hits == hits
        assert sorted(rows) == sorted(db.execute(KEY_JOIN).rows)


class TestWhatVoidsWhat:
    def test_writes_leave_plans_that_read_no_statistics(self, db):
        for sql in (POINT, RANGE):
            run(db, sql, 3)
            assert db._lookup(sql).weighed == ()
        hits = db.statement_cache.plan_hits
        db.execute("INSERT INTO orders VALUES (100, 1, 9.5, 'open')")
        db.execute("UPDATE orders SET amount = 7.0 WHERE id = 3")
        assert db.execute(POINT).rows == [(3, 7.0)]
        db.execute("DELETE FROM orders WHERE id = 4")
        assert db.execute(RANGE).rows == [(2,), (3,), (5,), (6,)]
        assert db.statement_cache.plan_hits == hits + 2

    def test_a_write_that_turns_a_choice_plans_again(self, db):
        run(db, KEY_JOIN, 3)
        kept = db._lookup(KEY_JOIN)
        assert "IndexJoin" in kept.plan.explain()
        assert [outcome for _, outcome in kept.weighed] == [True]
        hits = db.statement_cache.plan_hits
        # Three orders left: probing their index no longer pays.
        db.execute("DELETE FROM orders WHERE id > 2")
        assert db.execute(KEY_JOIN).rows == [(1, "c1")]
        assert db.statement_cache.plan_hits == hits  # planned again
        assert "HashJoin" in db._lookup(KEY_JOIN).plan.explain()
        assert db._lookup(KEY_JOIN).plan.explain() == db.explain(KEY_JOIN)
        db.execute(KEY_JOIN)
        assert db.statement_cache.plan_hits == hits + 1

    def test_a_write_that_leaves_every_choice_keeps_the_key_join(self, db):
        run(db, KEY_JOIN, 3)
        kept = db._lookup(KEY_JOIN)
        hits = db.statement_cache.plan_hits
        db.execute("UPDATE orders SET amount = 7.0 WHERE id = 5")
        db.execute("INSERT INTO customers VALUES (4, 'c4')")
        assert sorted(db.execute(KEY_JOIN).rows) == [
            (1, "c1"),
            (5, "c1"),
            (9, "c1"),
        ]
        assert db.statement_cache.plan_hits == hits + 1
        assert db._lookup(KEY_JOIN).plan is kept.plan

    def test_a_write_that_leaves_every_choice_keeps_the_per_row_join(self):
        db, calls = per_row_database([])
        run(db, PER_ROW, 2, udf_batch_size=None)
        kept = db._lookup(PER_ROW)
        hits = db.statement_cache.plan_hits
        db.execute("INSERT INTO b VALUES (9, 9, 1)")
        db.execute("UPDATE a SET x = 4 WHERE id = 1")
        del calls[:]
        rows = db.execute(PER_ROW, udf_batch_size=None).rows
        assert rows == [(1, 5), (1, 7), (1, 9)]
        assert len(calls) == 5  # still above the join: one per joined row
        assert db.statement_cache.plan_hits == hits + 1
        assert db._lookup(PER_ROW).plan is kept.plan

    def test_a_choice_is_weighed_on_the_join_as_built(self):
        """The pushdown is weighed before the join's inputs take their
        own conjuncts; its input becoming an index lookup afterwards
        does not turn the test run again."""
        db, _ = per_row_database(INSERTS)
        db.create_index("a", "id")
        sql = PER_ROW.replace("WHERE", "WHERE a.id = 1 AND")
        assert "IndexLookup" in db.explain(sql, udf_batch_size=None)
        run(db, sql, 3, udf_batch_size=None)
        assert [o for _, o in db._lookup(sql).weighed] == [False]  # below
        assert db.statement_cache.plan_hits == 1

    def test_kept_choices_close_no_reference_cycle(self):
        """A choice is kept as a partial over plan nodes, in every entry
        that keeps a plan: none closes a cycle the collector must find."""
        db = _load_database(gen.relational(0))
        hot = gen.short_hot_set(0)
        joined, _ = per_row_database([])
        gc.collect()
        gc.disable()
        try:
            for block in range(40):
                for statement in gen.short_block(0, block, hot):
                    read = statement.kind in ("point", "keyjoin", "range")
                    db.execute(statement.sql, analyze=read)
            for write in INSERTS:
                run(joined, PER_ROW, 2, udf_batch_size=None)
                joined.execute(write)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.create_index("orders", "amount"),
            lambda db: db.table("orders").create_index("amount"),
            lambda db: db.set_partitioning("orders", "id", shards=2),
            lambda db: db.table("orders").set_partitioning(None),
            lambda db: db.register_udf("JUDGE", lambda status: "no"),
            lambda db: db.functions.register_scalar("NEW", lambda: 1),
            lambda db: db.configure_sharding(workers=2),
        ],
    )
    def test_catalog_changes_void_the_whole_entry(self, db, change):
        run(db, POINT, 3, analyze=True)
        assert db._lookup(POINT).plan is not None
        change(db)
        assert db._lookup(POINT) is None
        assert db.execute(POINT, analyze=True).rows == [(3, 1.5)]
        kept = db._lookup(POINT)
        assert kept.analyzed and kept.plan is None  # a first sight again

    def test_a_recreated_table_voids_the_entry(self, db):
        run(db, POINT, 3, analyze=True)
        db.drop_table("orders")
        with pytest.raises(ReproError, match="unknown table"):
            db.execute(POINT, analyze=True)
        db.execute("CREATE TABLE orders (id TEXT, amount TEXT)")
        db.execute("INSERT INTO orders VALUES ('3', 'much')")
        assert db.execute(POINT, analyze=True).rows == []
        assert db.execute("SELECT amount FROM orders").rows == [("much",)]

    def test_changes_to_other_tables_void_nothing(self, db):
        run(db, POINT, 3)
        db.create_index("customers", "name")
        db.execute("INSERT INTO customers VALUES (7, 'c7')")
        hits = db.statement_cache.plan_hits
        db.execute(POINT)
        assert db.statement_cache.plan_hits == hits + 1


class TestHitsMeterWhatMissesMeter:
    def test_decisions_and_truncation(self, db):
        """A point lookup on a partitioned table notes why it stays
        unsharded; ``max_rows`` drops rows: both are metered per
        execution, whichever of the three ways it was answered."""
        db.set_partitioning("orders", "customer_id", shards=2)
        usage = Usage()
        db.bind_udf_meters(usage=usage)
        sql = "SELECT id FROM orders WHERE customer_id = 1"
        rendered = db.explain(sql)
        explained = usage.optimizer_decisions
        # The one decision metered per run is the footer's one line.
        assert explained == 1
        footer = rendered.split("Optimizer:\n")[1].splitlines()
        assert [line.split(":")[0].strip() for line in footer] == [
            "shard-declined"
        ]
        for seen in range(1, 5):
            assert len(db.execute(sql, max_rows=1).rows) == 1
            assert usage.optimizer_decisions == explained + seen
            assert usage.rows_truncated == 2 * seen
        assert db.statement_cache.plan_hits == 2

    def test_meters_bound_later_are_the_ones_metered(self, db):
        db.set_partitioning("orders", "customer_id", shards=2)
        sql = "SELECT id FROM orders WHERE customer_id = 1"
        run(db, sql, 3)
        usage = Usage()
        db.bind_udf_meters(usage=usage)
        db.execute(sql)
        assert usage.optimizer_decisions == 1


class TestStoredLayout:
    def test_one_layout_per_binding_for_the_tables_life(self, db):
        table = db.table("orders")
        assert table.layout("o") is table.layout("o")
        assert table.layout("o") is not table.layout("orders")
        assert table.layout("o").entries == [
            ("o", name) for name in table.schema.column_names
        ]
        first = table.layout("o")
        for alias in range(100):
            table.layout(f"a{alias}")
        assert len(table._layouts) <= 32
        assert table.layout("o").entries == first.entries


class TestWorkersShareOneDatabase:
    def test_four_readers_one_writer(self):
        """Readers hammer eight cached statements while a writer
        changes one row at a time — and now and then the indexes and
        the function registry, voiding every entry under them.  Every
        row answered must be one the table held after some write (a
        statement is not a snapshot here: a scan may straddle writes),
        so a point lookup's whole answer is one of the writer's states.
        Predicates read only ``id``, which no write moves.
        """
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        size = 6
        for id in range(size):
            db.execute(f"INSERT INTO t VALUES ({id}, 0)")
        db.create_index("t", "id")
        #: (sql, the ids it answers, in order).
        statements = [
            (f"SELECT id, v FROM t WHERE id = {id}", [id]) for id in range(5)
        ] + [
            ("SELECT id, v FROM t ORDER BY id", list(range(size))),
            (
                "SELECT id, v FROM t WHERE id BETWEEN 1 AND 4 ORDER BY id",
                [1, 2, 3, 4],
            ),
            ("SELECT id, v FROM t WHERE id <> 3 ORDER BY id", [0, 1, 2, 4, 5]),
        ]
        states = [(0,) * size]
        seen: list[set] = [set() for _ in range(4)]
        errors: list[BaseException] = []
        deadline = time.monotonic() + 1.5
        stop = threading.Event()

        def write() -> None:
            try:
                step = 0
                while time.monotonic() < deadline:
                    step += 1
                    state = list(states[-1])
                    state[step % size] = step
                    states.append(tuple(state))  # before it is visible
                    db.execute(
                        f"UPDATE t SET v = {step} WHERE id = {step % size}"
                    )
                    if step % 40 == 0:
                        db.table("t").create_index("v")
                    if step % 60 == 0:
                        db.functions.register_scalar("NOOP", lambda: step)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                stop.set()

        def read(reader: int) -> None:
            try:
                while not stop.is_set():
                    for index, (sql, _) in enumerate(statements):
                        rows = db.execute(sql, analyze=True).rows
                        seen[reader].add((index, tuple(rows)))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(reader,))
            for reader in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(states) > 50
        held = [{state[id] for state in states} for id in range(size)]
        for index, (sql, ids) in enumerate(statements):
            observed = {
                rows for reader in seen for at, rows in reader if at == index
            }
            assert observed, sql
            for rows in observed:
                assert [id for id, _ in rows] == ids, (sql, rows)
                assert all(v in held[id] for id, v in rows), (sql, rows)
        cache = db.statement_cache
        assert cache.plan_hits > 0 and len(cache) <= len(statements)
