"""Stateful pin of what a repeated statement must keep answering.

``Database.execute`` may reuse what it derived from a statement's text
the last time it saw it.  Whatever it reuses, a statement issued again
after *any* interleaving of writes, index builds, partitioning changes,
sharding configuration, UDF re-registration and drop-and-recreate DDL —
through ``Database`` or through the public ``Table`` and
``FunctionRegistry`` methods that bypass it — must answer exactly what a
database that has never seen the statement answers.

Two foreign-key-linked tables and a fixed pool of SELECT texts (point,
range + ORDER BY + LIMIT, key join, aggregates, IN-subquery, plain and
expensive UDFs, one whose verdict follows a column's type, one the
analyzer always rejects, one that fails at run time), and literal
siblings of those texts: the same shapes with other constants.  After
every step, for every pool text: rows (and order where ordered) equal a live
``sqlite3`` mirror where SQLite can follow, and the outcome — rows, or
the error's type and message — equals ``execute`` on a ``Database``
rebuilt from scratch from the live tables; ``db.explain(sql)`` equals
the rebuilt database's; and the optimizer decisions and truncated rows
metered into a bound ``Usage`` equal the rebuilt database's.  The file
was written against an engine with no statement cache and pins the
engine that has one; the one invariant added with the cache is that a
plan it keeps renders the EXPLAIN a fresh plan does.
"""

from __future__ import annotations

import sqlite3

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.db import Column, Database, DataType, ForeignKey, TableSchema
from repro.errors import ReproError, SchemaError
from repro.lm.usage import Usage

#: (sql, SQLite can follow, rows come out in a defined order).
POOL = (
    ("SELECT id, amount, status FROM orders WHERE id = 3", True, True),
    (
        "SELECT id, amount FROM orders WHERE id BETWEEN 2 AND 9 "
        "ORDER BY id LIMIT 4",
        True,
        True,
    ),
    (
        "SELECT o.id, o.amount, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id WHERE c.id = 1",
        True,
        False,
    ),
    (
        "SELECT customer_id, COUNT(*), SUM(amount) FROM orders "
        "GROUP BY customer_id ORDER BY customer_id",
        True,
        True,
    ),
    (
        "SELECT id FROM orders WHERE customer_id IN "
        "(SELECT id FROM customers WHERE name <> 'c2') ORDER BY id",
        True,
        True,
    ),
    (
        "SELECT id, amount FROM orders WHERE status = 'open' "
        "ORDER BY amount DESC, id LIMIT 3",
        True,
        True,
    ),
    (
        "SELECT c.id, COUNT(o.id) FROM customers c "
        "LEFT JOIN orders o ON o.customer_id = c.id "
        "GROUP BY c.id ORDER BY c.id",
        True,
        True,
    ),
    (
        "SELECT id, status FROM orders WHERE amount >= 1.5 ORDER BY id",
        True,
        True,
    ),
    # A registered UDF, whose body the rules replace.
    (
        "SELECT id, LABEL(status) FROM orders WHERE id < 6 ORDER BY id",
        False,
        True,
    ),
    # An expensive UDF: batched, so its plan carries run state.
    (
        "SELECT id FROM orders WHERE JUDGE(status) = 'yes' ORDER BY id",
        False,
        True,
    ),
    # Accepted while customers.tier is INTEGER, rejected once it is TEXT.
    ("SELECT id, ABS(tier) FROM customers ORDER BY id", False, True),
    # Always rejected by the analyzer (and by the planner, for EXPLAIN).
    ("SELECT nope FROM orders", False, True),
    # Fails at run time whenever an amount exceeds STRICT's limit.
    ("SELECT id, STRICT(amount) FROM orders ORDER BY id", False, True),
    # Literal siblings of the texts above: same shape, other constants,
    # spacing and spelling, so what one text's shape derived is reused
    # for another's constants.
    ("SELECT id, amount, status FROM orders WHERE id = 10", True, True),
    (
        "SELECT  id, amount FROM orders WHERE id BETWEEN 7 AND 11 "
        "ORDER BY id LIMIT 2",
        True,
        True,
    ),
    (
        "select o.id, o.amount, c.name from orders o "
        "join customers c on o.customer_id = c.id where c.id = 3",
        True,
        False,
    ),
    (
        "SELECT id FROM orders WHERE customer_id IN "
        "(SELECT id FROM customers WHERE name <> 'c0') ORDER BY id",
        True,
        True,
    ),
    (
        "SELECT id, amount FROM orders WHERE status = 'paid' "
        "ORDER BY amount DESC, id LIMIT 1",
        True,
        True,
    ),
    (
        "SELECT id, status FROM orders WHERE amount >= 0.5 ORDER BY id",
        True,
        True,
    ),
    (
        "SELECT id, status FROM orders WHERE amount >= 2 ORDER BY id",
        True,
        True,
    ),
    (
        "SELECT id, LABEL(status) FROM orders WHERE id < 11 ORDER BY id",
        False,
        True,
    ),
    (
        "SELECT id FROM orders WHERE JUDGE(status) = 'no' ORDER BY id",
        False,
        True,
    ),
    (
        "SELECT id, ABS(tier) FROM customers WHERE id >= 1 ORDER BY 1",
        False,
        True,
    ),
    (
        "SELECT id, ABS(tier) FROM customers WHERE id >= 2 ORDER BY 2, 1",
        False,
        True,
    ),
    (
        "SELECT id, STRICT(amount) FROM orders WHERE id > 4 ORDER BY id",
        False,
        True,
    ),
)

ORDER_IDS = st.integers(min_value=0, max_value=11)
CUSTOMER_IDS = st.integers(min_value=0, max_value=4)
AMOUNTS = st.sampled_from([None, 0.5, 1.5, 2.0, 4.0])
STATUSES = st.sampled_from([None, "open", "paid", "void"])
TIERS = st.integers(min_value=0, max_value=2)

#: Columns the rules may index, by table.
INDEXABLE = (
    ("orders", "id"),
    ("orders", "customer_id"),
    ("orders", "status"),
    ("orders", "amount"),
    ("customers", "id"),
    ("customers", "name"),
)

#: Bodies LABEL is re-registered with (same name, different answers).
LABELS = (
    lambda status: None if status is None else status.upper(),
    lambda status: None if status is None else status[::-1],
    lambda status: "?" if status is None else status[:1],
)


def judge(status):
    return "yes" if status == "open" else "no"


def strict(limit):
    def function(amount):
        if amount is not None and amount > limit:
            raise ValueError(f"amount {amount} over {limit}")
        return amount

    return function


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def customers_schema(tier: DataType) -> TableSchema:
    return TableSchema(
        "customers",
        [
            Column("id", DataType.INTEGER, nullable=False, primary_key=True),
            Column("name", DataType.TEXT),
            Column("tier", tier),
        ],
    )


def orders_schema() -> TableSchema:
    return TableSchema(
        "orders",
        [
            Column("id", DataType.INTEGER, nullable=False, primary_key=True),
            Column("customer_id", DataType.INTEGER, nullable=False),
            Column("amount", DataType.REAL),
            Column("status", DataType.TEXT),
        ],
        [ForeignKey("customer_id", "customers", "id")],
    )


def outcome(call):
    """What a call answered: its value, or its error's type and text."""
    try:
        return ("ok", call())
    except ReproError as error:
        return ("error", type(error).__name__, str(error))


def metered(usage: Usage, earlier: Usage) -> tuple[int, int]:
    """What planning and truncation metered since ``earlier`` (the UDF
    memo's hits depend on history, which a rebuilt database lacks)."""
    delta = usage.since(earlier)
    return delta.optimizer_decisions, delta.rows_truncated


class StatementMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.db = Database()
        self.usage = Usage()
        self.db.bind_udf_meters(usage=self.usage)
        self.mirror = sqlite3.connect(":memory:")
        # What a from-scratch rebuild needs beyond the live rows.
        self.tier = DataType.INTEGER
        self.indexes: set[tuple[str, str]] = set()
        self.partition: tuple[str, int] | None = None
        self.workers: int | None = None
        self.label = 0
        self.limit = 2.0
        self.db.create_table(customers_schema(self.tier))
        self.db.create_table(orders_schema())
        self.mirror.execute(
            "CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, "
            "tier INTEGER)"
        )
        self.mirror.execute(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
            "customer_id INTEGER NOT NULL, amount REAL, status TEXT)"
        )
        self.register(self.db)
        # Indexed from the start, so the key join's access path follows
        # the statistics from the first write on.
        for indexed in (("orders", "customer_id"), ("customers", "id")):
            self.db.create_index(*indexed)
            self.indexes.add(indexed)
        for id in range(4):
            self.write(
                f"INSERT INTO customers VALUES ({id}, 'c{id}', {id % 3})"
            )
        for id in range(8):
            self.write(
                f"INSERT INTO orders VALUES ({id}, {id % 4}, "
                f"{literal((None, 0.5, 1.5, 2.0)[id % 4])}, "
                f"{literal(('open', 'paid', None)[id % 3])})"
            )

    # -- the model -------------------------------------------------------

    def register(self, db: Database) -> None:
        db.register_udf("LABEL", LABELS[self.label])
        db.register_udf("JUDGE", judge, expensive=True)
        db.register_udf("STRICT", strict(self.limit))

    def rebuilt(self) -> tuple[Database, Usage]:
        """A database that has never executed anything, holding what
        the live one holds."""
        fresh = Database()
        usage = Usage()
        fresh.bind_udf_meters(usage=usage)
        for name in ("customers", "orders"):
            live = self.db.table(name)
            fresh.create_table(
                TableSchema(
                    name, live.schema.columns, live.schema.foreign_keys
                )
            )
            fresh.insert(name, live.rows)
        for table, column in sorted(self.indexes):
            fresh.create_index(table, column)
        if self.partition is not None:
            fresh.set_partitioning(
                "orders", self.partition[0], shards=self.partition[1]
            )
        if self.workers is not None:
            fresh.configure_sharding(workers=self.workers)
        self.register(fresh)
        return fresh, usage

    def write(self, sql: str, direct=None) -> None:
        """One write on the mirror and on the engine — as SQL, or as
        ``direct()`` on a ``Table`` — with the same outcome."""
        try:
            self.mirror.execute(sql)
        except sqlite3.IntegrityError:
            self.mirror.rollback()
            expected = False
        else:
            self.mirror.commit()
            expected = True
        try:
            if direct is None:
                self.db.execute(sql)
            else:
                direct()
        except SchemaError:
            applied = False
        else:
            applied = True
        assert applied == expected, sql

    def row_id(self, table: str, id: int) -> int | None:
        for row_id, row in enumerate(self.db.table(table).rows):
            if row[0] == id:
                return row_id
        return None

    # -- reads -----------------------------------------------------------

    @rule(
        text=st.sampled_from(POOL),
        twice=st.booleans(),
        optimize=st.booleans(),
        batch=st.sampled_from(["auto", None, 2]),
        max_rows=st.sampled_from([None, 0, 2]),
    )
    def execute_a_pool_text(self, text, twice, optimize, batch, max_rows):
        sql = text[0]
        fresh, fresh_usage = self.rebuilt()
        options = dict(
            analyze=True,
            optimize=optimize,
            udf_batch_size=batch,
            max_rows=max_rows,
        )
        for _ in range(1 + twice):
            self.same_outcome(sql, fresh, fresh_usage, options)

    def same_outcome(self, sql, fresh, fresh_usage, options):
        """``sql`` answers, and meters, as on ``fresh``; returns the
        answer."""
        before = (self.usage.snapshot(), fresh_usage.snapshot())
        got = outcome(lambda: self.db.execute(sql, **options).rows)
        expected = outcome(lambda: fresh.execute(sql, **options).rows)
        assert got == expected, (sql, options)
        assert metered(self.usage, before[0]) == metered(
            fresh_usage, before[1]
        ), (sql, options)
        # The text has just run under these options: a plan kept for
        # them is the one it ran, and renders as a fresh one does.
        planned = {
            key: options[key]
            for key in ("optimize", "udf_batch_size")
            if key in options
        }
        kept = self.db._lookup(sql)
        if kept is not None and kept.options == (
            planned.get("optimize", True),
            planned.get("udf_batch_size", "auto"),
        ):
            rendered = kept.plan.explain()
            if kept.report is not None and kept.report.decisions:
                rendered += "\n" + kept.report.render()
            assert rendered == self.db.explain(sql, **planned), (sql, options)
        return got

    # -- writes through SQL ----------------------------------------------

    @rule(id=ORDER_IDS, customer=CUSTOMER_IDS, amount=AMOUNTS, status=STATUSES)
    def insert_order(self, id, customer, amount, status):
        self.write(
            f"INSERT INTO orders VALUES ({id}, {customer}, "
            f"{literal(amount)}, {literal(status)})"
        )

    @rule(id=ORDER_IDS, amount=AMOUNTS, status=STATUSES)
    def update_order(self, id, amount, status):
        self.write(
            f"UPDATE orders SET amount = {literal(amount)}, "
            f"status = {literal(status)} WHERE id = {id}"
        )

    @rule(customer=CUSTOMER_IDS, new=CUSTOMER_IDS)
    def move_orders(self, customer, new):
        self.write(
            f"UPDATE orders SET customer_id = {new} "
            f"WHERE customer_id = {customer}"
        )

    @rule(id=ORDER_IDS)
    def delete_order(self, id):
        self.write(f"DELETE FROM orders WHERE id = {id}")

    @rule(status=STATUSES.filter(lambda status: status is not None))
    def delete_orders_by_status(self, status):
        self.write(f"DELETE FROM orders WHERE status = '{status}'")

    @rule(id=CUSTOMER_IDS, tier=TIERS)
    def insert_customer(self, id, tier):
        self.write(f"INSERT INTO customers VALUES ({id}, 'c{id}', {tier})")

    @rule(id=CUSTOMER_IDS)
    def rename_customer(self, id):
        self.write(f"UPDATE customers SET name = 'c2' WHERE id = {id}")

    @rule(id=CUSTOMER_IDS)
    def delete_customer(self, id):
        self.write(f"DELETE FROM customers WHERE id = {id}")

    # -- writes through Table, past the Database -------------------------

    @rule(id=ORDER_IDS, customer=CUSTOMER_IDS, amount=AMOUNTS, status=STATUSES)
    def insert_order_directly(self, id, customer, amount, status):
        self.write(
            f"INSERT INTO orders VALUES ({id}, {customer}, "
            f"{literal(amount)}, {literal(status)})",
            lambda: self.db.table("orders").insert(
                [id, customer, amount, status]
            ),
        )

    @rule(id=ORDER_IDS, amount=AMOUNTS)
    def update_order_directly(self, id, amount):
        row_id = self.row_id("orders", id)
        if row_id is None:
            return
        table = self.db.table("orders")
        row = list(table.rows[row_id])
        row[2] = amount
        self.write(
            f"UPDATE orders SET amount = {literal(amount)} WHERE id = {id}",
            lambda: table.update_rows([(row_id, row)]),
        )

    @rule(id=ORDER_IDS)
    def delete_order_directly(self, id):
        row_id = self.row_id("orders", id)
        if row_id is None:
            return
        self.write(
            f"DELETE FROM orders WHERE id = {id}",
            lambda: self.db.table("orders").delete_rows([row_id]),
        )

    # -- access paths, partitioning, sharding ----------------------------

    @rule(indexed=st.sampled_from(INDEXABLE), direct=st.booleans())
    def create_index(self, indexed, direct):
        table, column = indexed
        if direct:
            self.db.table(table).create_index(column)
        else:
            self.db.create_index(table, column)
        self.indexes.add(indexed)

    @rule(
        column=st.sampled_from(["customer_id", "id"]),
        shards=st.sampled_from([1, 2, 3]),
    )
    def set_partitioning(self, column, shards):
        self.db.set_partitioning("orders", column, shards=shards)
        self.partition = (column, shards)

    @rule()
    def clear_partitioning(self):
        self.db.clear_partitioning("orders")
        self.partition = None

    @rule(workers=st.sampled_from([1, 2]))
    def configure_sharding(self, workers):
        self.db.configure_sharding(workers=workers)
        self.workers = workers

    # -- functions -------------------------------------------------------

    @rule(label=st.integers(min_value=0, max_value=len(LABELS) - 1))
    def register_label_again(self, label):
        self.label = label
        self.db.register_udf("LABEL", LABELS[label])

    @rule(limit=st.sampled_from([0.0, 2.0, 10.0]))
    def register_strict_on_the_registry(self, limit):
        self.limit = limit
        self.db.functions.register_scalar("STRICT", strict(limit))

    # -- DDL -------------------------------------------------------------

    @rule()
    def recreate_customers_with_another_tier_type(self):
        """Same table name, same rows, ``tier`` INTEGER <-> TEXT."""
        rows = [list(row) for row in self.db.table("customers").rows]
        self.tier = (
            DataType.TEXT
            if self.tier is DataType.INTEGER
            else DataType.INTEGER
        )
        self.db.drop_table("customers")
        self.db.create_table(customers_schema(self.tier))
        self.db.insert("customers", rows)
        self.indexes = {
            indexed for indexed in self.indexes if indexed[0] != "customers"
        }

    # -- what must hold after every step ---------------------------------

    @invariant()
    def every_pool_text_answers_as_a_database_that_never_saw_it(self):
        fresh, fresh_usage = self.rebuilt()
        options = dict(analyze=True)
        for sql, sqlite_follows, ordered in POOL:
            got = self.same_outcome(sql, fresh, fresh_usage, options)
            if sqlite_follows:
                assert got[0] == "ok", (sql, got)
                expected = self.mirror.execute(sql).fetchall()
                if ordered:
                    assert got[1] == expected, sql
                else:
                    assert sorted(got[1]) == sorted(expected), sql
            assert outcome(lambda: self.db.explain(sql)) == outcome(
                lambda: fresh.explain(sql)
            ), sql

    def teardown(self):
        if hasattr(self, "mirror"):
            self.mirror.close()


TestStatementMachine = StatementMachine.TestCase
TestStatementMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
