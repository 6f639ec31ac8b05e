"""Golden EXPLAIN / EXPLAIN ANALYZE renders for the index access paths.

One range statement whose ``ORDER BY`` the ordered index satisfies (no
Sort in the plan; the Limit stops the scan after six rows) and one
key join that probes ``orders`` from a single customer.  ``rows_in`` of
each new node is its child's ``rows_out``, so the renders also pin that
the nodes expose their inputs to the instrumentation.
"""

import pytest

from repro.db import Database

RANGE_SQL = (
    "SELECT id, amount FROM orders "
    "WHERE id BETWEEN 10 AND 30 AND amount <> 30.0 ORDER BY id LIMIT 5"
)

RANGE_PLAN = """\
Limit(5, offset=0)
  Project(id, amount)
    Filter(where)
      IndexRange(orders AS orders, id >= 10 AND id <= 30, key order)"""

RANGE_ANALYZED = """\
Limit(5, offset=0) [rows_in=5 rows_out=5 vtime=0.000110s]
  Project(id, amount) [rows_in=5 rows_out=5 vtime=0.000110s]
    Filter(where) [rows_in=6 rows_out=5 vtime=0.000111s]
      IndexRange(orders AS orders, id >= 10 AND id <= 30, key order) [rows_in=0 rows_out=6 vtime=0.000106s]"""

JOIN_SQL = (
    "SELECT o.id, o.amount, c.name FROM orders o "
    "JOIN customers c ON o.customer_id = c.id WHERE c.id = 3"
)

JOIN_PLAN = """\
Project(id, amount, name)
  IndexJoin(INNER, left orders AS o ON customer_id)
    IndexLookup(customers AS c, id = 3)"""

JOIN_ANALYZED = """\
Project(id, amount, name) [rows_in=5 rows_out=5 vtime=0.000110s]
  IndexJoin(INNER, left orders AS o ON customer_id) [rows_in=1 rows_out=5 vtime=0.000106s]
    IndexLookup(customers AS c, id = 3) [rows_in=0 rows_out=1 vtime=0.000101s]"""


def build() -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT)"
    )
    database.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
        "customer_id INTEGER, amount REAL)"
    )
    database.insert("customers", [(n, f"cust{n}") for n in range(8)])
    database.insert(
        "orders", [(n, (n * 3) % 8, n * 2.5) for n in range(40)]
    )
    database.create_index("customers", "id")
    database.create_index("orders", "id")
    database.create_index("orders", "customer_id")
    return database


@pytest.fixture(scope="module")
def db():
    return build()


def test_index_range_with_sort_elided(db):
    assert db.explain(RANGE_SQL) == RANGE_PLAN
    analyzed = db.explain_analyze(RANGE_SQL)
    assert analyzed.render() == RANGE_ANALYZED
    assert analyzed.result.rows == [
        (10, 25.0), (11, 27.5), (13, 32.5), (14, 35.0), (15, 37.5)
    ]


def test_index_join(db):
    assert db.explain(JOIN_SQL) == JOIN_PLAN
    analyzed = db.explain_analyze(JOIN_SQL)
    assert analyzed.render() == JOIN_ANALYZED
    assert [row[0] for row in analyzed.result.rows] == [1, 9, 17, 25, 33]


def test_unoptimized_plans_keep_the_generic_operators(db):
    for sql in (RANGE_SQL, JOIN_SQL):
        plan = db.explain(sql, optimize=False)
        assert "Index" not in plan
        assert db.execute(sql, optimize=False).rows == db.execute(sql).rows


def test_index_path_on_a_partitioned_table_says_why_it_is_not_sharded():
    # Push-down turns the scan into an index access before the sharding
    # rule sees it; like every other decline, that gets a footer line.
    database = build()
    database.set_partitioning("orders", "id", shards=2)
    declined = "\nOptimizer:\n  shard-declined: orders: index access path chosen"
    assert database.explain(RANGE_SQL) == RANGE_PLAN + declined
    analyzed = database.explain_analyze(RANGE_SQL)
    assert analyzed.render() == RANGE_ANALYZED + declined
    point = "SELECT amount FROM orders WHERE id = 3"
    assert database.explain(point).endswith(declined)
    assert database.execute(point).rows == [(7.5,)]
