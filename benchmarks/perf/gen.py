"""Seeded generators for the benchmark's scaled inputs.

Every function is a pure function of its arguments: two calls with one
seed give byte-identical inputs (``digest`` hashes them all, and the
smoke test compares two calls).  Randomness comes from
``random.Random`` seeded with a *string*, which CPython hashes with
SHA-512 — independent of ``PYTHONHASHSEED`` and of the process.

The program under test never sees the seed of these generators, only
the rows, statements and requests they produce.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

REGIONS = ("north", "south", "east", "west", "centre")
STATUSES = ("new", "paid", "shipped", "void")
_POSITIVE = (
    "great", "lovely", "excellent", "superb", "pleasant", "wonderful",
    "good", "fantastic",
)
_NEGATIVE = (
    "awful", "bad", "poor", "terrible", "boring", "dull", "broken",
    "disappointing",
)
_NOUNS = (
    "camera", "plot", "service", "battery", "screen", "ending", "staff",
    "sound", "delivery", "manual",
)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"tag-perf:{seed}:{purpose}")


@dataclass(frozen=True)
class TableData:
    """One generated table: enough to load it into ``repro.db`` and
    into ``sqlite3`` identically."""

    name: str
    #: (column name, SQL type, is primary key)
    columns: tuple[tuple[str, str, bool], ...]
    rows: list[tuple]
    #: (column, parent table, parent column)
    foreign_keys: tuple[tuple[str, str, str], ...] = ()
    indexes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Statement:
    """One SQL statement of a workload stream."""

    kind: str  # template name, e.g. "scan", "point", "insert"
    sql: str
    #: True when the result order is fully determined (unique sort key),
    #: so the oracle compares rows as a list instead of a multiset.
    ordered: bool = False
    #: True when the text comes from the hot set (sql_short only).
    hot: bool = False


# ----------------------------------------------------------------------
# orders / customers
# ----------------------------------------------------------------------


def relational(
    seed: int, orders: int = 20_000, customers: int = 2_000
) -> list[TableData]:
    """``customers`` and ``orders`` (FK ``orders.customer_id``).

    Customer ids are requested unevenly (quadratic skew), amounts are
    two-decimal reals, and 2% of ``note`` values are NULL.
    """
    rng = _rng(seed, "relational")
    customer_rows = [
        (
            index,
            f"cust{index:05d}",
            rng.choice(REGIONS),
            rng.randrange(4),
            f"20{rng.randrange(10, 24):02d}-{rng.randrange(1, 13):02d}-01",
        )
        for index in range(customers)
    ]
    order_rows = []
    for index in range(orders):
        note = (
            None
            if rng.random() < 0.02
            else f"note {rng.randrange(1000):03d} {rng.choice(_NOUNS)}"
        )
        order_rows.append(
            (
                index,
                int(customers * rng.random() ** 2),
                round(rng.uniform(1.0, 500.0), 2),
                rng.randrange(1, 20),
                rng.choice(STATUSES),
                note,
            )
        )
    return [
        TableData(
            "customers",
            (
                ("id", "INTEGER", True),
                ("name", "TEXT", False),
                ("region", "TEXT", False),
                ("tier", "INTEGER", False),
                ("signup", "TEXT", False),
            ),
            customer_rows,
            indexes=("id",),
        ),
        TableData(
            "orders",
            (
                ("id", "INTEGER", True),
                ("customer_id", "INTEGER", False),
                ("amount", "REAL", False),
                ("qty", "INTEGER", False),
                ("status", "TEXT", False),
                ("note", "TEXT", False),
            ),
            order_rows,
            foreign_keys=(("customer_id", "customers", "id"),),
            indexes=("id", "customer_id"),
        ),
    ]


#: The eight sql_analytic templates, in stream order.
ANALYTIC_KINDS = (
    "scan", "filter", "join", "aggregate", "sort", "subquery",
    "distinct", "like",
)


def analytic_statements(seed: int, variants: int = 4) -> list[Statement]:
    """``variants`` seeded instances of each of the eight templates,
    interleaved template by template (one pass = 8 * variants ops).

    Constants are drawn from ranges over which a template's selectivity
    barely moves, so the seed changes which rows qualify, not how much
    work a pass is.
    """
    rng = _rng(seed, "analytic")
    projections = (
        "id, customer_id, amount",
        "id, amount, qty",
        "id, status, amount",
        "id, qty, note",
    )
    statements: list[Statement] = []
    for variant in range(variants):
        region = rng.choice(REGIONS)
        for kind, sql, ordered in (
            (
                "scan",
                f"SELECT {projections[variant % len(projections)]} "
                "FROM orders",
                False,
            ),
            (
                "filter",
                "SELECT id, amount FROM orders WHERE amount > "
                f"{rng.randrange(470, 495)} AND qty < {rng.randrange(8, 12)}",
                False,
            ),
            (
                "join",
                "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o "
                "JOIN customers c ON o.customer_id = c.id "
                f"WHERE o.qty >= {rng.randrange(1, 3)} GROUP BY c.region",
                False,
            ),
            (
                "aggregate",
                "SELECT status, COUNT(*), AVG(amount), MIN(qty), MAX(qty) "
                f"FROM orders WHERE amount < {rng.randrange(460, 500)} "
                f"GROUP BY status HAVING COUNT(*) > {rng.randrange(5, 50)}",
                False,
            ),
            (
                "sort",
                "SELECT id, amount FROM orders "
                f"WHERE qty <> {rng.randrange(1, 20)} "
                "ORDER BY amount DESC, id LIMIT 10",
                True,
            ),
            (
                "subquery",
                "SELECT id, amount FROM orders WHERE customer_id IN "
                "(SELECT id FROM customers WHERE "
                f"tier = {rng.randrange(4)} AND region = '{region}')",
                False,
            ),
            (
                "distinct",
                "SELECT DISTINCT customer_id FROM orders "
                f"WHERE qty = {rng.randrange(1, 20)}",
                False,
            ),
            (
                "like",
                "SELECT id FROM orders WHERE note LIKE "
                f"'note {rng.randrange(10, 100)}%'",
                False,
            ),
        ):
            statements.append(Statement(kind, sql, ordered))
    return statements


# ----------------------------------------------------------------------
# sql_short: hot set + fresh constants + balanced writes
# ----------------------------------------------------------------------

#: Read kinds of one sql_short block (shuffled per block); with the
#: INSERT, UPDATE and DELETE that makes 30 ops, 10 % of them writes.
_SHORT_READS = ("point",) * 15 + ("keyjoin",) * 6 + ("range",) * 6


def _short_read(
    kind: str, rng: random.Random, orders: int, customers: int
) -> tuple[str, bool]:
    if kind == "point":
        return (
            "SELECT id, amount, status FROM orders "
            f"WHERE id = {rng.randrange(orders)}",
            True,
        )
    if kind == "keyjoin":
        return (
            "SELECT o.id, o.amount, c.name FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            f"WHERE c.id = {rng.randrange(customers)}",
            False,
        )
    low = rng.randrange(orders - 40)
    return (
        "SELECT id, amount FROM orders "
        f"WHERE id BETWEEN {low} AND {low + 40} ORDER BY id LIMIT 20",
        True,
    )


def short_hot_set(
    seed: int, orders: int = 20_000, customers: int = 2_000, size: int = 64
) -> dict[str, list[Statement]]:
    """The 64 statement texts issued again and again, by read kind."""
    rng = _rng(seed, "short-hot")
    hot: dict[str, list[Statement]] = {"point": [], "keyjoin": [], "range": []}
    for index in range(size):
        kind = ("point", "keyjoin", "range")[index % 3]
        sql, ordered = _short_read(kind, rng, orders, customers)
        hot[kind].append(Statement(kind, sql, ordered, hot=True))
    return hot


def short_block(
    seed: int,
    block: int,
    hot: dict[str, list[Statement]],
    orders: int = 20_000,
    customers: int = 2_000,
) -> list[Statement]:
    """Block ``block`` of the sql_short stream (a pure function of it).

    Reads draw from the hot set or carry fresh constants with equal
    probability; the three writes insert, update and delete one new
    order, so the table is back to its generated state when the block
    ends and every block has the same composition.
    """
    rng = _rng(seed, f"short-block:{block}")
    reads = list(_SHORT_READS)
    rng.shuffle(reads)
    new_id = 1_000_000 + block
    writes = iter(
        (
            Statement(
                "insert",
                f"INSERT INTO orders VALUES ({new_id}, "
                f"{rng.randrange(customers)}, "
                f"{round(rng.uniform(1.0, 500.0), 2)}, "
                f"{rng.randrange(1, 20)}, 'new', 'fresh {block}')",
            ),
            Statement(
                "update",
                "UPDATE orders SET amount = "
                f"{round(rng.uniform(1.0, 500.0), 2)} WHERE id = {new_id}",
            ),
            Statement("delete", f"DELETE FROM orders WHERE id = {new_id}"),
        )
    )
    statements: list[Statement] = []
    for position, kind in enumerate(reads):
        if rng.random() < 0.5:
            statements.append(rng.choice(hot[kind]))
        else:
            sql, ordered = _short_read(kind, rng, orders, customers)
            statements.append(Statement(kind, sql, ordered))
        if position % 9 == 8:
            statements.append(next(writes))
    return statements


# ----------------------------------------------------------------------
# reviews (udf_scan)
# ----------------------------------------------------------------------


def _review(rng: random.Random, tag: str) -> str:
    words = _POSITIVE + _NEGATIVE
    return (
        f"the {rng.choice(_NOUNS)} was {rng.choice(words)} and the "
        f"{rng.choice(_NOUNS)} felt {rng.choice(words)} ({tag})"
    )


def reviews(
    seed: int, rows: int = 16_384, hot_pool: int = 256
) -> TableData:
    """``reviews(n, s)``: even ``n`` draw from a ``hot_pool``-text pool
    (fits the 4,096-entry UDF memo cache), odd ``n`` carry a text no
    other row has (``rows / 2`` distinct texts, beyond the cache)."""
    rng = _rng(seed, "reviews")
    pool = [_review(rng, f"h{index}") for index in range(hot_pool)]
    data = [
        (n, rng.choice(pool) if n % 2 == 0 else _review(rng, f"u{n}"))
        for n in range(rows)
    ]
    return TableData(
        "reviews",
        (("n", "INTEGER", True), ("s", "TEXT", False)),
        data,
    )


#: Rows one udf_scan op scans.
UDF_WINDOW = 1_024


def udf_statements(rows: int = 16_384) -> list[Statement]:
    """One pass: every window once, ``LLM()`` alternately in WHERE and
    in the select list."""
    statements: list[Statement] = []
    for position, low in enumerate(range(0, rows, UDF_WINDOW)):
        high = low + UDF_WINDOW - 1
        if position % 2 == 0:
            statements.append(
                Statement(
                    "udf_where",
                    "SELECT n, s FROM reviews "
                    f"WHERE n BETWEEN {low} AND {high} "
                    "AND LLM('a positive review', s) = 'yes'",
                )
            )
        else:
            statements.append(
                Statement(
                    "udf_select",
                    "SELECT n, LLM('a positive review', s) AS judged "
                    f"FROM reviews WHERE n BETWEEN {low} AND {high}",
                )
            )
    return statements


# ----------------------------------------------------------------------
# serve_replay
# ----------------------------------------------------------------------


def serve_requests(seed: int) -> list[tuple[str, str]]:
    """The 80 TAG-Bench questions as ``(question, domain)``, replayed
    from a seeded starting point.

    The offset is even, so with two round-robin workers the same
    questions meet at the batching barrier at every seed: the seed
    varies the data, the LM and where the replay starts, not how much
    work a replay is.
    """
    from repro.bench.suite import build_suite

    requests = [(spec.question, spec.domain) for spec in build_suite()]
    offset = 2 * _rng(seed, "serve").randrange(len(requests) // 2)
    return requests[offset:] + requests[:offset]


# ----------------------------------------------------------------------


def digest(seed: int, orders: int = 2_000, reviews_rows: int = 1_024) -> str:
    """SHA-256 over every generated input at ``seed`` (small sizes by
    default; the generators are size-independent in structure)."""
    customers = max(orders // 10, 50)
    hot = short_hot_set(seed, orders, customers)
    payload = {
        "relational": [
            (table.name, table.rows)
            for table in relational(seed, orders, customers)
        ],
        "analytic": [s.sql for s in analytic_statements(seed)],
        "short": [
            [s.sql for s in short_block(seed, block, hot, orders, customers)]
            for block in range(3)
        ],
        "reviews": reviews(seed, reviews_rows).rows,
        "udf": [s.sql for s in udf_statements(reviews_rows)],
        "serve": serve_requests(seed),
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
