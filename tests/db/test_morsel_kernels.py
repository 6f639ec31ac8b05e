"""The aggregate, sort, filter and hash-probe loops, pinned against a
frozen reference over inputs around the morsel size.

``ref_aggregate`` (the ``Aggregate.execute`` loop with the builtin
aggregate specs and the DISTINCT wrapper), ``ref_sort`` (``Sort``'s
decorated keys, full sort and bounded heap, with ``sort_key`` and the
DESC key it used) and ``ref_filter`` (``Filter`` over a compiled
predicate) are copied below exactly as they stood when this file was
written: they are what ``repro.db.plan`` / ``functions`` get rewritten
from, so the in-repo operators cannot be their own oracle.  Every test
runs a statement through ``Database.execute`` and compares the rows
(or the error) with what the frozen loops give over the stored rows.

Inputs are generated columns of each awkward kind: NULL, NaN, ``0.0``
next to ``-0.0``, booleans (which compare as 0/1 but are not numbers
to SUM), integers a float cannot hold next to the float they round to,
mixed numbers and text, duplicate keys, and DESC text; at 0, 1, M-1,
M, M+1 and 3M+7 rows for morsel size M, so a morsel boundary falls
inside, at and just past every input.  The plain cases (no NaN, no
booleans, no mixed families) are also checked against stdlib
``sqlite3``.
"""

from __future__ import annotations

import heapq
import math
import random
import sqlite3
from contextlib import closing
from itertools import count, tee
from operator import itemgetter

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.db import plan as physical
from repro.db.expr import ExpressionCompiler
from repro.db.functions import FunctionRegistry
from repro.db.resolve import resolve
from repro.db.sql.parser import parse_statement
from repro.errors import ExecutionError

#: The morsel size (the constant the operators read in steps of).
M = getattr(physical, "MORSEL_SIZE", 2048)
SIZES = [0, 1, M - 1, M, M + 1, 3 * M + 7]

# ---------------------------------------------------------------------------
# The frozen reference (verbatim copies; do not "tidy")
# ---------------------------------------------------------------------------

_ORDERED_TYPES = (int, float, str)


def ref_sort_key(value):
    kind = type(value)
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if value is None:
        return (0, 0)
    if kind is bool:
        return (1, value)
    return (3, str(value))


def ref_compare(left, right):
    if left is None or right is None:
        return None
    kind = type(left)
    if kind is not type(right) or kind not in _ORDERED_TYPES:
        left, right = ref_sort_key(left), ref_sort_key(right)
    return (left > right) - (left < right)


class RefSpec:
    def __init__(self, make_state, step, finish):
        self.make_state = make_state
        self.step = step
        self.finish = finish


def ref_count_spec():
    def step(state, value):
        return state + (0 if value is None else 1)

    return RefSpec(lambda: 0, step, lambda state: state)


def ref_sum_spec(empty_result):
    def step(state, value):
        if value is None:
            return state
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"SUM over non-numeric value {value!r}")
        return value if state is None else state + value

    def finish(state):
        return empty_result if state is None else state

    return RefSpec(lambda: None, step, finish)


def ref_avg_spec():
    def step(state, value):
        if value is None:
            return state
        total, count = state
        try:
            return total + float(value), count + 1
        except (TypeError, ValueError):
            raise ExecutionError(
                f"AVG over non-numeric value {value!r}"
            ) from None

    def finish(state):
        total, count = state
        return None if count == 0 else total / count

    return RefSpec(lambda: (0.0, 0), step, finish)


def ref_minmax_spec(pick_max):
    wanted = 1 if pick_max else -1

    def step(state, value):
        if value is None:
            return state
        if state is None:
            return value
        return value if ref_compare(value, state) == wanted else state

    return RefSpec(lambda: None, step, lambda state: state)


def ref_group_concat_spec():
    def step(state, value):
        if value is not None:
            state.append(str(value))
        return state

    def finish(state):
        return None if not state else ",".join(state)

    return RefSpec(list, step, finish)


def ref_distinct(spec):
    def step(state, value):
        seen, inner = state
        if value is not None and value not in seen:
            seen.add(value)
            state[1] = spec.step(inner, value)
        return state

    return RefSpec(
        lambda: [set(), spec.make_state()],
        step,
        lambda state: spec.finish(state[1]),
    )


REF_SPECS = {
    "COUNT": ref_count_spec,
    "SUM": lambda: ref_sum_spec(empty_result=None),
    "TOTAL": lambda: ref_sum_spec(empty_result=0.0),
    "AVG": ref_avg_spec,
    "MIN": lambda: ref_minmax_spec(pick_max=False),
    "MAX": lambda: ref_minmax_spec(pick_max=True),
    "GROUP_CONCAT": ref_group_concat_spec,
}


def ref_every_row(row):
    return 1  # COUNT(*) counts every row


def ref_aggregate(rows, group_positions, calls):
    """Today's ``Aggregate.execute``: ``calls`` are ``(name, position or
    None for COUNT(*), distinct)``."""
    specs = []
    arguments = []
    for name, position, distinct in calls:
        spec = REF_SPECS[name]()
        specs.append(ref_distinct(spec) if distinct else spec)
        arguments.append(
            ref_every_row if position is None else itemgetter(position)
        )
    makers = [spec.make_state for spec in specs]
    folds = [
        (position, argument, spec.step)
        for position, (argument, spec) in enumerate(zip(arguments, specs))
    ]
    groups = {}
    for row in rows:
        key = tuple([row[position] for position in group_positions])
        states = groups.get(key)
        if states is None:
            states = groups[key] = [make() for make in makers]
        for position, argument, step in folds:
            states[position] = step(states[position], argument(row))
    if not group_positions and not groups:
        groups[()] = [make() for make in makers]
    out = []
    for key, states in groups.items():
        out.append(
            key
            + tuple(
                [spec.finish(state) for spec, state in zip(specs, states)]
            )
        )
    return out


class RefDescending:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return isinstance(other, RefDescending) and self.value == other.value


def ref_descending_key(value):
    rank, key = ref_sort_key(value)
    if rank == 1:
        return (-1, -key if key == key else key)
    return (-rank, RefDescending(key))


def ref_sort(rows, positions, ascending, bound=None):
    """Today's ``Sort``: decorated ``(key parts..., input position,
    row)``, ``heapq.nsmallest`` under a bound, ``sorted`` otherwise."""
    keys = [itemgetter(position) for position in positions]

    def decorated():
        *copies, rest = tee(iter(rows), len(keys) + 1)
        parts = [
            map(ref_sort_key if asc else ref_descending_key, map(key, copy))
            for key, asc, copy in zip(keys, ascending, copies)
        ]
        return zip(*parts, count(), rest)

    if bound:
        ordered = heapq.nsmallest(bound, decorated())
    else:
        ordered = sorted(decorated())
    return list(map(itemgetter(-1), ordered))


def ref_filter(predicate, rows):
    """Today's ``Filter``: keep a row when its predicate is truthy."""
    return list(filter(predicate, rows))


# ---------------------------------------------------------------------------
# Generated columns
# ---------------------------------------------------------------------------

NAN = float("nan")
BIG = 2**53 + 1

#: Value pools, one per column kind.  ``NAN`` is one object, so rows
#: share it (a NaN is equal to itself only as the same object).
POOLS = {
    "mixed": [
        None, NAN, 0.0, -0.0, True, False, 0, 1, 7, BIG, float(2**53),
        0.5, -3, "a", "b", "10", "", "B",
    ],
    "numbers": [
        None, NAN, 0.0, -0.0, 0, 1, 7, BIG, float(2**53), 0.5, -2.25,
        1e300, -3,
    ],
    "ints": [None, 0, 1, 2, 7, -3, BIG, 2**53],
    "small": [None, 0, 1, 2, 7, -3, 40],
    "floats": [None, 0.0, -0.0, 0.5, 2.5, -2.25, 1e-9, float(2**53)],
    "text": [None, "a", "b", "ab", "B", "", "10", "a%", "zz"],
}  # fmt: skip
#: Group-key pools: few groups whose keys mix hash-equal spellings
#: (``1``/``1.0``/``True``), and many.
GROUP_POOLS = {
    "few": [None, 1, 1.0, True, "a", 0, -0.0],
    "many": list(range(300)) + ["x", None],
}


def column(pool: str, size: int, seed: int) -> list:
    rng = random.Random(f"{pool}:{size}:{seed}")
    values = POOLS[pool] if pool in POOLS else GROUP_POOLS[pool]
    return [rng.choice(values) for _ in range(size)]


def make_table(columns: dict[str, list]) -> tuple[Database, list[tuple]]:
    """Table ``t(id, <columns>...)`` of untyped columns; returns the
    database and its stored rows."""
    size = len(next(iter(columns.values())))
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("id", DataType.INTEGER)]
            + [Column(name, DataType.ANY) for name in columns],
        )
    )
    db.insert(
        "t",
        [
            (index, *values)
            for index, values in enumerate(zip(*columns.values()))
        ],
    )
    return db, list(db.table("t"))


def same(got, want) -> bool:
    """Equal *and* the same spelling: ``1`` is not ``1.0`` is not
    ``True``, ``-0.0`` is not ``0.0``, NaN is NaN."""
    return repr(got) == repr(want)


def outcome(call):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", call())
    except ExecutionError as exc:
        return ("error", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# (a) Aggregate
# ---------------------------------------------------------------------------

#: ``(SQL call, reference call)``; position 2 is column ``v``.
MIXED_CALLS = [
    ("COUNT(*)", ("COUNT", None, False)),
    ("COUNT(v)", ("COUNT", 2, False)),
    ("MIN(v)", ("MIN", 2, False)),
    ("MAX(v)", ("MAX", 2, False)),
    ("GROUP_CONCAT(v)", ("GROUP_CONCAT", 2, False)),
    ("COUNT(DISTINCT v)", ("COUNT", 2, True)),
    ("MIN(DISTINCT v)", ("MIN", 2, True)),
    ("GROUP_CONCAT(DISTINCT v)", ("GROUP_CONCAT", 2, True)),
]
NUMERIC_CALLS = MIXED_CALLS + [
    ("SUM(v)", ("SUM", 2, False)),
    ("TOTAL(v)", ("TOTAL", 2, False)),
    ("AVG(v)", ("AVG", 2, False)),
    ("SUM(DISTINCT v)", ("SUM", 2, True)),
    ("AVG(DISTINCT v)", ("AVG", 2, True)),
]


def aggregate_case(pool, groups, size, seed=0):
    db, stored = make_table(
        {"g": column(groups, size, seed), "v": column(pool, size, seed + 1)}
    )
    calls = MIXED_CALLS if pool in ("mixed", "text") else NUMERIC_CALLS
    return db, stored, calls


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("groups", ["few", "many", "none"])
def test_aggregate_matches_the_frozen_loop(pool, groups, size):
    db, stored, calls = aggregate_case(
        pool, "few" if groups == "none" else groups, size
    )
    sql_calls = ", ".join(sql for sql, _ in calls)
    if groups == "none":
        sql = f"SELECT {sql_calls} FROM t"
        want = ref_aggregate(stored, [], [ref for _, ref in calls])
    else:
        sql = f"SELECT g, {sql_calls} FROM t GROUP BY g"
        want = ref_aggregate(stored, [1], [ref for _, ref in calls])
    assert same(db.execute(sql).rows, want), sql


@pytest.mark.parametrize("size", SIZES)
def test_two_group_keys_and_a_bare_column_match_the_frozen_loop(size):
    db, stored = make_table(
        {
            "g": column("few", size, 3),
            "h": column("text", size, 4),
            "v": column("numbers", size, 5),
        }
    )
    sql = "SELECT g, h, COUNT(*), SUM(v), MAX(v), v FROM t GROUP BY g, h"
    want = [
        row + (first,)
        for row, first in zip(
            ref_aggregate(
                stored,
                [1, 2],
                [
                    ("COUNT", None, False),
                    ("SUM", 3, False),
                    ("MAX", 3, False),
                ],
            ),
            first_values(stored, [1, 2], 3),
        )
    ]
    assert same(db.execute(sql).rows, want)


def first_values(rows, group_positions, position):
    """A bare column's value per group: the group's first row's."""
    firsts = {}
    for row in rows:
        key = tuple(row[at] for at in group_positions)
        firsts.setdefault(key, row[position])
    return list(firsts.values())


#: ``(rows, SUM's bad row, AVG's bad row)``: the two bad rows in one
#: morsel and in two, each call's first, and one call failing alone.
BAD_ROWS = [
    (size, bad_sum, bad_avg)
    for size in (M + 1, 3 * M + 7)
    for bad_sum, bad_avg in [
        (5, 3),
        (3, 5),
        (4, 4),
        (M + 1, 2),
        (2, M + 1),
        (M - 1, M),
        (M, M - 1),
        (None, M + 3),
        (M + 3, None),
    ]
    if max(row for row in (bad_sum, bad_avg) if row is not None) < size
]


@pytest.mark.parametrize("size, bad_sum, bad_avg", BAD_ROWS)
def test_sum_and_avg_fail_at_the_first_failing_row(size, bad_sum, bad_avg):
    """Bad values sit in two calls and (rows of other parity) in two
    groups; the statement fails with the first failing row's error,
    SUM's before AVG's within one row."""
    g = [index % 2 for index in range(size)]
    a = [float(index) for index in range(size)]
    b = [index for index in range(size)]
    if bad_sum is not None:
        a[bad_sum] = "x"
    if bad_avg is not None:
        b[bad_avg] = "y"
    db, stored = make_table({"g": g, "a": a, "b": b})
    for grouped in (True, False):
        head = "g, " if grouped else ""
        sql = f"SELECT {head}SUM(a), AVG(b), COUNT(*) FROM t" + (
            " GROUP BY g" if grouped else ""
        )
        want = outcome(
            lambda: ref_aggregate(
                stored,
                [1] if grouped else [],
                [
                    ("SUM", 2, False),
                    ("AVG", 3, False),
                    ("COUNT", None, False),
                ],
            )
        )
        got = outcome(lambda: db.execute(sql).rows)
        assert got[0] == "error"
        assert same(got, want), sql


@pytest.mark.parametrize("size", [M, 3 * M + 7])
def test_sum_rejects_a_boolean_at_its_row(size):
    g = [index % 3 for index in range(size)]
    v = list(range(size))
    v[size - 2] = True
    db, stored = make_table({"g": g, "v": v})
    want = outcome(
        lambda: ref_aggregate(stored, [1], [("SUM", 2, False)])
    )
    got = outcome(lambda: db.execute("SELECT g, SUM(v) FROM t GROUP BY g").rows)
    assert got == want == (
        "error",
        "ExecutionError",
        "SUM over non-numeric value True",
    )


# ---------------------------------------------------------------------------
# (b) Sort
# ---------------------------------------------------------------------------

SORT_POOLS = [
    ("ints", "text"),
    ("numbers", "mixed"),
    ("text", "floats"),
    ("mixed", "numbers"),
]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("pools", SORT_POOLS, ids="-".join)
@pytest.mark.parametrize("first_asc", [True, False])
@pytest.mark.parametrize("second_asc", [True, False])
def test_sort_matches_the_frozen_sort(pools, first_asc, second_asc, size):
    db, stored = make_table(
        {
            "k1": column(pools[0], size, 7),
            "k2": column(pools[1], size, 8),
        }
    )
    order = (
        f"ORDER BY k1{'' if first_asc else ' DESC'}, "
        f"k2{'' if second_asc else ' DESC'}"
    )
    sql = f"SELECT id, k1, k2 FROM t {order}"
    want = ref_sort(stored, [1, 2], [first_asc, second_asc])
    assert same(db.execute(sql).rows, want), sql
    for bound in (1, 10, M + 5):
        want = ref_sort(stored, [1, 2], [first_asc, second_asc], bound)
        got = db.execute(f"{sql} LIMIT {bound}").rows
        assert same(got, want), (sql, bound)


@pytest.mark.parametrize("size", [M + 1, 3 * M + 7])
@pytest.mark.parametrize("asc", [True, False])
def test_sort_key_whose_kind_changes_after_the_first_morsel(size, asc):
    """Numbers for the first morsel, then text, NULL or NaN: the order
    is the frozen one, whatever the first morsel held."""
    for late in ("x", None, NAN, True):
        values = [float(index % 97) for index in range(size)]
        values[size - 1] = late
        values[M // 2] = 3
        db, stored = make_table({"k": values})
        direction = "" if asc else " DESC"
        sql = f"SELECT id, k FROM t ORDER BY k{direction}"
        assert same(db.execute(sql).rows, ref_sort(stored, [1], [asc]))
        for bound in (1, 10):
            got = db.execute(f"{sql} LIMIT {bound}").rows
            assert same(got, ref_sort(stored, [1], [asc], bound)), late


# ---------------------------------------------------------------------------
# (c) Filter
# ---------------------------------------------------------------------------

#: Literal predicates over ``v`` (and ``w``): comparisons of each
#: family, BETWEEN, IN lists, LIKE, and ANDs of them.
PREDICATES = [
    "v > 3",
    "v < 0.5",
    "v = 0",
    "v <> 7",
    "v >= 'a'",
    "v <= 1",
    "3 < v",
    "v = 'b'",
    "v BETWEEN 0 AND 7",
    "v NOT BETWEEN -1 AND 0.5",
    "v BETWEEN 'a' AND 'b'",
    "v IN (1, 7, 0.5)",
    "v NOT IN (0, 1)",
    "v IN ('a', '', 'B')",
    "v LIKE 'a%'",
    "v NOT LIKE '1%'",
    "w LIKE '_'",
    "v > 0 AND w LIKE 'a%'",
    "v BETWEEN 0 AND 10 AND v <> 1 AND w IN ('a', 'b')",
    "v = 0.0 AND w NOT LIKE '%b%'",
]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("pool", ["mixed", "numbers", "ints", "text"])
def test_filter_matches_the_frozen_filter(pool, size):
    db, stored = make_table(
        {"v": column(pool, size, 11), "w": column("text", size, 12)}
    )
    layout = db.table("t").layout("t")
    for predicate in PREDICATES:
        sql = f"SELECT * FROM t WHERE {predicate}"
        statement = parse_statement(sql)
        owners = resolve(db, statement).owners
        compiled = ExpressionCompiler(
            layout, FunctionRegistry(), owners=owners
        ).compile(statement.where)
        want = ref_filter(compiled, stored)
        assert same(db.execute(sql).rows, want), sql
        assert "Filter(where)" in db.explain(sql)


# ---------------------------------------------------------------------------
# (d) HashJoin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_inner_hash_join_matches_the_nested_loop(size):
    rng = random.Random(size)
    left = [rng.choice([None, 0, 1, 1.0, True, "1", NAN]) for _ in range(size)]
    db, stored = make_table({"k": left})
    right = [0, 1, "1", NAN, None, 1]
    db.create_table(
        TableSchema(
            "r", [Column("id", DataType.INTEGER), Column("k", DataType.ANY)]
        )
    )
    db.insert("r", list(enumerate(right)))
    sql = "SELECT t.id, r.id FROM t JOIN r ON t.k = r.k"
    assert "HashJoin(INNER, 1 key(s))" in db.explain(sql)
    want = [
        (row[0], right_id)
        for row in stored
        for right_id, key in enumerate(right)
        if row[1] is not None
        and key is not None
        and (row[1] is key or row[1] == key)
    ]
    assert db.execute(sql).rows == want


# ---------------------------------------------------------------------------
# (e) The plain cases against sqlite3
# ---------------------------------------------------------------------------

PLAIN_STATEMENTS = [
    ("SELECT id, v FROM t WHERE v > 3 AND w LIKE 'a%'", False),
    ("SELECT id FROM t WHERE v BETWEEN 0 AND 7 AND v <> 1", False),
    ("SELECT id FROM t WHERE v IN (1, 7, 2) OR w = 'zz'", False),
    ("SELECT id, w FROM t WHERE w NOT IN ('a', 'b')", False),
    (
        "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), "
        "COUNT(DISTINCT v), MIN(w), MAX(w) FROM t GROUP BY g ORDER BY g",
        True,
    ),
    ("SELECT COUNT(*), SUM(v), MIN(w), MAX(v) FROM t", True),
    ("SELECT id, v, w FROM t ORDER BY v DESC, w, id", True),
    ("SELECT id, v, w FROM t ORDER BY w DESC, v DESC, id LIMIT 25", True),
    ("SELECT t.id, u.id FROM t JOIN t u ON t.v = u.id WHERE t.v < 5", False),
]


@pytest.mark.parametrize("size", SIZES)
def test_plain_statements_match_sqlite(size):
    columns = {
        "g": column("small", size, 20),
        "v": column("small", size, 21),
        "w": column("text", size, 22),
    }
    db, stored = make_table(columns)
    with closing(sqlite3.connect(":memory:")) as mirror:
        mirror.execute("CREATE TABLE t (id INTEGER, g, v, w)")
        mirror.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", stored)
        for sql, ordered in PLAIN_STATEMENTS:
            got = db.execute(sql).rows
            want = [tuple(row) for row in mirror.execute(sql)]
            if not ordered:
                got, want = sorted(got, key=repr), sorted(want, key=repr)
            assert got == want, sql


@pytest.mark.parametrize("size", [M - 1, 3 * M + 7])
def test_plain_averages_match_sqlite(size):
    db, stored = make_table(
        {"g": column("small", size, 30), "v": column("floats", size, 31)}
    )
    sql = "SELECT g, AVG(v), COUNT(v) FROM t GROUP BY g ORDER BY g"
    with closing(sqlite3.connect(":memory:")) as mirror:
        mirror.execute("CREATE TABLE t (id INTEGER, g, v)")
        mirror.executemany("INSERT INTO t VALUES (?, ?, ?)", stored)
        want = list(mirror.execute(sql))
    got = db.execute(sql).rows
    assert [(g, n) for g, _, n in got] == [(g, n) for g, _, n in want]
    for (_, mine, _), (_, theirs, _) in zip(got, want):
        assert (mine is None and theirs is None) or math.isclose(
            mine, theirs, rel_tol=1e-12, abs_tol=1e-12
        )
