"""The comparison kernel and the row loops built on it, pinned against
a frozen reference.

``sort_key`` / ``compare`` / ``is_true`` (and the DESC shim ``Sort``
used) are copied below exactly as they stood when this file was
written: they are what ``repro.db.types`` / ``expr`` / ``plan`` get
rewritten from, so the in-repo functions cannot be their own oracle.
Every test asks the engine for an answer and compares it with the one
the frozen functions give: comparison results, compiled predicates,
MIN/MAX, sort order, WHERE truthiness, grouping order, hash joins.

Values cover every rank and the awkward members of each: NULL, the
booleans (which compare as 0/1), integers a float cannot hold, NaN
(neither ``<`` nor ``>`` anything, so it compares as 0), the
infinities, ``-0.0``, the empty string, and one object of no SQL type
(rank 3, ordered by its ``str``).
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.db import types as dbtypes
from repro.db.expr import ExpressionCompiler
from repro.db.functions import FunctionRegistry
from repro.db.result import RowLayout
from repro.db.sql import ast

# ---------------------------------------------------------------------------
# The frozen reference (verbatim copies; do not "tidy")
# ---------------------------------------------------------------------------

_TYPE_RANK = {type(None): 0, bool: 1, int: 1, float: 1, str: 2}


def ref_sort_key(value):
    rank = _TYPE_RANK.get(type(value), 3)
    if rank == 0:
        return (0, 0)
    if rank == 3:
        return (3, str(value))
    return (rank, value)


def ref_compare(left, right):
    if left is None or right is None:
        return None
    lk, rk = ref_sort_key(left), ref_sort_key(right)
    if lk < rk:
        return -1
    if lk > rk:
        return 1
    return 0


def ref_values_equal(left, right):
    result = ref_compare(left, right)
    if result is None:
        return None
    return result == 0


def ref_is_true(value):
    return value is not None and bool(value)


class RefDescending:
    __slots__ = ("part",)

    def __init__(self, part):
        self.part = part

    def __lt__(self, other):
        return other.part < self.part

    def __eq__(self, other):
        return isinstance(other, RefDescending) and self.part == other.part


def ref_comparison(op, left, right):
    ordering = ref_compare(left, right)
    if ordering is None:
        return None
    if op == "=":
        return ordering == 0
    if op == "<>":
        return ordering != 0
    if op == "<":
        return ordering < 0
    if op == "<=":
        return ordering <= 0
    if op == ">":
        return ordering > 0
    return ordering >= 0


def ref_between(subject, low, high, negated):
    above = ref_compare(subject, low)
    below = ref_compare(subject, high)
    if (above is not None and above < 0) or (
        below is not None and below > 0
    ):
        return negated
    if above is None or below is None:
        return None
    return not negated


def ref_in_list(subject, items, negated):
    if subject is None:
        return None
    saw_null = False
    for value in items:
        if value is None:
            saw_null = True
        elif ref_values_equal(subject, value):
            return not negated
    if saw_null:
        return None
    return negated


def ref_sorted(rows, positions, ascending):
    """Today's ``Sort``: one pass over (key parts..., input position)."""

    def decorated():
        for position, row in enumerate(rows):
            parts = []
            for at, asc in zip(positions, ascending):
                part = ref_sort_key(row[at])
                parts.append(part if asc else RefDescending(part))
            parts.append(position)
            yield tuple(parts), row

    return [row for _, row in sorted(decorated(), key=lambda pair: pair[0])]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Blob:
    """A value of no SQL type: rank 3, ordered by ``str``."""

    def __str__(self) -> str:
        return "blob"


BLOB = Blob()
NAN = float("nan")
BIG = 2**53 + 1

VALUES = [
    None, True, False, 0, 1, -1, 7, BIG, -BIG, 2**53,
    0.0, -0.0, 1.0, 0.5, float(2**53), NAN, math.inf, -math.inf,
    "", "a", "b", "10", BLOB,
]  # fmt: skip

values = st.one_of(
    st.sampled_from(VALUES),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)
#: Totally ordered by ``sort_key`` (NaN is not: it ties with every
#: number, so a sort over it has no one right answer).
ordered_values = st.sampled_from(
    [value for value in VALUES if value is not NAN]
)

OPS = ("=", "<>", "<", "<=", ">", ">=")


def same(got, want) -> bool:
    """Equal *and* the same spelling: ``1`` is not ``1.0`` is not
    ``True``, ``-0.0`` is not ``0.0``, NaN is NaN."""
    return repr(got) == repr(want)


LAYOUT = RowLayout([(None, "a"), (None, "b"), (None, "c")])
A, B, C = ast.ColumnRef("a"), ast.ColumnRef("b"), ast.ColumnRef("c")


def evaluator(expression):
    return ExpressionCompiler(LAYOUT, FunctionRegistry()).compile(expression)


def any_table(db: Database, name: str, columns: list[str], rows) -> None:
    """A table of untyped columns behind an integer ``id``."""
    db.create_table(
        TableSchema(
            name,
            [Column("id", DataType.INTEGER)]
            + [Column(column, DataType.ANY) for column in columns],
        )
    )
    db.insert(name, [(index, *row) for index, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# (a) compare / values_equal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("left", VALUES, ids=repr)
def test_compare_matches_reference_on_every_listed_pair(left):
    for right in VALUES:
        assert same(dbtypes.compare(left, right), ref_compare(left, right))
        assert same(
            dbtypes.values_equal(left, right), ref_values_equal(left, right)
        )
        assert same(dbtypes.sort_key(left), ref_sort_key(left))


@settings(max_examples=500, deadline=None)
@given(left=values, right=values)
def test_compare_matches_reference(left, right):
    assert same(dbtypes.compare(left, right), ref_compare(left, right))
    assert same(
        dbtypes.values_equal(left, right), ref_values_equal(left, right)
    )
    assert same(dbtypes.sort_key(left), ref_sort_key(left))


def test_nan_compares_as_a_tie():
    for other in (NAN, float("nan"), 0, 1.5, BIG, True, math.inf):
        assert dbtypes.compare(NAN, other) == 0
        assert dbtypes.compare(other, NAN) == 0
    assert dbtypes.compare(NAN, "a") == -1
    assert dbtypes.compare(NAN, None) is None


# ---------------------------------------------------------------------------
# (b) compiled comparison operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", OPS)
def test_compiled_comparisons_match_reference_on_every_listed_pair(op):
    general = evaluator(ast.BinaryOp(op, A, B))
    for left, right in itertools.product(VALUES, repeat=2):
        want = ref_comparison(op, left, right)
        assert same(general((left, right, None)), want)
        literal_right = evaluator(ast.BinaryOp(op, A, ast.Literal(right)))
        assert same(literal_right((left, None, None)), want)
        literal_left = evaluator(ast.BinaryOp(op, ast.Literal(left), B))
        assert same(literal_left((None, right, None)), want)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(OPS), left=values, right=values)
def test_compiled_comparisons_match_reference(op, left, right):
    want = ref_comparison(op, left, right)
    assert same(evaluator(ast.BinaryOp(op, A, B))((left, right, None)), want)
    assert same(
        evaluator(ast.BinaryOp(op, A, ast.Literal(right)))((left, 0, 0)), want
    )
    assert same(
        evaluator(ast.BinaryOp(op, ast.Literal(left), B))((0, right, 0)), want
    )


@settings(max_examples=500, deadline=None)
@given(subject=values, low=values, high=values, negated=st.booleans())
def test_between_matches_reference(subject, low, high, negated):
    want = ref_between(subject, low, high, negated)
    columns = evaluator(ast.BetweenExpression(A, B, C, negated))
    assert same(columns((subject, low, high)), want)
    literals = evaluator(
        ast.BetweenExpression(
            A, ast.Literal(low), ast.Literal(high), negated
        )
    )
    assert same(literals((subject, None, None)), want)


@pytest.mark.parametrize("negated", [False, True])
def test_between_literal_bounds_match_reference_on_every_listed_triple(
    negated,
):
    for low, high in itertools.product(VALUES, repeat=2):
        compiled = evaluator(
            ast.BetweenExpression(
                A, ast.Literal(low), ast.Literal(high), negated
            )
        )
        for subject in VALUES:
            assert same(
                compiled((subject, None, None)),
                ref_between(subject, low, high, negated),
            ), (subject, low, high)


#: Bounds of two families, or NaN: the general evaluator's cases.
MIXED_BOUNDS = [
    (1, "x"), (True, 3), (None, 5), (5, None), ("a", 2.5),
    (NAN, 5), (1, NAN), (NAN, NAN), (NAN, "x"), (BLOB, 3),
]  # fmt: skip


@pytest.mark.parametrize("low, high", MIXED_BOUNDS, ids=repr)
def test_between_mixed_family_bounds_keep_the_general_answers(low, high):
    for negated in (False, True):
        literals = evaluator(
            ast.BetweenExpression(
                A, ast.Literal(low), ast.Literal(high), negated
            )
        )
        columns = evaluator(ast.BetweenExpression(A, B, C, negated))
        for subject in VALUES:
            want = ref_between(subject, low, high, negated)
            assert same(literals((subject, None, None)), want), subject
            assert same(columns((subject, low, high)), want), subject


#: BETWEEN as SQL text: bounds of one family and of two.
BETWEEN_SQL = [
    ("0", "1", (0, 1)),
    ("-1", "0.5", (-1, 0.5)),
    ("'a'", "'b'", ("a", "b")),
    ("1", "'x'", (1, "x")),
    ("TRUE", "3", (True, 3)),
    ("NULL", "5", (None, 5)),
]


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("low_sql, high_sql, bounds", BETWEEN_SQL)
def test_between_in_where_keeps_what_the_reference_accepts(
    low_sql, high_sql, bounds, optimize
):
    db = Database()
    any_table(db, "t", ["v"], [(value,) for value in VALUES])
    for negated in (False, True):
        keyword = "NOT BETWEEN" if negated else "BETWEEN"
        sql = f"SELECT id FROM t WHERE v {keyword} {low_sql} AND {high_sql}"
        want = [
            (index,)
            for index, value in enumerate(VALUES)
            if ref_is_true(ref_between(value, *bounds, negated))
        ]
        assert db.execute(sql, optimize=optimize).rows == want, sql


@settings(max_examples=500, deadline=None)
@given(
    subject=values,
    items=st.lists(values, min_size=1, max_size=4),
    negated=st.booleans(),
)
def test_in_list_with_a_null_item_matches_reference(subject, items, negated):
    items = items + [None]
    compiled = evaluator(
        ast.InList(A, tuple(ast.Literal(item) for item in items), negated)
    )
    assert same(
        compiled((subject, None, None)),
        ref_in_list(subject, items, negated),
    )


#: IN lists beyond the listed pairs: equal across types (``1``/``1.0``
#: /``True``, ``-0.0``/``0``), a float that is not the int above 2^53,
#: text against numbers, NULL and NaN among literals of one family.
IN_LISTS = [
    (1, 1.0), (True, 1), (0, -0.0), (2**53, BIG), (float(2**53), 0.5),
    ("10", 10), ("a", "b", ""), (1, 7, -1, 0.5), (None, NAN),
    (None, "a", "b"), (NAN, 1, 2), (math.inf, -math.inf), (BLOB, "blob"),
]  # fmt: skip


@pytest.mark.parametrize("negated", [False, True])
def test_in_literal_list_matches_reference_on_every_listed_subject(negated):
    lists = [(item,) for item in VALUES] + IN_LISTS
    lists += itertools.product(VALUES, repeat=2)
    for items in lists:
        compiled = evaluator(
            ast.InList(A, tuple(ast.Literal(item) for item in items), negated)
        )
        for subject in VALUES:
            assert same(
                compiled((subject, None, None)),
                ref_in_list(subject, items, negated),
            ), (subject, items)


one_family_items = st.one_of(
    st.lists(
        st.one_of(st.integers(), st.floats(allow_nan=False)),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.text(max_size=2), min_size=1, max_size=5),
)


@settings(max_examples=500, deadline=None)
@given(subject=values, items=one_family_items, negated=st.booleans())
def test_in_one_family_literal_list_matches_reference(subject, items, negated):
    compiled = evaluator(
        ast.InList(A, tuple(ast.Literal(item) for item in items), negated)
    )
    assert same(
        compiled((subject, None, None)), ref_in_list(subject, items, negated)
    )
    columns = evaluator(ast.InList(A, (B, ast.Literal(items[0])), negated))
    assert same(
        columns((subject, items[-1], None)),
        ref_in_list(subject, [items[-1], items[0]], negated),
    )


#: IN lists as SQL text.  ``-1`` parses as a unary minus over ``1``, so
#: it is not a literal item.
IN_SQL = [
    ("1, 2", (1, 2)),
    ("1.0", (1.0,)),
    ("0", (0,)),
    ("TRUE, 7", (True, 7)),
    ("9007199254740993", (BIG,)),
    ("9007199254740992.0", (float(2**53),)),
    ("-1, 0.5", (-1, 0.5)),
    ("'a', 'b'", ("a", "b")),
    ("'10', 10", ("10", 10)),
    ("NULL, 1", (None, 1)),
    ("'blob'", ("blob",)),
]


@pytest.mark.parametrize("layout", ["plain", "indexed", "partitioned"])
@pytest.mark.parametrize("items_sql, items", IN_SQL)
def test_in_list_in_where_keeps_what_the_reference_accepts(
    items_sql, items, layout
):
    # A NaN partition key is outside the sharding contract (DESIGN §18):
    # it ties every number, so pruning may skip the shard it hashes to.
    column = [
        value
        for value in VALUES
        if layout != "partitioned" or value is not NAN
    ]
    db = Database()
    any_table(db, "t", ["v"], [(value,) for value in column])
    if layout == "indexed":
        db.create_index("t", "v")
    elif layout == "partitioned":
        db.set_partitioning("t", "v", shards=2)
        assert "Exchange" in db.explain("SELECT id FROM t WHERE v IN (1, 2)")
    stored = list(db.table("t"))
    for negated in (False, True):
        keyword = "NOT IN" if negated else "IN"
        sql = f"SELECT id FROM t WHERE v {keyword} ({items_sql})"
        want = [
            (row[0],)
            for row in stored
            if ref_is_true(ref_in_list(row[1], items, negated))
        ]
        for optimize in (True, False):
            assert db.execute(sql, optimize=optimize).rows == want, sql


@settings(max_examples=500, deadline=None)
@given(subject=values, candidates=st.lists(values, min_size=1, max_size=4))
def test_simple_case_operand_matching_matches_reference(subject, candidates):
    compiled = evaluator(
        ast.CaseExpression(
            A,
            tuple(
                (ast.Literal(candidate), ast.Literal(index))
                for index, candidate in enumerate(candidates)
            ),
            ast.Literal(-1),
        )
    )
    want = next(
        (
            index
            for index, candidate in enumerate(candidates)
            if ref_values_equal(subject, candidate)
        ),
        -1,
    )
    assert compiled((subject, None, None)) == want


# ---------------------------------------------------------------------------
# (c) MIN / MAX
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(column=st.lists(values, max_size=12))
def test_min_max_over_a_mixed_rank_column_match_reference(column):
    db = Database()
    any_table(db, "t", ["v"], [(value,) for value in column])
    low = high = None
    for value in column:
        if value is None:
            continue
        if low is None:
            low = high = value
            continue
        if ref_sort_key(value) < ref_sort_key(low):
            low = value
        if ref_sort_key(value) > ref_sort_key(high):
            high = value
    (got,) = db.execute("SELECT MIN(v), MAX(v) FROM t").rows
    assert same(got, (low, high))


@settings(max_examples=200, deadline=None)
@given(left=values, right=values)
def test_scalar_min_max_match_reference(left, right):
    db = Database()
    any_table(db, "t", ["x", "y"], [(left, right)])
    (got,) = db.execute("SELECT MIN(x, y), MAX(x, y) FROM t").rows
    if left is None or right is None:
        want = (None, None)
    else:
        want = (
            min((left, right), key=ref_sort_key),
            max((left, right), key=ref_sort_key),
        )
    assert same(got, want)


# ---------------------------------------------------------------------------
# (d) Sort
# ---------------------------------------------------------------------------

sort_rows = st.lists(st.tuples(ordered_values, ordered_values), max_size=16)


def order_by(first_asc: bool, second_asc: bool) -> str:
    return (
        f"ORDER BY k1{'' if first_asc else ' DESC'}, "
        f"k2{'' if second_asc else ' DESC'}"
    )


@settings(max_examples=300, deadline=None)
@given(
    data=sort_rows,
    first_asc=st.booleans(),
    second_asc=st.booleans(),
    bound=st.integers(min_value=1, max_value=20),
)
def test_sort_order_matches_reference(data, first_asc, second_asc, bound):
    db = Database()
    any_table(db, "t", ["k1", "k2"], data)
    stored = list(db.table("t"))
    sql = f"SELECT id, k1, k2 FROM t {order_by(first_asc, second_asc)}"
    full = db.execute(sql).rows
    assert same(full, ref_sorted(stored, [1, 2], [first_asc, second_asc]))
    assert "Sort(2 key(s))" in db.explain(sql)
    # Top-N (``bound``) is a prefix of the same order.
    assert same(db.execute(f"{sql} LIMIT {bound}").rows, full[:bound])


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(st.tuples(values, values), max_size=12),
    first_asc=st.booleans(),
    second_asc=st.booleans(),
)
def test_full_sort_with_nan_makes_the_reference_comparisons(
    data, first_asc, second_asc
):
    """NaN leaves the order partial, so the output depends on which
    comparisons the sort makes; the full sort must keep making the
    reference's (same outcome for every pair of decorated rows)."""
    db = Database()
    any_table(db, "t", ["k1", "k2"], data)
    stored = list(db.table("t"))
    sql = f"SELECT id, k1, k2 FROM t {order_by(first_asc, second_asc)}"
    assert same(
        db.execute(sql).rows,
        ref_sorted(stored, [1, 2], [first_asc, second_asc]),
    )


# ---------------------------------------------------------------------------
# (e) WHERE truthiness
# ---------------------------------------------------------------------------

PREDICATE_VALUES = [None, False, True, 0, 1, 0.0, "", "x"]


def predicate_db() -> tuple[Database, list[int]]:
    db = Database()
    any_table(db, "t", ["p"], [(value,) for value in PREDICATE_VALUES])
    accepted = [
        index
        for index, value in enumerate(PREDICATE_VALUES)
        if ref_is_true(value)
    ]
    return db, accepted


@pytest.mark.parametrize("optimize", [True, False])
def test_filter_keeps_what_is_true_accepts(optimize):
    db, accepted = predicate_db()
    rows = db.execute("SELECT id FROM t WHERE p", optimize=optimize).rows
    assert rows == [(index,) for index in accepted]
    having = db.execute(
        "SELECT id FROM t GROUP BY id HAVING MIN(p)", optimize=optimize
    ).rows
    assert having == [(index,) for index in accepted]


def test_searched_case_takes_the_branch_is_true_accepts():
    db, accepted = predicate_db()
    rows = db.execute("SELECT id, CASE WHEN p THEN 1 ELSE 0 END FROM t").rows
    assert rows == [
        (index, int(index in accepted))
        for index in range(len(PREDICATE_VALUES))
    ]


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_residual_keeps_what_is_true_accepts(kind, optimize):
    """HashJoin residual when optimized, NestedLoopJoin condition when
    not."""
    db, accepted = predicate_db()
    sql = f"SELECT a.id, b.id FROM t a {kind} t b ON a.id = b.id AND b.p"
    plan = db.explain(sql, optimize=optimize)
    assert ("HashJoin" if optimize else "NestedLoopJoin") in plan
    want = [
        (index, index if index in accepted else None)
        for index in range(len(PREDICATE_VALUES))
        if kind == "LEFT JOIN" or index in accepted
    ]
    assert db.execute(sql, optimize=optimize).rows == want


def test_index_join_residual_keeps_what_is_true_accepts():
    db, accepted = predicate_db()
    db.create_table(TableSchema("one", [Column("k", DataType.INTEGER)]))
    db.insert("one", [(index,) for index in accepted[:1] + [0]])
    db.create_index("t", "id")
    sql = "SELECT t.id FROM one JOIN t ON one.k = t.id AND t.p"
    assert "IndexJoin" in db.explain(sql)
    assert db.execute(sql).rows == [(accepted[0],)]


def test_morsel_filter_keeps_what_is_true_accepts():
    db, accepted = predicate_db()
    db.register_udf("IDENT", lambda value: value, expensive=True)
    sql = "SELECT id FROM t WHERE IDENT(p)"
    assert "BatchedFilter" in db.explain(sql, udf_batch_size=3)
    rows = db.execute(sql, udf_batch_size=3).rows
    assert rows == [(index,) for index in accepted]
    assert rows == db.execute(sql, udf_batch_size=None).rows


def test_delete_removes_what_is_true_accepts():
    db, accepted = predicate_db()
    assert db.execute("DELETE FROM t WHERE p").rows == [(len(accepted),)]
    assert db.execute("SELECT id FROM t").rows == [
        (index,)
        for index in range(len(PREDICATE_VALUES))
        if index not in accepted
    ]


# ---------------------------------------------------------------------------
# (f) GROUP BY
# ---------------------------------------------------------------------------

group_keys = st.sampled_from([None, 0, 1, 1.0, True, "a", "", BIG])


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            group_keys,
            group_keys,
            st.sampled_from([None, 1, 2, 2.0, 3, "x"]),
        ),
        max_size=20,
    ),
    two_keys=st.booleans(),
)
def test_group_by_emits_first_seen_groups_and_distinct_skips_nulls(
    data, two_keys
):
    db = Database()
    any_table(db, "t", ["g", "h", "x"], data)
    keys = "g, h" if two_keys else "g"
    groups: dict[tuple, list] = {}
    for g, h, x in data:
        groups.setdefault((g, h) if two_keys else (g,), []).append(x)
    want = []
    for key, members in groups.items():
        present = [x for x in members if x is not None]
        distinct: list = []
        for x in present:
            if x not in distinct:
                distinct.append(x)
        numbers = [x for x in distinct if not isinstance(x, str)]
        want.append(
            key
            + (
                len(members),
                len(present),
                len(distinct),
                min(present, key=ref_sort_key) if present else None,
                members[0],
                sum(numbers) if numbers else None,
            )
        )
    got = db.execute(
        f"SELECT {keys}, COUNT(*), COUNT(x), COUNT(DISTINCT x), MIN(x), x, "
        "SUM(DISTINCT CASE WHEN x = 'x' THEN NULL ELSE x END) "
        f"FROM t GROUP BY {keys}"
    ).rows
    assert same(got, want)


def test_ungrouped_aggregate_over_no_rows_is_one_row():
    db = Database()
    any_table(db, "t", ["x"], [])
    assert db.execute(
        "SELECT COUNT(*), COUNT(DISTINCT x), MIN(x) FROM t"
    ).rows == [(0, 0, None)]
    assert db.execute("SELECT x, COUNT(*) FROM t GROUP BY x").rows == []


# ---------------------------------------------------------------------------
# (g) HashJoin
# ---------------------------------------------------------------------------

join_keys = st.sampled_from([None, 0, 1, 1.0, True, "1", "a", NAN, BIG, BLOB])
join_rows = st.lists(st.tuples(join_keys, join_keys), max_size=8)


def keys_match(left, right) -> bool:
    """Two keys meet in a hash table: neither NULL, and one object or
    equal (so ``1``, ``1.0`` and ``True`` meet, and NaN only itself)."""
    return all(
        x is not None and y is not None and (x is y or x == y)
        for x, y in zip(left, right)
    )


@settings(max_examples=400, deadline=None)
@given(
    left=join_rows,
    right=join_rows,
    two_keys=st.booleans(),
    outer=st.booleans(),
    residual=st.booleans(),
)
def test_hash_join_matches_nested_loop_reference(
    left, right, two_keys, outer, residual
):
    db = Database()
    any_table(db, "l", ["k", "j"], left)
    any_table(db, "r", ["k", "j"], right)
    arity = 2 if two_keys else 1
    condition = "l.k = r.k" + (" AND l.j = r.j" if two_keys else "")
    if residual:
        condition += " AND l.id <= r.id"
    sql = (
        f"SELECT l.id, r.id FROM l {'LEFT ' if outer else ''}JOIN r "
        f"ON {condition}"
    )
    kind = "LEFT" if outer else "INNER"
    assert f"HashJoin({kind}, {arity} key(s))" in db.explain(sql)
    want = []
    for left_id, left_key in enumerate(left):
        matched = False
        for right_id, right_key in enumerate(right):
            if keys_match(left_key[:arity], right_key[:arity]) and (
                not residual or ref_comparison("<=", left_id, right_id)
            ):
                matched = True
                want.append((left_id, right_id))
        if outer and not matched:
            want.append((left_id, None))
    assert db.execute(sql).rows == want
