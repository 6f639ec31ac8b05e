"""What :func:`repro.db.resolve.rebound` derives from the owners a
statement's nodes carry is what :func:`repro.db.resolve.resolve` makes.

For each text below, on the ``a``/``b`` database of
``test_name_resolution``, and for every SELECT in it: the text is
resolved, then derived again from the owners that resolution wrote
(the stored-entry case), and a sibling text of the same template key,
bound from a template that the first text taught, is derived from the
owners the template carried (the template case).  Every field the
planner reads must equal the fresh resolution's: the items, names,
GROUP BY terms, HAVING, ORDER BY, aggregate calls, bare columns and
whether a subquery is held.  The pairs differ in literals a structural
comparison reads (a GROUP BY term equal to an item or not, two
aggregate calls equal or not), so a kept decision that depended on a
literal would show.  Last, worker threads share stored trees while some
of them write owners again and others plan from them.
"""

from __future__ import annotations

import pytest

from repro.db.resolve import Column, rebound, resolve
from repro.db.sql import ast
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_statement
from repro.db.stmtcache import Binder
from tests.db.test_name_resolution import build

#: (text that teaches the template, sibling text of the same key).
PAIRS = [
    ("SELECT * FROM a WHERE id = 1", "SELECT * FROM a WHERE id = 2"),
    (
        "SELECT p.*, q.x FROM a AS p JOIN a AS q ON p.id = q.id + 1",
        "SELECT p.*, q.x FROM a AS p JOIN a AS q ON p.id = q.id + 2",
    ),
    (
        "SELECT id + 1, COUNT(*) FROM a GROUP BY id + 1",
        "SELECT id + 1, COUNT(*) FROM a GROUP BY id + 2",
    ),
    (
        "SELECT SUM(id + 1), SUM(id + 2) FROM a",
        "SELECT SUM(id + 1), SUM(id + 1) FROM a",
    ),
    (
        "SELECT x AS k, COUNT(*) AS c FROM a GROUP BY k HAVING c > 0 "
        "ORDER BY c DESC, k",
        "SELECT x AS k, COUNT(*) AS c FROM a GROUP BY k HAVING c > 1 "
        "ORDER BY c DESC, k",
    ),
    (
        "SELECT x, n, COUNT(*) FROM a GROUP BY 1, 2 ORDER BY 3, x || 'a'",
        "SELECT x, n, COUNT(*) FROM a GROUP BY 1, 2 ORDER BY 3, x || 'b'",
    ),
    (
        "SELECT x AS id FROM a WHERE id > 0 ORDER BY id, -id",
        "SELECT x AS id FROM a WHERE id > 1 ORDER BY id, -id",
    ),
    (
        "SELECT s.k, b.y FROM (SELECT id AS k, x FROM a WHERE id > 0) AS s "
        "JOIN b ON s.k = b.id ORDER BY s.k",
        "SELECT s.k, b.y FROM (SELECT id AS k, x FROM a WHERE id > 1) AS s "
        "JOIN b ON s.k = b.id ORDER BY s.k",
    ),
    (
        "SELECT COUNT(*) FROM a WHERE id IN "
        "(SELECT id FROM b WHERE y = 'T1' AND id < 9)",
        "SELECT COUNT(*) FROM a WHERE id IN "
        "(SELECT id FROM b WHERE y = 'T2' AND id < 5)",
    ),
    (
        "SELECT id, (SELECT MAX(id) FROM b WHERE id < 7) FROM a "
        "WHERE EXISTS (SELECT 1 FROM b WHERE id = 3) LIMIT 2",
        "SELECT id, (SELECT MAX(id) FROM b WHERE id < 8) FROM a "
        "WHERE EXISTS (SELECT 1 FROM b WHERE id = 4) LIMIT 1",
    ),
]


def owner(node) -> object:
    """What a reference owns: a stored table's column (shared by every
    statement), a FROM subquery's column (made by each resolution, so
    told by what it is), an output index or a failure."""
    found = node.owner
    if isinstance(found, Column) and found.table is None:
        return (found.key, found.index)
    return found


def fields(resolved) -> tuple:
    """What the planner reads of one SELECT's resolution (positions are
    left out of equality), with the owner of every reference in it."""
    expressions = [item.expression for item in resolved.items]
    expressions += resolved.group_by + [resolved.having]
    expressions += [order.expression for order in resolved.order_by]
    return (
        resolved.items,
        resolved.names,
        resolved.group_by,
        resolved.having,
        resolved.order_by,
        resolved.aggregates,
        [(ref, owner(ref)) for ref in resolved.columns],
        resolved.has_subquery,
        [
            (node, owner(node))
            for expression in expressions
            if expression is not None
            for node in ast.walk(expression)
            if type(node) is ast.ColumnRef
        ],
    )


def every_select(statement) -> list:
    found, stack = [], [statement]
    while stack:
        node = stack.pop()
        if type(node) is ast.Select:
            found.append(node)
        stack.extend(ast.children(node))
    return found


def assert_derived(db, statement, resolved_tree) -> None:
    """Every SELECT of ``statement`` derives what resolving the same
    SELECT of ``resolved_tree``, a tree of the same text, makes."""
    fresh = resolve(db, resolved_tree)
    pairs = zip(every_select(statement), every_select(resolved_tree))
    for select, twin in pairs:
        derived = fields(rebound(db.functions, select))
        assert derived == fields(fresh.of(twin)), select


@pytest.mark.parametrize("pair", PAIRS, ids=[p[0][:40] for p in PAIRS])
def test_a_stored_tree_derives_its_resolution(pair):
    db, _ = build()
    for sql in pair:
        statement = parse_statement(sql)
        assert_derived(db, statement, statement)


@pytest.mark.parametrize("pair", PAIRS, ids=[p[0][:40] for p in PAIRS])
def test_a_bound_tree_derives_its_resolution(pair):
    db, _ = build()
    teacher, sibling = pair
    tokens = tokenize(teacher)
    taught = parse_statement(teacher)
    resolve(db, taught)
    binder = Binder(tokens)
    bound = binder.bind(tokenize(sibling), binder.owners(taught))
    assert repr(bound) == repr(parse_statement(sibling))
    fresh = parse_statement(sibling)
    assert_derived(db, bound, fresh)
    # Each reference owns what resolving the sibling afresh binds it to.
    assert list(map(owner, refs(bound))) == list(map(owner, refs(fresh)))


def refs(statement) -> list:
    found, stack = [], [statement]
    while stack:
        node = stack.pop()
        if type(node) is ast.ColumnRef:
            found.append(node)
        stack.extend(ast.children(node))
    return found


#: Texts whose stored trees workers share: LM-free ones planned from
#: their owners, and one calling the expensive ``SLOW``, resolved again
#: (its owners written again) on every execution.
SHARED = [
    "SELECT * FROM a WHERE id >= 2 ORDER BY id",
    "SELECT x AS k, COUNT(*) FROM a GROUP BY k ORDER BY k",
    "SELECT id, SLOW(y) FROM b WHERE id < 6 ORDER BY id",
    "SELECT s.k FROM (SELECT id AS k FROM b WHERE id < 9) AS s "
    "WHERE s.k IN (SELECT id FROM a) ORDER BY s.k",
]


def test_workers_share_stored_trees_and_their_owners():
    """Six threads (more than cores) run the shared texts with the
    analyzer on and off, so some re-resolve a stored tree while others
    plan from its owners; every answer is the single-threaded one."""
    import sys
    import threading

    db, _ = build()
    want = {sql: db.execute(sql).rows for sql in SHARED}
    errors: list[BaseException] = []

    def work(seed: int) -> None:
        try:
            for step in range(120):
                sql = SHARED[(seed + step) % len(SHARED)]
                rows = db.execute(sql, analyze=bool(step % 2)).rows
                assert rows == want[sql], sql
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=work, args=(n,)) for n in range(6)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
