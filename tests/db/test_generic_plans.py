"""A key keeps one generic plan, and a text of the key is served by it
filled with its own values.

``plan_select`` is counted as ``test_resolve_once`` counts ``resolve``:
texts of one key with fresh constants make one call, and a key join one
more only after a write that turns the choice of its index join.
Every filled plan renders as the plan made afresh for its text, shares
no node that holds a parameter with the plan its key keeps, and
answers what ``sqlite3`` answers.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import gen
from benchmarks.perf.oracle import SqliteMirror, rows_match
from benchmarks.perf.workloads import _load_database
from repro.db.planner import Planner
from repro.db.sql.lexer import tokenize
from repro.db.stmtcache import Parameters, template_key
from tests.db.test_statement_templates import SHAPES, database

POINT = "SELECT id, amount, status FROM orders WHERE id = {}"
RANGE = (
    "SELECT id, amount FROM orders WHERE id BETWEEN {} AND {} "
    "ORDER BY id LIMIT 20"
)
DELETE = "DELETE FROM orders WHERE id = {}"
KEY_JOIN = (
    "SELECT o.id, o.amount, c.name FROM orders o "
    "JOIN customers c ON o.customer_id = c.id WHERE c.id = {}"
)


@pytest.fixture()
def plans(monkeypatch) -> list[int]:
    """One element per ``Planner.plan_select`` call made while the test
    runs."""
    calls: list[int] = []
    real = Planner.plan_select

    def counted(self, *args, **options):
        calls.append(1)
        return real(self, *args, **options)

    monkeypatch.setattr(Planner, "plan_select", counted)
    return calls


def big_database():
    db = database()
    db.insert(
        "orders",
        [(id, id % 4, id * 0.5, "open") for id in range(12, 400)],
    )
    return db


@pytest.mark.parametrize("analyze", [True, False])
@pytest.mark.parametrize("text", [POINT, RANGE, DELETE])
def test_fresh_constants_of_one_key_plan_once(plans, text, analyze):
    db = big_database()
    for n in range(50):
        sql = text.format(n * 7 + 3, n * 7 + 40)
        db.execute(sql, analyze=analyze and not text.startswith("DELETE"))
    assert len(plans) == 1


@pytest.mark.parametrize("analyze", [True, False])
def test_a_key_join_plans_again_only_when_a_write_turns_its_join(
    plans, analyze
):
    """A write moves the statistics the index join was chosen by; the
    kept plan serves on while that choice, made again, comes out the
    same, and is made again when it does not."""
    db, cold = big_database(), big_database()
    hot = KEY_JOIN.format(2)
    writes = []
    for n in range(50):
        if n and n % 10 == 0:
            writes.append(f"UPDATE orders SET amount = {n} WHERE id = {n}")
            db.execute(writes[-1])
        db.execute(KEY_JOIN.format(n % 4), analyze=analyze)
        db.execute(hot, analyze=analyze)
    assert len(plans) == 1 + 4  # the key join once, and each UPDATE
    assert "IndexJoin" in db._lookup(hot).plan.explain()
    # Three customers left in orders: probing its index no longer pays.
    writes.append("UPDATE orders SET customer_id = 0 WHERE customer_id = 3")
    db.execute(writes[-1])
    for sql in writes:
        cold.execute(sql)
    before = len(plans)
    for sql in (KEY_JOIN.format(1), hot, KEY_JOIN.format(0)):
        rows = db.execute(sql, analyze=analyze).rows
        assert sorted(rows) == sorted(cold.execute(sql).rows)
    assert len(plans) == before + 2  # the key join, once on each
    assert db._lookup(hot).plan.explain() == fresh_tree(db, hot)
    assert "HashJoin" in fresh_tree(db, hot)


def fresh_tree(db, sql: str) -> str:
    """The plan ``db.explain`` makes afresh, without its footer."""
    return db.explain(sql).split("\nOptimizer:\n")[0]


def assert_filled_as_fresh(db, sql: str) -> bool:
    """Fill the plan ``sql``'s key keeps (if any) with ``sql``'s values
    and check it against a fresh plan; whether one was filled."""
    kept = db.statement_cache.plans.get(template_key(tokenize(sql)))
    if kept is None or kept.options != (True, "auto"):
        return False
    entry, _ = db._derive(sql)
    filled = kept.parameters.fill(kept.plan, db._lowered(entry.statement))
    if filled is None:  # a guard refused the text's values
        return False
    assert filled.explain() == fresh_tree(db, sql), sql
    held = {at for at, *_ in kept.parameters.fields}
    nodes = [filled]
    for node in nodes:
        assert id(node) not in held, sql
        nodes.extend(node._children())
    return True


def test_a_statement_template_text_fills_as_a_fresh_plan():
    filled = 0
    for group in SHAPES.values():
        db = database()
        for sql in group:
            for text in (sql, "\t" + sql):
                try:
                    db.execute(text)
                except Exception:  # noqa: BLE001 - a failing text teaches nothing
                    pass
        for sql in group:
            try:
                db.explain(sql)
            except Exception:  # noqa: BLE001
                continue
            filled += assert_filled_as_fresh(db, sql)
    assert filled >= 20


def test_sql_short_texts_fill_as_fresh_plans_and_answer_as_sqlite():
    tables = gen.relational(0)
    db = _load_database(tables)
    mirror = SqliteMirror(tables)
    hot = gen.short_hot_set(0)
    filled = 0
    for block in range(60):
        for statement in gen.short_block(0, block, hot):
            read = statement.kind in ("point", "keyjoin", "range")
            if read and assert_filled_as_fresh(db, statement.sql):
                filled += 1
            rows = db.execute(statement.sql, analyze=read).rows
            assert rows_match(rows, mirror.run(statement), statement.ordered)
    mirror.close()
    assert filled > 500


def test_a_text_that_holds_a_plan_is_not_filled_again(monkeypatch):
    """Over 60 warmed ``sql_short`` blocks and their writes, a text that
    holds a plan runs it: a write that leaves each of its choices as it
    was does not send the text back to its key's plan to be filled."""
    db = _load_database(gen.relational(0))
    hot = gen.short_hot_set(0)
    fills: list[int] = []
    fill = Parameters.fill
    monkeypatch.setattr(
        Parameters,
        "fill",
        lambda self, *args: fills.append(1) or fill(self, *args),
    )
    held = filled = 0
    for block in range(100):
        for statement in gen.short_block(0, block, hot):
            read = statement.kind in ("point", "keyjoin", "range")
            entry = db._lookup(statement.sql)
            before = len(fills)
            db.execute(statement.sql, analyze=read)
            if block >= 40 and entry is not None and entry.plan is not None:
                held += 1
                filled += len(fills) > before
    assert held > 700
    assert filled == 0
