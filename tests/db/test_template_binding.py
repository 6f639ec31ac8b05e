"""What a statement template binds, and when the statement cache keeps one.

A text the statement cache has not seen is lexed once; texts that
differ only in literal values, whitespace and comments share a
``template_key``, and from the key's second text on the AST is bound
from the key's template instead of parsed.  These tests hold the bound
AST to ``parse_statement``'s ``repr`` — positions included — over the
pin's corpus (``test_statement_templates.py``) and generated short
reads, and say what the template store keeps.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.db import Database
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_statement
from repro.db.stmtcache import CAPACITY, Binder, Template, template_key
from repro.db.resolve import resolve
from repro.errors import AnalysisError, PlanningError, ReproError
from tests.db.test_statement_templates import SHAPES, database


def parsed(sql: str) -> tuple:
    """``parse_statement``'s tree's repr, or its error."""
    try:
        return ("ok", repr(parse_statement(sql)))
    except Exception as error:  # noqa: BLE001 - the outcome is the point
        return ("error", type(error).__name__, str(error))


def bound(binder: Binder, sql: str) -> tuple:
    try:
        return ("ok", repr(binder.bind(tokenize(sql))))
    except Exception as error:  # noqa: BLE001 - the outcome is the point
        return ("error", type(error).__name__, str(error))


def variants(sql: str) -> list[str]:
    """``sql`` and texts of its key that move every position."""
    return [sql, "  " + sql, "/* * */\n" + sql + " -- done", sql + ";"]


def templates(db: Database) -> int:
    """Templates in the store, first-sight markers aside."""
    return sum(
        type(value) is Template
        for value in db.statement_cache.templates.snapshot().values()
    )


def corpus() -> list[str]:
    return [text for group in SHAPES.values() for text in group]


def by_key(texts: list[str]) -> dict[tuple, list[str]]:
    keyed: dict[tuple, list[str]] = {}
    for sql in texts:
        for text in variants(sql):
            try:
                tokens = tokenize(text)
            except ReproError:
                continue
            if tokens[0].matches_keyword("SELECT"):
                keyed.setdefault(template_key(tokens), []).append(text)
    return keyed


class TestBinding:
    def test_the_pin_corpus_binds_as_it_parses(self):
        checked = 0
        for texts in by_key(corpus()).values():
            for source in texts:
                if parsed(source)[0] != "ok":
                    continue
                binder = Binder(tokenize(source))
                for text in texts:
                    assert bound(binder, text) == parsed(text), (source, text)
                    checked += 1
        assert checked > 500

    def test_generated_short_reads_bind_as_they_parse(self):
        """3,000 point, key-join and range reads with generated
        constants, each bound from a template built from another."""
        rng = random.Random(32)
        shapes = [
            lambda: "SELECT id, amount, status FROM orders "
            f"WHERE id = {rng.randrange(10 ** rng.randrange(1, 12))}",
            lambda: "SELECT o.id, o.amount, c.name FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            f"WHERE c.id = {rng.randrange(2000)}",
            lambda: (
                lambda low: "SELECT id, amount FROM orders "
                f"WHERE id BETWEEN {low} AND {low + 40} ORDER BY id "
                f"LIMIT {rng.randrange(1, 100)}"
            )(rng.randrange(20_000)),
        ]
        binders = {}
        for _ in range(3000):
            sql = rng.choice(shapes)()
            if rng.random() < 0.3:
                sql = sql.replace(" ", "  ", rng.randrange(1, 6))
            tokens = tokenize(sql)
            key = template_key(tokens)
            if key not in binders:
                binders[key] = Binder(tokens)
                continue
            assert bound(binders[key], sql) == parsed(sql), sql
        assert len(binders) < 10

    def test_a_bound_having_without_grouping_fails_at_its_own_span(self):
        """A SELECT carries its HAVING clause's extent as ``position``
        and ``end``, which the Binder rebuilds: the analyzer and the
        engine point a bound text's caret at that text's HAVING clause,
        as they do for its parse."""
        db = database()
        texts = [
            "SELECT id FROM orders HAVING id > 1",
            "/* moved */  SELECT id FROM orders HAVING id >  22 -- end",
        ]
        binder = Binder(tokenize(texts[0]))
        for text in texts:
            clause = text[text.index("HAVING") :].removesuffix(" -- end")
            statement = binder.bind(tokenize(text))
            assert repr(statement) == repr(parse_statement(text))
            [diagnostic] = db.analyze(statement, source=text).diagnostics
            span = diagnostic.span
            assert diagnostic.code == "ANA006"
            assert text[span.start : span.end] == clause
            [failure] = resolve(db, statement).failures.values()
            for fails in (failure.throw, lambda: db.execute(text)):
                with pytest.raises(PlanningError) as caught:
                    fails()
                start, end = caught.value.span
                assert text[start:end] == clause

    def test_a_key_abstracts_literals_and_keeps_every_other_token(self):
        key = template_key(tokenize("SELECT a FROM t WHERE a = 1"))
        assert key == template_key(
            tokenize("select  a FROM t /* x */ WHERE a=23")
        )
        for other in (
            "SELECT a FROM t WHERE a = 1.0",
            "SELECT a FROM t WHERE a = '1'",
            "SELECT a FROM t WHERE a = -1",
            "SELECT a FROM t WHERE a = NULL",
            "SELECT a FROM t WHERE b = 1",
            'SELECT "FROM" FROM t WHERE a = 1',
            "SELECT A FROM t WHERE a = 1",
        ):
            assert template_key(tokenize(other)) != key, other


class TestTheStore:
    def test_a_key_is_a_marker_once_and_a_template_from_its_second_text(
        self,
    ):
        db = database()
        key = template_key(tokenize("SELECT id FROM orders WHERE id = 1"))
        db.execute("SELECT id FROM orders WHERE id = 1")
        assert hash(key) in db.statement_cache.templates
        assert db.statement_cache.templates.get(key) is None
        db.execute("SELECT id FROM orders WHERE id = 1")  # a text hit
        assert db.statement_cache.templates.get(key) is None
        db.execute("SELECT id FROM orders WHERE id = 2")
        assert isinstance(db.statement_cache.templates.get(key), Template)
        entry = db._lookup("SELECT id FROM orders WHERE id = 2")
        assert repr(entry.statement) == repr(
            parse_statement("SELECT id FROM orders WHERE id = 2")
        )

    def test_a_bound_text_takes_the_templates_ast_and_verdict(self):
        db = database()
        texts = [
            f"SELECT id, amount FROM orders WHERE id = {n}" for n in range(4)
        ]
        for sql in texts[:2]:
            db.execute(sql, analyze=True)
        template = db.statement_cache.templates.get(
            template_key(tokenize(texts[0]))
        )
        assert template.stamps.analyzed
        entry, shape = db._derive("  " + texts[3])
        assert shape[2] is template and entry.analyzed
        assert entry.tables is template.stamps.tables
        assert repr(entry.statement) == repr(parse_statement("  " + texts[3]))

    def test_templates_are_not_counted_and_failures_teach_nothing(self):
        db = database()
        for n in range(10):
            db.execute(f"SELECT id FROM orders WHERE id = {n}")
        assert len(db.statement_cache) == 10
        assert templates(db) == 1
        kept = db.statement_cache.templates.snapshot()
        for sql in (
            "SELECT nope FROM orders WHERE id = 1",
            "SELECT nope FROM orders WHERE id = 2",
            "SELECT nope FROM orders WHERE id = 3",
        ):
            with pytest.raises(ReproError):
                db.execute(sql)
        assert db.statement_cache.templates.snapshot() == kept

    def test_explain_paths_bind_but_keep_nothing(self):
        db = database()
        for n in range(3):
            db.explain(f"SELECT id FROM orders WHERE id = {n}")
            db.explain_analyze(f"SELECT id FROM orders WHERE id = {n}")
        assert len(db.statement_cache.templates) == 0
        db.execute("SELECT id FROM orders WHERE id = 1")
        db.execute("SELECT id FROM orders WHERE id = 2")
        assert db.explain("SELECT id FROM orders WHERE id = 7") == database(
        ).explain("SELECT id FROM orders WHERE id = 7")
        assert templates(db) == 1
        assert len(db.statement_cache) == 2

    def test_the_store_is_bounded(self):
        db = database()
        for n in range(CAPACITY + 3):
            db.execute(f"SELECT id AS a{n} FROM orders WHERE id = 1")
        # An alias is an identifier: a new key each time.
        assert len(db.statement_cache.templates) == CAPACITY


class TestVerdicts:
    def test_an_ordinal_out_of_range_is_judged_afresh(self):
        db = database()
        for sql in (
            "SELECT id, amount FROM orders ORDER BY 1",
            "SELECT id, amount FROM orders ORDER BY 1 ",
        ):
            db.execute(sql, analyze=True)
        with pytest.raises(AnalysisError) as raised:
            db.execute(
                "SELECT id, amount FROM orders ORDER BY 3", analyze=True
            )
        assert [item.code for item in raised.value.report.errors] == ["ANA014"]
        # A second ordinal in range is judged afresh, then kept.
        db.execute("SELECT id, amount FROM orders ORDER BY 2", analyze=True)
        template = db.statement_cache.templates.get(
            template_key(tokenize("SELECT id, amount FROM orders ORDER BY 2"))
        )
        assert template.stamps.analyzed and template.values == (2,)

    def test_a_template_that_no_longer_stands_is_restamped(self):
        db = database()
        for n in (1, 2):
            db.execute(f"SELECT id FROM orders WHERE amount > {n}")
        key = template_key(tokenize("SELECT id FROM orders WHERE amount > 1"))
        before = db.statement_cache.templates.get(key)
        db.create_index("orders", "amount")
        assert not before.stamps.stands(
            db._tables, db.functions.version, db.shard_runtime
        )
        assert db.execute(
            "SELECT id FROM orders WHERE amount > 4"
        ).rows == [(9,), (10,), (11,)]
        after = db.statement_cache.templates.get(key)
        assert after.binder is before.binder
        assert after.stamps.stands(
            db._tables, db.functions.version, db.shard_runtime
        )

    def test_an_unanalyzed_text_does_not_forget_a_verdict(self):
        db = database()
        for n in (1, 2):
            db.execute(f"SELECT id FROM orders WHERE id = {n}", analyze=True)
        db.execute("SELECT id FROM orders WHERE id = 3")
        key = template_key(tokenize("SELECT id FROM orders WHERE id = 3"))
        assert db.statement_cache.templates.get(key).stamps.analyzed
        assert db._lookup("SELECT id FROM orders WHERE id = 3").analyzed


class TestWorkersShareOneStore:
    def test_four_readers_one_writer_on_fresh_constants(self):
        """Readers send texts no one sent before — point reads with new
        constants, and ordinal sorts where ``ORDER BY 3`` must always be
        rejected — while a writer moves values and now and then voids
        every template (an index, a registered function).  A text bound
        from a template another worker was renewing must answer as it
        parses: the right ids, and never a verdict of other values."""
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        size = 6
        db.insert("t", [(id, 0) for id in range(size)])
        db.create_index("t", "id")
        errors: list[BaseException] = []
        answered = [0]
        deadline = time.monotonic() + 1.5
        stop = threading.Event()

        def write() -> None:
            try:
                step = 0
                while time.monotonic() < deadline:
                    step += 1
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
            rng = random.Random(reader)
            try:
                while not stop.is_set():
                    id = rng.randrange(-2, size + 2)
                    spaces = " " * rng.randrange(4)
                    rows = db.execute(
                        f"SELECT id, v FROM t WHERE{spaces} id = {id}",
                        analyze=True,
                    ).rows
                    assert [row[0] for row in rows] == (
                        [id] if 0 <= id < size else []
                    ), (id, rows)
                    column = rng.randrange(1, 4)
                    sql = f"SELECT id, v FROM t{spaces} ORDER BY {column}"
                    if column == 3:
                        with pytest.raises(AnalysisError):
                            db.execute(sql, analyze=True)
                    else:
                        rows = db.execute(sql, analyze=True).rows
                        assert len(rows) == size
                    answered[0] += 1
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
        assert answered[0] > 50
        # ``id = 3``, ``id = -1`` (an operator more), ``ORDER BY 2`` and
        # the writer's UPDATE.
        assert templates(db) == 4
