"""How many times each front door resolves a SELECT, pinned with what
it answers.

:func:`repro.db.resolve.resolve` binds a statement's names; every
reader of a SELECT (the analyzer's preflight, the optimizer's route
choice, the planner) reads what one call made.  Each record below runs
one statement through ``execute``, ``explain`` or ``explain_analyze``
on the ``a``/``b`` database of ``test_name_resolution`` and keeps the
number of ``resolve`` calls that one call made beside its rows, its
rendered plan or its error.  ``execute`` runs at ``analyze`` on and off
and ``optimize`` on and off, on a text seen for the first time
(``first``), the second text of a template key (``second_text``), a
text bound from its key's template (``template``), the second run of
one text (``stored``) and its third (``plan_hit``, which runs the plan
the second stored when the plan may run again).

The statements cover a relational range read, a call of the expensive
``SLOW``, a nested SELECT in WHERE and in FROM, and a name that binds
to nothing (the analyzer's rejection, or the planner's error).
"""

from __future__ import annotations

import pytest

from repro.db import resolve as resolution
from repro.errors import ReproError
from tests.db.test_name_resolution import build

#: Three texts of one template key per statement.
STATEMENTS: dict[str, tuple[str, str, str]] = {
    "relational": tuple(
        f"SELECT id, x FROM a WHERE id >= {n} ORDER BY id" for n in (2, 1, 3)
    ),
    "udf": tuple(
        f"SELECT id, SLOW(y) FROM b WHERE id < {n} ORDER BY id"
        for n in (5, 4, 6)
    ),
    "nested_in": tuple(
        "SELECT COUNT(*) FROM a WHERE id IN "
        f"(SELECT id FROM b WHERE y = 'T{n}')"
        for n in (1, 2, 3)
    ),
    "nested_from": tuple(
        f"SELECT s.k FROM (SELECT id AS k FROM a WHERE id > {n}) AS s "
        "ORDER BY s.k"
        for n in (0, 1, 2)
    ),
    "unknown_column": tuple(
        f"SELECT ghost FROM a WHERE id = {n}" for n in (1, 2, 3)
    ),
}

#: The texts run before the one counted: (earlier texts, counted text),
#: as indexes into a statement's three texts.
SIGHTINGS: dict[str, tuple[tuple[int, ...], int]] = {
    "first": ((), 0),
    "second_text": ((0,), 1),
    "template": ((0, 1), 2),
    "stored": ((0,), 0),
    "plan_hit": ((0, 0), 0),
}


@pytest.fixture()
def resolves(monkeypatch) -> list[int]:
    """One element per ``resolve`` call made while the test runs."""
    calls: list[int] = []
    real = resolution._Resolver.__init__

    def counted(self, db) -> None:
        calls.append(1)
        real(self, db)

    monkeypatch.setattr(resolution._Resolver, "__init__", counted)
    return calls


def outcome(call) -> tuple:
    try:
        return ("ok", call())
    except ReproError as error:
        return (type(error).__name__, str(error))


def counted(calls: list[int], call) -> tuple:
    """``call``'s outcome and the ``resolve`` calls it made."""
    before = len(calls)
    found = outcome(call)
    return (len(calls) - before, found)


def record_execute(
    calls: list[int], texts: tuple, sighting: str, analyze: bool,
    optimize: bool,
) -> tuple:
    db, _ = build()
    earlier, counted_text = SIGHTINGS[sighting]
    for index in earlier:
        outcome(
            lambda: db.execute(
                texts[index], analyze=analyze, optimize=optimize
            )
        )
    return counted(
        calls,
        lambda: db.execute(
            texts[counted_text], analyze=analyze, optimize=optimize
        ).rows,
    )


CASES = [
    (statement, f"execute-{sighting}-analyze{analyze:d}-optimize{optimize:d}")
    for statement in STATEMENTS
    for sighting in SIGHTINGS
    for analyze in (True, False)
    for optimize in (True, False)
] + [
    (statement, f"{door}-optimize{optimize:d}")
    for statement in STATEMENTS
    for door in ("explain", "explain_analyze")
    for optimize in (True, False)
]


def record(calls: list[int], statement: str, case: str) -> tuple:
    texts = STATEMENTS[statement]
    door, *rest = case.split("-")
    if door == "execute":
        sighting, analyze, optimize = rest
        return record_execute(
            calls, texts, sighting, analyze.endswith("1"),
            optimize.endswith("1"),
        )
    optimize = rest[0].endswith("1")
    db, _ = build()
    if door == "explain":
        return counted(
            calls, lambda: db.explain(texts[0], optimize=optimize)
        )
    return counted(
        calls,
        lambda: db.explain_analyze(
            texts[0], analyze=True, optimize=optimize
        ).render(),
    )


def answer_key(case: str) -> str:
    """Which answer a case pins: an ``execute`` gives the rows (or the
    error) of the text it runs, at its ``analyze``, whatever ran before
    and at either ``optimize``."""
    door, *rest = case.split("-")
    if door != "execute":
        return case
    sighting, analyze, _ = rest
    return f"execute-text{SIGHTINGS[sighting][1]}-{analyze}"


# fmt: off
#: ``resolve`` calls per case, one count per statement (in the order of
#: ``STATEMENTS``).
COUNTS: dict[str, tuple[int, ...]] = {
    'execute-first-analyze1-optimize1': (1, 1, 1, 1, 1),
    'execute-first-analyze1-optimize0': (1, 1, 1, 1, 1),
    'execute-first-analyze0-optimize1': (1, 1, 1, 1, 1),
    'execute-first-analyze0-optimize0': (1, 1, 1, 1, 1),
    'execute-second_text-analyze1-optimize1': (1, 1, 1, 1, 1),
    'execute-second_text-analyze1-optimize0': (1, 1, 1, 1, 1),
    'execute-second_text-analyze0-optimize1': (1, 1, 1, 1, 1),
    'execute-second_text-analyze0-optimize0': (1, 1, 1, 1, 1),
    'execute-template-analyze1-optimize1': (0, 1, 0, 0, 1),
    'execute-template-analyze1-optimize0': (0, 1, 0, 0, 1),
    'execute-template-analyze0-optimize1': (0, 1, 0, 0, 1),
    'execute-template-analyze0-optimize0': (0, 1, 0, 0, 1),
    'execute-stored-analyze1-optimize1': (0, 1, 0, 0, 1),
    'execute-stored-analyze1-optimize0': (0, 1, 0, 0, 1),
    'execute-stored-analyze0-optimize1': (0, 1, 0, 0, 1),
    'execute-stored-analyze0-optimize0': (0, 1, 0, 0, 1),
    'execute-plan_hit-analyze1-optimize1': (0, 1, 0, 0, 1),
    'execute-plan_hit-analyze1-optimize0': (0, 0, 0, 0, 1),
    'execute-plan_hit-analyze0-optimize1': (0, 1, 0, 0, 1),
    'execute-plan_hit-analyze0-optimize0': (0, 0, 0, 0, 1),
    'explain-optimize1': (1, 1, 1, 1, 1),
    'explain-optimize0': (1, 1, 1, 1, 1),
    'explain_analyze-optimize1': (1, 1, 1, 1, 1),
    'explain_analyze-optimize0': (1, 1, 1, 1, 1),
}

#: Rows, rendered plan or error, per statement and answer key.
ANSWERS: dict[str, dict[str, tuple]] = {'relational': {'execute-text0-analyze1': ('ok', [(2, 'p'), (3, 's')]),
                'execute-text0-analyze0': ('ok', [(2, 'p'), (3, 's')]),
                'execute-text1-analyze1': ('ok',
                                           [(1, 'p'), (2, 'p'), (3, 's')]),
                'execute-text1-analyze0': ('ok',
                                           [(1, 'p'), (2, 'p'), (3, 's')]),
                'execute-text2-analyze1': ('ok', [(3, 's')]),
                'execute-text2-analyze0': ('ok', [(3, 's')]),
                'explain-optimize1': ('ok',
                                      'Sort(1 key(s))\n'
                                      '  Project(id, x)\n'
                                      '    Filter(where)\n'
                                      '      Scan(a AS a)'),
                'explain-optimize0': ('ok',
                                      'Sort(1 key(s))\n'
                                      '  Project(id, x)\n'
                                      '    Filter(where)\n'
                                      '      Scan(a AS a)'),
                'explain_analyze-optimize1': ('ok',
                                              'Sort(1 key(s)) [rows_in=2 '
                                              'rows_out=2 vtime=0.000104s]\n'
                                              '  Project(id, x) [rows_in=2 '
                                              'rows_out=2 vtime=0.000104s]\n'
                                              '    Filter(where) [rows_in=3 '
                                              'rows_out=2 vtime=0.000105s]\n'
                                              '      Scan(a AS a) [rows_in=0 '
                                              'rows_out=3 vtime=0.000103s]'),
                'explain_analyze-optimize0': ('ok',
                                              'Sort(1 key(s)) [rows_in=2 '
                                              'rows_out=2 vtime=0.000104s]\n'
                                              '  Project(id, x) [rows_in=2 '
                                              'rows_out=2 vtime=0.000104s]\n'
                                              '    Filter(where) [rows_in=3 '
                                              'rows_out=2 vtime=0.000105s]\n'
                                              '      Scan(a AS a) [rows_in=0 '
                                              'rows_out=3 vtime=0.000103s]')},
 'udf': {'execute-text0-analyze1': ('ok', [(2, 'T1'), (3, 'T2'), (4, 'T3')]),
         'execute-text0-analyze0': ('ok', [(2, 'T1'), (3, 'T2'), (4, 'T3')]),
         'execute-text1-analyze1': ('ok', [(2, 'T1'), (3, 'T2')]),
         'execute-text1-analyze0': ('ok', [(2, 'T1'), (3, 'T2')]),
         'execute-text2-analyze1': ('ok',
                                    [(2, 'T1'),
                                     (3, 'T2'),
                                     (4, 'T3'),
                                     (5, 'T1')]),
         'execute-text2-analyze0': ('ok',
                                    [(2, 'T1'),
                                     (3, 'T2'),
                                     (4, 'T3'),
                                     (5, 'T1')]),
         'explain-optimize1': ('ok',
                               'Sort(1 key(s))\n'
                               '  BatchedProject(id, SLOW(y), batch=3, '
                               'sites=1)\n'
                               '    Filter(where)\n'
                               '      Scan(b AS b)\n'
                               'Optimizer:\n'
                               '  route: batched: est 3 LM calls / 168 tokens '
                               '(per-row 30 calls / 1680 tokens)\n'
                               '  auto-batch-size: udf_batch_size=3 from '
                               'distinct-value bound 3 (rows_scanned=30)'),
         'explain-optimize0': ('ok',
                               'Sort(1 key(s))\n'
                               '  Project(id, SLOW(y))\n'
                               '    Filter(where)\n'
                               '      Scan(b AS b)'),
         'explain_analyze-optimize1': ('ok',
                                       'Sort(1 key(s)) [rows_in=3 rows_out=3 '
                                       'vtime=0.000106s]\n'
                                       '  BatchedProject(id, SLOW(y), '
                                       'batch=3, sites=1) [rows_in=3 '
                                       'rows_out=3 vtime=0.000106s lm_calls=3 '
                                       'lm_batches=0 udf_cache_hits=0 '
                                       'udf_cache_misses=3]\n'
                                       '    Filter(where) [rows_in=30 '
                                       'rows_out=3 vtime=0.000133s]\n'
                                       '      Scan(b AS b) [rows_in=0 '
                                       'rows_out=30 vtime=0.000130s]\n'
                                       'Optimizer:\n'
                                       '  route: batched: est 3 LM calls / '
                                       '168 tokens (per-row 30 calls / 1680 '
                                       'tokens)\n'
                                       '  auto-batch-size: udf_batch_size=3 '
                                       'from distinct-value bound 3 '
                                       '(rows_scanned=30)'),
         'explain_analyze-optimize0': ('ok',
                                       'Sort(1 key(s)) [rows_in=3 rows_out=3 '
                                       'vtime=0.000106s]\n'
                                       '  Project(id, SLOW(y)) [rows_in=3 '
                                       'rows_out=3 vtime=0.000106s]\n'
                                       '    Filter(where) [rows_in=30 '
                                       'rows_out=3 vtime=0.000133s]\n'
                                       '      Scan(b AS b) [rows_in=0 '
                                       'rows_out=30 vtime=0.000130s]')},
 'nested_in': {'execute-text0-analyze1': ('ok', [(1,)]),
               'execute-text0-analyze0': ('ok', [(1,)]),
               'execute-text1-analyze1': ('ok', [(1,)]),
               'execute-text1-analyze0': ('ok', [(1,)]),
               'execute-text2-analyze1': ('ok', [(0,)]),
               'execute-text2-analyze0': ('ok', [(0,)]),
               'explain-optimize1': ('ok',
                                     'Project(COUNT(*))\n'
                                     '  Aggregate(groups=0, calls=[COUNT])\n'
                                     '    Filter(where)\n'
                                     '      Scan(a AS a)'),
               'explain-optimize0': ('ok',
                                     'Project(COUNT(*))\n'
                                     '  Aggregate(groups=0, calls=[COUNT])\n'
                                     '    Filter(where)\n'
                                     '      Scan(a AS a)'),
               'explain_analyze-optimize1': ('ok',
                                             'Project(COUNT(*)) [rows_in=1 '
                                             'rows_out=1 vtime=0.000102s]\n'
                                             '  Aggregate(groups=0, '
                                             'calls=[COUNT]) [rows_in=1 '
                                             'rows_out=1 vtime=0.000102s]\n'
                                             '    Filter(where) [rows_in=3 '
                                             'rows_out=1 vtime=0.000104s]\n'
                                             '      Scan(a AS a) [rows_in=0 '
                                             'rows_out=3 vtime=0.000103s]'),
               'explain_analyze-optimize0': ('ok',
                                             'Project(COUNT(*)) [rows_in=1 '
                                             'rows_out=1 vtime=0.000102s]\n'
                                             '  Aggregate(groups=0, '
                                             'calls=[COUNT]) [rows_in=1 '
                                             'rows_out=1 vtime=0.000102s]\n'
                                             '    Filter(where) [rows_in=3 '
                                             'rows_out=1 vtime=0.000104s]\n'
                                             '      Scan(a AS a) [rows_in=0 '
                                             'rows_out=3 vtime=0.000103s]')},
 'nested_from': {'execute-text0-analyze1': ('ok', [(1,), (2,), (3,)]),
                 'execute-text0-analyze0': ('ok', [(1,), (2,), (3,)]),
                 'execute-text1-analyze1': ('ok', [(2,), (3,)]),
                 'execute-text1-analyze0': ('ok', [(2,), (3,)]),
                 'execute-text2-analyze1': ('ok', [(3,)]),
                 'execute-text2-analyze0': ('ok', [(3,)]),
                 'explain-optimize1': ('ok',
                                       'Sort(1 key(s))\n'
                                       '  Project(k)\n'
                                       '    Slice([0])\n'
                                       '      Project(k)\n'
                                       '        Filter(where)\n'
                                       '          Scan(a AS a)'),
                 'explain-optimize0': ('ok',
                                       'Sort(1 key(s))\n'
                                       '  Project(k)\n'
                                       '    Slice([0])\n'
                                       '      Project(k)\n'
                                       '        Filter(where)\n'
                                       '          Scan(a AS a)'),
                 'explain_analyze-optimize1': ('ok',
                                               'Sort(1 key(s)) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '  Project(k) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '    Slice([0]) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '      Project(k) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '        Filter(where) '
                                               '[rows_in=3 rows_out=3 '
                                               'vtime=0.000106s]\n'
                                               '          Scan(a AS a) '
                                               '[rows_in=0 rows_out=3 '
                                               'vtime=0.000103s]'),
                 'explain_analyze-optimize0': ('ok',
                                               'Sort(1 key(s)) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '  Project(k) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '    Slice([0]) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '      Project(k) [rows_in=3 '
                                               'rows_out=3 vtime=0.000106s]\n'
                                               '        Filter(where) '
                                               '[rows_in=3 rows_out=3 '
                                               'vtime=0.000106s]\n'
                                               '          Scan(a AS a) '
                                               '[rows_in=0 rows_out=3 '
                                               'vtime=0.000103s]')},
 'unknown_column': {'execute-text0-analyze1': ('AnalysisError',
                                               'static analysis rejected '
                                               'query: ANA003: unknown column '
                                               "'ghost'"),
                    'execute-text0-analyze0': ('PlanningError',
                                               "unknown column 'ghost'"),
                    'execute-text1-analyze1': ('AnalysisError',
                                               'static analysis rejected '
                                               'query: ANA003: unknown column '
                                               "'ghost'"),
                    'execute-text1-analyze0': ('PlanningError',
                                               "unknown column 'ghost'"),
                    'execute-text2-analyze1': ('AnalysisError',
                                               'static analysis rejected '
                                               'query: ANA003: unknown column '
                                               "'ghost'"),
                    'execute-text2-analyze0': ('PlanningError',
                                               "unknown column 'ghost'"),
                    'explain-optimize1': ('PlanningError',
                                          "unknown column 'ghost'"),
                    'explain-optimize0': ('PlanningError',
                                          "unknown column 'ghost'"),
                    'explain_analyze-optimize1': ('AnalysisError',
                                                  'static analysis rejected '
                                                  'query: ANA003: unknown '
                                                  "column 'ghost'"),
                    'explain_analyze-optimize0': ('AnalysisError',
                                                  'static analysis rejected '
                                                  'query: ANA003: unknown '
                                                  "column 'ghost'")}}
# fmt: on


@pytest.mark.parametrize(
    "statement, case", CASES, ids=[f"{s}-{c}" for s, c in CASES]
)
def test_each_door_resolves_once(resolves, statement, case):
    count, answer = record(resolves, statement, case)
    assert answer == ANSWERS[statement][answer_key(case)]
    assert count == COUNTS[case][list(STATEMENTS).index(statement)]
    assert count <= 1


#: Fresh-constant texts of one LM-free key.
FRESH = [f"SELECT id, x FROM a WHERE id >= {n} ORDER BY id" for n in range(50)]


def test_fresh_constants_of_one_key_resolve_once(resolves):
    """The key's second text teaches its template; every text after it
    is bound with its owners and planned without a resolution."""
    db, _ = build()
    for sql in FRESH:
        db.execute(sql, analyze=True)
    assert len(resolves) == 2
    before = len(resolves)
    for sql in FRESH[2:]:
        db.explain(sql)
    assert len(resolves) == before


def test_a_stored_text_replanned_after_a_write_is_not_resolved(resolves):
    db, _ = build()
    sql = "SELECT a.id, b.y FROM a JOIN b ON a.id = b.id ORDER BY a.id"
    db.create_index("b", "id")
    first = db.execute(sql).rows
    db.execute(sql)
    entry = db._lookup(sql)
    assert entry.plan is not None and entry.stats  # read b's statistics
    db.execute("INSERT INTO b VALUES (3, 'T9')")
    assert not db._lookup(sql).serves(entry.options)
    before = len(resolves)
    rows = db.execute(sql).rows
    assert len(resolves) == before
    assert rows == first + [(3, "T9")]
