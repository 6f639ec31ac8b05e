"""How a SELECT's names bind, pinned at every layer that reads them.

Two small tables share the column name ``id``: ``a(id, x, n)`` with
three rows and ``b(id, y)`` with thirty, whose ``y`` takes three values.
``SLOW`` is an expensive (LM-like) UDF.  Each statement in ``CASES``
records, in one tuple-shaped dict:

* the analyzer's diagnostics (code, message, span, order);
* its ``CostEstimate`` fields;
* the engine's rows, or its error type and message, at
  ``optimize=True`` and at ``optimize=False``;
* the ``EXPLAIN`` text, for statements that call ``SLOW``.

The statements cover self-joins and ``t.*``, a FROM subquery exposing a
duplicate name, GROUP BY / ORDER BY ordinals and aliases, HAVING
aliases, ORDER BY on an expression equal to an item, mixed-case and
quoted names, an ON clause over an earlier join, an unknown table, and
statements with two failures.  ``test_agrees_with_sqlite``
compares the rows of every statement that calls no UDF with
``sqlite3``'s, or that both reject it; ``SQLITE_DIVERGES`` lists the
statements where the engine deliberately differs, with the reason.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import Column, Database, DataType, TableSchema
from repro.errors import ReproError

A_ROWS = [(1, "p", "q"), (2, "p", "r"), (3, "s", "q")]
B_ROWS = [(i + 2, ("T1", "T2", "T3")[i % 3]) for i in range(30)]


class SlowUDF:
    """Upper-cases its argument and counts its calls."""

    def __init__(self) -> None:
        self.calls: list[object] = []

    def scalar(self, value):
        self.calls.append(value)
        return None if value is None else str(value).upper()


def build() -> tuple[Database, SlowUDF]:
    db = Database()
    db.create_table(
        TableSchema(
            "a",
            [
                Column("id", DataType.INTEGER),
                Column("x", DataType.TEXT),
                Column("n", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "b", [Column("id", DataType.INTEGER), Column("y", DataType.TEXT)]
        )
    )
    db.insert("a", A_ROWS)
    db.insert("b", B_ROWS)
    udf = SlowUDF()
    db.register_udf("SLOW", udf.scalar, expensive=True)
    return db, udf


def mirror() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE a (id INTEGER, x TEXT, n TEXT)")
    connection.execute("CREATE TABLE b (id INTEGER, y TEXT)")
    connection.executemany("INSERT INTO a VALUES (?, ?, ?)", A_ROWS)
    connection.executemany("INSERT INTO b VALUES (?, ?)", B_ROWS)
    return connection


def outcome(db: Database, sql: str, optimize: bool) -> tuple:
    try:
        return ("rows", db.execute(sql, optimize=optimize).rows)
    except ReproError as error:
        return (type(error).__name__, str(error))


def record(sql: str) -> dict:
    """Everything the layers say about ``sql``, each on a fresh database."""
    db, _ = build()
    report = db.analyze(sql)
    cost = report.cost
    found = {
        "diagnostics": [
            (
                d.code,
                d.message,
                None if d.span is None else (d.span.start, d.span.end),
            )
            for d in report.diagnostics
        ],
        "cost": None
        if cost is None
        else (
            cost.rows_scanned,
            cost.result_rows,
            cost.lm_calls,
            cost.lm_prompt_tokens,
            cost.lm_output_tokens,
            cost.lm_calls_batched,
            cost.expected_result_rows,
        ),
        "optimize": outcome(build()[0], sql, True),
        "plain": outcome(build()[0], sql, False),
    }
    if "SLOW(" in sql:
        try:
            found["explain"] = build()[0].explain(sql)
        except ReproError as error:
            found["explain"] = f"{type(error).__name__}: {error}"
    return found


CASES = [
    # -- self-joins and t.* ------------------------------------------------
    ("self_join_qualified",
     "SELECT p.id, q.x FROM a AS p JOIN a AS q ON p.id = q.id ORDER BY 1"),
    ("self_join_star",
     "SELECT p.* FROM a AS p JOIN a AS q ON p.id < q.id ORDER BY p.id, q.id"),
    ("self_join_ambiguous",
     "SELECT id FROM a AS p JOIN a AS q ON p.id = q.id"),
    ("star_of_one_side",
     "SELECT a.*, b.y FROM a JOIN b ON a.id = b.id ORDER BY b.y"),
    ("star_over_join",
     "SELECT * FROM a JOIN b ON a.id = b.id ORDER BY 1"),
    ("star_unknown_table", "SELECT c.* FROM a"),
    ("star_case", "SELECT A.* FROM a WHERE id = 2"),
    # -- a FROM subquery exposing a duplicate name -------------------------
    ("subquery_duplicate_star",
     "SELECT * FROM (SELECT a.id, b.id FROM a JOIN b ON a.id = b.id) AS s"),
    ("subquery_duplicate_qualified",
     "SELECT s.id FROM (SELECT a.id, b.id FROM a JOIN b ON a.id = b.id) AS s"),
    ("subquery_duplicate_bare",
     "SELECT id FROM (SELECT a.id, b.id FROM a JOIN b ON a.id = b.id) AS s"),
    ("subquery_unknown_column", "SELECT s.y FROM (SELECT id FROM a) AS s"),
    ("subquery_join_outer",
     "SELECT s.k, b.y FROM (SELECT id AS k FROM a) AS s "
     "JOIN b ON s.k = b.id ORDER BY s.k"),
    # -- GROUP BY / ORDER BY ordinals and aliases, HAVING aliases ----------
    ("group_order_ordinals",
     "SELECT x, COUNT(*) FROM a GROUP BY 1 ORDER BY 2 DESC, 1"),
    ("group_alias_having_alias",
     "SELECT x AS k, COUNT(*) AS c FROM a GROUP BY k HAVING c > 1"),
    ("order_by_aliases",
     "SELECT x AS k, COUNT(*) AS c FROM a GROUP BY k ORDER BY c, k"),
    ("group_ordinal_out_of_range", "SELECT x, COUNT(*) FROM a GROUP BY 3"),
    ("group_ordinal_zero", "SELECT x, COUNT(*) FROM a GROUP BY 0"),
    ("order_ordinal_out_of_range", "SELECT x FROM a ORDER BY 2"),
    ("order_alias", "SELECT x AS k FROM a ORDER BY k DESC, 1"),
    ("order_alias_shadows_column", "SELECT x AS id FROM a ORDER BY id DESC"),
    ("order_alias_in_aggregate_expression",
     "SELECT x AS k, COUNT(*) AS c FROM a GROUP BY x ORDER BY -c, k"),
    ("having_aggregate_alias",
     "SELECT x, COUNT(*) AS c FROM a GROUP BY x HAVING c >= 2"),
    ("group_by_two_columns",
     "SELECT x, n, COUNT(*) FROM a GROUP BY x, n ORDER BY 1, 2"),
    # -- ORDER BY on an expression equal to an item ------------------------
    ("order_expression_item", "SELECT id * 2 FROM a ORDER BY id * 2 DESC"),
    ("order_aggregate_item",
     "SELECT x, COUNT(*) FROM a GROUP BY x ORDER BY COUNT(*) DESC, x"),
    ("order_expression_extra", "SELECT x FROM a ORDER BY id DESC"),
    # -- mixed-case and quoted names ---------------------------------------
    ("mixed_case",
     "SELECT A.ID, X FROM A WHERE a.Id >= 2 ORDER BY A.id"),
    ("quoted_names", 'SELECT "ID", "x" FROM a AS "P" WHERE p.id = 1'),
    ("quoted_unknown", 'SELECT "Id", "nope" FROM a'),
    # -- an ON clause over an earlier join ---------------------------------
    ("on_over_earlier_join",
     "SELECT COUNT(*) FROM a JOIN b ON a.id = b.id "
     "JOIN a AS c ON c.id = b.id"),
    ("on_unqualified_unique",
     "SELECT COUNT(*) FROM a JOIN b ON a.id = b.id JOIN a AS c ON y = c.x"),
    ("on_ambiguous_over_earlier_join",
     "SELECT COUNT(*) FROM a AS p JOIN a AS q ON p.id = q.id "
     "JOIN b ON x = b.y"),
    ("on_names_a_later_table",
     "SELECT COUNT(*) FROM a JOIN b ON a.id = c.id JOIN a AS c ON c.id = b.id"),
    ("left_join_where",
     "SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id "
     "WHERE y IS NULL ORDER BY a.id"),
    # -- an unknown table --------------------------------------------------
    ("unknown_table", "SELECT id FROM nope"),
    ("unknown_table_in_join",
     "SELECT zz FROM a JOIN nope ON a.id = nope.id WHERE ghost = 1"),
    ("unknown_table_in_subquery",
     "SELECT id FROM a WHERE id IN (SELECT id FROM nope)"),
    # -- statements with two failures --------------------------------------
    ("two_unknown_columns", "SELECT ghost, spook FROM a"),
    ("unknown_column_and_ordinal", "SELECT ghost FROM a ORDER BY 5"),
    ("join_then_where_unknown",
     "SELECT a.id FROM a JOIN b ON a.id = b.id WHERE ghost = 1"),
    ("star_and_unknown_column", "SELECT c.*, ghost FROM a"),
    ("two_ordinals", "SELECT x, COUNT(*) FROM a GROUP BY 9 ORDER BY 9"),
    ("unknown_in_items_and_having",
     "SELECT ghost FROM a GROUP BY x HAVING spook > 1"),
    ("ambiguous_and_unknown",
     "SELECT a.id FROM a JOIN b ON a.id = b.id WHERE ghost = id"),
    # -- statements calling an expensive UDF -------------------------------
    ("udf_select_list", "SELECT id, SLOW(y) FROM b WHERE id < 5 ORDER BY id"),
    ("udf_join",
     "SELECT a.id, SLOW(b.y) FROM a JOIN b ON a.id = b.id "
     "WHERE SLOW(y) = 'T1'"),
    ("udf_group_alias",
     "SELECT y AS k, COUNT(*) FROM b WHERE SLOW(y) <> 'T2' "
     "GROUP BY k ORDER BY 1"),
    ("udf_from_subquery",
     "SELECT s.k FROM (SELECT SLOW(y) AS k FROM b) AS s "
     "WHERE s.k = 'T1' LIMIT 2"),
    ("udf_unknown_column", "SELECT SLOW(ghost) FROM b"),
    # -- fixed: an ambiguous name is ambiguous at every setting -------------
    ("fix_ambiguous_where_comma_join", "SELECT x FROM a, b WHERE id = 1"),
    ("fix_ambiguous_on_key", "SELECT COUNT(*) FROM a JOIN b ON id = id"),
    ("fix_ambiguous_where_over_join",
     "SELECT COUNT(*) FROM a JOIN b ON a.id = b.id WHERE id = 1"),
    ("fix_self_join_same_binding",
     "SELECT id, x FROM a JOIN a ON a.id = a.id ORDER BY 1"),
    # -- fixed: a source column wins over an alias inside an expression ----
    ("fix_group_alias_shadows_column",
     "SELECT x AS id, COUNT(*) FROM a GROUP BY id"),
    ("fix_having_alias_shadows_column",
     "SELECT x AS n, COUNT(*) FROM a GROUP BY x HAVING n = 'p'"),
    ("fix_order_expression_column_first",
     "SELECT x AS id FROM a ORDER BY -id"),
    ("fix_order_expression_alias", "SELECT x AS k FROM a ORDER BY k || 1"),
    # -- fixed: a grouped column spelled two ways --------------------------
    ("fix_grouped_qualified", "SELECT x, COUNT(*) FROM a GROUP BY a.x"),
    ("fix_grouped_unqualified",
     "SELECT a.x, COUNT(*) FROM a GROUP BY x ORDER BY A.X"),
    # -- fixed: an LM UDF only inside a subquery gets a route --------------
    ("fix_udf_in_subquery",
     "SELECT COUNT(*) FROM a WHERE id IN "
     "(SELECT id FROM b WHERE SLOW(y) = 'T1')"),
]


# fmt: off
EXPECTED: dict[str, dict] = {'self_join_qualified': {'diagnostics': [],
                         'cost': (9, 9, 0, 0, 0, 0, None),
                         'optimize': ('rows', [(1, 'p'), (2, 'p'), (3, 's')]),
                         'plain': ('rows', [(1, 'p'), (2, 'p'), (3, 's')])},
 'self_join_star': {'diagnostics': [],
                    'cost': (9, 9, 0, 0, 0, 0, None),
                    'optimize': ('rows',
                                 [(1, 'p', 'q'),
                                  (1, 'p', 'q'),
                                  (2, 'p', 'r')]),
                    'plain': ('rows',
                              [(1, 'p', 'q'), (1, 'p', 'q'), (2, 'p', 'r')])},
 'self_join_ambiguous': {'diagnostics': [('ANA004',
                                          "ambiguous column 'id' (qualify it "
                                          'with a table name)',
                                          (7, 9))],
                         'cost': (9, 9, 0, 0, 0, 0, None),
                         'optimize': ('PlanningError',
                                      "ambiguous column 'id'"),
                         'plain': ('PlanningError', "ambiguous column 'id'")},
 'star_of_one_side': {'diagnostics': [],
                      'cost': (90, 90, 0, 0, 0, 0, None),
                      'optimize': ('rows',
                                   [(2, 'p', 'r', 'T1'), (3, 's', 'q', 'T2')]),
                      'plain': ('rows',
                                [(2, 'p', 'r', 'T1'), (3, 's', 'q', 'T2')])},
 'star_over_join': {'diagnostics': [],
                    'cost': (90, 90, 0, 0, 0, 0, None),
                    'optimize': ('rows',
                                 [(2, 'p', 'r', 2, 'T1'),
                                  (3, 's', 'q', 3, 'T2')]),
                    'plain': ('rows',
                              [(2, 'p', 'r', 2, 'T1'),
                               (3, 's', 'q', 3, 'T2')])},
 'star_unknown_table': {'diagnostics': [('ANA002',
                                         "unknown table 'c' in c.*",
                                         (7, 8))],
                        'cost': (3, 3, 0, 0, 0, 0, None),
                        'optimize': ('PlanningError',
                                     "unknown table 'c' in c.*"),
                        'plain': ('PlanningError',
                                  "unknown table 'c' in c.*")},
 'star_case': {'diagnostics': [],
               'cost': (3, 3, 0, 0, 0, 0, 1),
               'optimize': ('rows', [(2, 'p', 'r')]),
               'plain': ('rows', [(2, 'p', 'r')])},
 'subquery_duplicate_star': {'diagnostics': [],
                             'cost': (90, 90, 0, 0, 0, 0, None),
                             'optimize': ('rows', [(2, 2), (3, 3)]),
                             'plain': ('rows', [(2, 2), (3, 3)])},
 'subquery_duplicate_qualified': {'diagnostics': [],
                                  'cost': (90, 90, 0, 0, 0, 0, None),
                                  'optimize': ('rows', [(2,), (3,)]),
                                  'plain': ('rows', [(2,), (3,)])},
 'subquery_duplicate_bare': {'diagnostics': [],
                             'cost': (90, 90, 0, 0, 0, 0, None),
                             'optimize': ('rows', [(2,), (3,)]),
                             'plain': ('rows', [(2,), (3,)])},
 'subquery_unknown_column': {'diagnostics': [('ANA003',
                                              "unknown column 's.y'",
                                              (7, 10))],
                             'cost': (3, 3, 0, 0, 0, 0, None),
                             'optimize': ('PlanningError',
                                          'unknown column s.y'),
                             'plain': ('PlanningError', 'unknown column s.y')},
 'subquery_join_outer': {'diagnostics': [],
                         'cost': (90, 90, 0, 0, 0, 0, None),
                         'optimize': ('rows', [(2, 'T1'), (3, 'T2')]),
                         'plain': ('rows', [(2, 'T1'), (3, 'T2')])},
 'group_order_ordinals': {'diagnostics': [],
                          'cost': (3, 3, 0, 0, 0, 0, None),
                          'optimize': ('rows', [('p', 2), ('s', 1)]),
                          'plain': ('rows', [('p', 2), ('s', 1)])},
 'group_alias_having_alias': {'diagnostics': [],
                              'cost': (3, 3, 0, 0, 0, 0, None),
                              'optimize': ('rows', [('p', 2)]),
                              'plain': ('rows', [('p', 2)])},
 'order_by_aliases': {'diagnostics': [],
                      'cost': (3, 3, 0, 0, 0, 0, None),
                      'optimize': ('rows', [('s', 1), ('p', 2)]),
                      'plain': ('rows', [('s', 1), ('p', 2)])},
 'group_ordinal_out_of_range': {'diagnostics': [('ANA014',
                                                 'GROUP BY position 3 is out '
                                                 'of range (1..2)',
                                                 None),
                                                ('ANA010',
                                                 "column 'x' is neither "
                                                 'grouped nor aggregated; the '
                                                 'engine serves an arbitrary '
                                                 'group member (hidden '
                                                 'FIRST())',
                                                 (7, 8))],
                                'cost': (3, 3, 0, 0, 0, 0, None),
                                'optimize': ('PlanningError',
                                             'GROUP BY position 3 out of '
                                             'range'),
                                'plain': ('PlanningError',
                                          'GROUP BY position 3 out of range')},
 'group_ordinal_zero': {'diagnostics': [('ANA014',
                                         'GROUP BY position 0 is out of range '
                                         '(1..2)',
                                         None),
                                        ('ANA010',
                                         "column 'x' is neither grouped nor "
                                         'aggregated; the engine serves an '
                                         'arbitrary group member (hidden '
                                         'FIRST())',
                                         (7, 8))],
                        'cost': (3, 3, 0, 0, 0, 0, None),
                        'optimize': ('PlanningError',
                                     'GROUP BY position 0 out of range'),
                        'plain': ('PlanningError',
                                  'GROUP BY position 0 out of range')},
 'order_ordinal_out_of_range': {'diagnostics': [('ANA014',
                                                 'ORDER BY position 2 is out '
                                                 'of range (1..1)',
                                                 None)],
                                'cost': (3, 3, 0, 0, 0, 0, None),
                                'optimize': ('PlanningError',
                                             'ORDER BY position 2 out of '
                                             'range'),
                                'plain': ('PlanningError',
                                          'ORDER BY position 2 out of range')},
 'order_alias': {'diagnostics': [],
                 'cost': (3, 3, 0, 0, 0, 0, None),
                 'optimize': ('rows', [('s',), ('p',), ('p',)]),
                 'plain': ('rows', [('s',), ('p',), ('p',)])},
 'order_alias_shadows_column': {'diagnostics': [],
                                'cost': (3, 3, 0, 0, 0, 0, None),
                                'optimize': ('rows', [('s',), ('p',), ('p',)]),
                                'plain': ('rows', [('s',), ('p',), ('p',)])},
 'order_alias_in_aggregate_expression': {'diagnostics': [],
                                         'cost': (3, 3, 0, 0, 0, 0, None),
                                         'optimize': ('rows',
                                                      [('p', 2), ('s', 1)]),
                                         'plain': ('rows',
                                                   [('p', 2), ('s', 1)])},
 'having_aggregate_alias': {'diagnostics': [],
                            'cost': (3, 3, 0, 0, 0, 0, None),
                            'optimize': ('rows', [('p', 2)]),
                            'plain': ('rows', [('p', 2)])},
 'group_by_two_columns': {'diagnostics': [],
                          'cost': (3, 3, 0, 0, 0, 0, None),
                          'optimize': ('rows',
                                       [('p', 'q', 1),
                                        ('p', 'r', 1),
                                        ('s', 'q', 1)]),
                          'plain': ('rows',
                                    [('p', 'q', 1),
                                     ('p', 'r', 1),
                                     ('s', 'q', 1)])},
 'order_expression_item': {'diagnostics': [],
                           'cost': (3, 3, 0, 0, 0, 0, None),
                           'optimize': ('rows', [(6,), (4,), (2,)]),
                           'plain': ('rows', [(6,), (4,), (2,)])},
 'order_aggregate_item': {'diagnostics': [],
                          'cost': (3, 3, 0, 0, 0, 0, None),
                          'optimize': ('rows', [('p', 2), ('s', 1)]),
                          'plain': ('rows', [('p', 2), ('s', 1)])},
 'order_expression_extra': {'diagnostics': [],
                            'cost': (3, 3, 0, 0, 0, 0, None),
                            'optimize': ('rows', [('s',), ('p',), ('p',)]),
                            'plain': ('rows', [('s',), ('p',), ('p',)])},
 'mixed_case': {'diagnostics': [],
                'cost': (3, 3, 0, 0, 0, 0, 1),
                'optimize': ('rows', [(2, 'p'), (3, 's')]),
                'plain': ('rows', [(2, 'p'), (3, 's')])},
 'quoted_names': {'diagnostics': [],
                  'cost': (3, 3, 0, 0, 0, 0, 1),
                  'optimize': ('rows', [(1, 'p')]),
                  'plain': ('rows', [(1, 'p')])},
 'quoted_unknown': {'diagnostics': [('ANA003',
                                     "unknown column 'nope'",
                                     (19, 23))],
                    'cost': (3, 3, 0, 0, 0, 0, None),
                    'optimize': ('PlanningError', "unknown column 'nope'"),
                    'plain': ('PlanningError', "unknown column 'nope'")},
 'on_over_earlier_join': {'diagnostics': [],
                          'cost': (270, 1, 0, 0, 0, 0, None),
                          'optimize': ('rows', [(2,)]),
                          'plain': ('rows', [(2,)])},
 'on_unqualified_unique': {'diagnostics': [],
                           'cost': (270, 1, 0, 0, 0, 0, None),
                           'optimize': ('rows', [(0,)]),
                           'plain': ('rows', [(0,)])},
 'on_ambiguous_over_earlier_join': {'diagnostics': [('ANA004',
                                                     "ambiguous column 'x' "
                                                     '(qualify it with a '
                                                     'table name)',
                                                     (65, 66))],
                                    'cost': (270, 1, 0, 0, 0, 0, None),
                                    'optimize': ('PlanningError',
                                                 "ambiguous column 'x'"),
                                    'plain': ('PlanningError',
                                              "ambiguous column 'x'")},
 'on_names_a_later_table': {'diagnostics': [('ANA003',
                                             "unknown column 'c.id'",
                                             (40, 44))],
                            'cost': (270, 1, 0, 0, 0, 0, None),
                            'optimize': ('PlanningError',
                                         'unknown column c.id'),
                            'plain': ('PlanningError', 'unknown column c.id')},
 'left_join_where': {'diagnostics': [],
                     'cost': (90, 90, 0, 0, 0, 0, 0),
                     'optimize': ('rows', [(1, None)]),
                     'plain': ('rows', [(1, None)])},
 'unknown_table': {'diagnostics': [('ANA002',
                                    "unknown table 'nope'",
                                    (15, 19))],
                   'cost': (1, 1, 0, 0, 0, 0, None),
                   'optimize': ('PlanningError', "no table named 'nope'"),
                   'plain': ('PlanningError', "no table named 'nope'")},
 'unknown_table_in_join': {'diagnostics': [('ANA002',
                                            "unknown table 'nope'",
                                            (22, 26))],
                           'cost': (3, 3, 0, 0, 0, 0, 1),
                           'optimize': ('PlanningError',
                                        "no table named 'nope'"),
                           'plain': ('PlanningError',
                                     "no table named 'nope'")},
 'unknown_table_in_subquery': {'diagnostics': [('ANA002',
                                                "unknown table 'nope'",
                                                (45, 49))],
                               'cost': (3, 3, 0, 0, 0, 0, 1),
                               'optimize': ('PlanningError',
                                            "no table named 'nope'"),
                               'plain': ('PlanningError',
                                         "no table named 'nope'")},
 'two_unknown_columns': {'diagnostics': [('ANA003',
                                          "unknown column 'ghost'",
                                          (7, 12)),
                                         ('ANA003',
                                          "unknown column 'spook'",
                                          (14, 19))],
                         'cost': (3, 3, 0, 0, 0, 0, None),
                         'optimize': ('PlanningError',
                                      "unknown column 'ghost'"),
                         'plain': ('PlanningError', "unknown column 'ghost'")},
 'unknown_column_and_ordinal': {'diagnostics': [('ANA003',
                                                 "unknown column 'ghost'",
                                                 (7, 12)),
                                                ('ANA014',
                                                 'ORDER BY position 5 is out '
                                                 'of range (1..1)',
                                                 None)],
                                'cost': (3, 3, 0, 0, 0, 0, None),
                                'optimize': ('PlanningError',
                                             'ORDER BY position 5 out of '
                                             'range'),
                                'plain': ('PlanningError',
                                          'ORDER BY position 5 out of range')},
 'join_then_where_unknown': {'diagnostics': [('ANA003',
                                              "unknown column 'ghost'",
                                              (47, 52))],
                             'cost': (90, 90, 0, 0, 0, 0, 30),
                             'optimize': ('PlanningError',
                                          "unknown column 'ghost'"),
                             'plain': ('PlanningError',
                                       "unknown column 'ghost'")},
 'star_and_unknown_column': {'diagnostics': [('ANA002',
                                              "unknown table 'c' in c.*",
                                              (7, 8)),
                                             ('ANA003',
                                              "unknown column 'ghost'",
                                              (12, 17))],
                             'cost': (3, 3, 0, 0, 0, 0, None),
                             'optimize': ('PlanningError',
                                          "unknown table 'c' in c.*"),
                             'plain': ('PlanningError',
                                       "unknown table 'c' in c.*")},
 'two_ordinals': {'diagnostics': [('ANA014',
                                   'GROUP BY position 9 is out of range '
                                   '(1..2)',
                                   None),
                                  ('ANA010',
                                   "column 'x' is neither grouped nor "
                                   'aggregated; the engine serves an '
                                   'arbitrary group member (hidden FIRST())',
                                   (7, 8)),
                                  ('ANA014',
                                   'ORDER BY position 9 is out of range '
                                   '(1..2)',
                                   None)],
                  'cost': (3, 3, 0, 0, 0, 0, None),
                  'optimize': ('PlanningError',
                               'GROUP BY position 9 out of range'),
                  'plain': ('PlanningError',
                            'GROUP BY position 9 out of range')},
 'unknown_in_items_and_having': {'diagnostics': [('ANA003',
                                                  "unknown column 'ghost'",
                                                  (7, 12)),
                                                 ('ANA003',
                                                  "unknown column 'spook'",
                                                  (38, 43))],
                                 'cost': (3, 3, 0, 0, 0, 0, None),
                                 'optimize': ('PlanningError',
                                              "unknown column 'ghost'"),
                                 'plain': ('PlanningError',
                                           "unknown column 'ghost'")},
 'ambiguous_and_unknown': {'diagnostics': [('ANA003',
                                            "unknown column 'ghost'",
                                            (47, 52)),
                                           ('ANA004',
                                            "ambiguous column 'id' (qualify "
                                            'it with a table name)',
                                            (55, 57))],
                           'cost': (90, 90, 0, 0, 0, 0, 30),
                           'optimize': ('PlanningError',
                                        "unknown column 'ghost'"),
                           'plain': ('PlanningError',
                                     "unknown column 'ghost'")},
 'udf_select_list': {'diagnostics': [],
                     'cost': (30, 30, 30, 1440, 240, 3, 10),
                     'optimize': ('rows', [(2, 'T1'), (3, 'T2'), (4, 'T3')]),
                     'plain': ('rows', [(2, 'T1'), (3, 'T2'), (4, 'T3')]),
                     'explain': 'Sort(1 key(s))\n'
                                '  BatchedProject(id, SLOW(y), batch=3, '
                                'sites=1)\n'
                                '    Filter(where)\n'
                                '      Scan(b AS b)\n'
                                'Optimizer:\n'
                                '  route: batched: est 3 LM calls / 168 '
                                'tokens (per-row 30 calls / 1680 tokens)\n'
                                '  auto-batch-size: udf_batch_size=3 from '
                                'distinct-value bound 3 (rows_scanned=30)'},
 'udf_join': {'diagnostics': [],
              'cost': (90, 90, 180, 8640, 1440, 6, 30),
              'optimize': ('rows', [(2, 'T1')]),
              'plain': ('rows', [(2, 'T1')]),
              'explain': 'BatchedProject(id, SLOW(y), batch=6, sites=1)\n'
                         '  HashJoin(INNER, 1 key(s))\n'
                         '    Scan(a AS a)\n'
                         '    BatchedFilter(where[expensive], batch=6, '
                         'sites=1)\n'
                         '      Scan(b AS b)\n'
                         'Optimizer:\n'
                         '  route: batched: est 6 LM calls / 336 tokens '
                         '(per-row 180 calls / 10080 tokens)\n'
                         '  auto-batch-size: udf_batch_size=6 from '
                         'distinct-value bound 6 (rows_scanned=90)\n'
                         '  selection-pushdown: pushed SLOW(…) below INNER '
                         'join (est rows 30 below vs 30 after join)'},
 'udf_group_alias': {'diagnostics': [],
                     'cost': (30, 30, 30, 1440, 240, 3, 10),
                     'optimize': ('rows', [('T1', 10), ('T3', 10)]),
                     'plain': ('rows', [('T1', 10), ('T3', 10)]),
                     'explain': 'Sort(1 key(s))\n'
                                '  Project(k, COUNT(*))\n'
                                '    Aggregate(groups=1, calls=[COUNT])\n'
                                '      BatchedFilter(where[expensive], '
                                'batch=3, sites=1)\n'
                                '        Scan(b AS b)\n'
                                'Optimizer:\n'
                                '  route: batched: est 3 LM calls / 168 '
                                'tokens (per-row 30 calls / 1680 tokens)\n'
                                '  auto-batch-size: udf_batch_size=3 from '
                                'distinct-value bound 3 (rows_scanned=30)'},
 'udf_from_subquery': {'diagnostics': [],
                       'cost': (30, 2, 30, 1440, 240, 3, 2),
                       'optimize': ('rows', [('T1',), ('T1',)]),
                       'plain': ('rows', [('T1',), ('T1',)]),
                       'explain': 'Limit(2, offset=0)\n'
                                  '  Project(k)\n'
                                  '    Filter(where)\n'
                                  '      Slice([0])\n'
                                  '        BatchedProject(k, batch=2, '
                                  'sites=1)\n'
                                  '          Scan(b AS b)\n'
                                  'Optimizer:\n'
                                  '  route: batched: est 3 LM calls / 168 '
                                  'tokens (per-row 30 calls / 1680 tokens)\n'
                                  '  auto-batch-size: udf_batch_size=2 '
                                  'clamped to LIMIT 2 (streaming prefix; '
                                  'distinct-value bound 3)'},
 'udf_unknown_column': {'diagnostics': [('ANA003',
                                         "unknown column 'ghost'",
                                         (12, 17))],
                        'cost': (30, 30, 30, 1440, 240, 30, None),
                        'optimize': ('PlanningError',
                                     "unknown column 'ghost'"),
                        'plain': ('PlanningError', "unknown column 'ghost'"),
                        'explain': "PlanningError: unknown column 'ghost'"},
 'fix_ambiguous_where_comma_join': {'diagnostics': [('ANA004',
                                                     "ambiguous column 'id' "
                                                     '(qualify it with a '
                                                     'table name)',
                                                     (25, 27))],
                                    'cost': (90, 90, 0, 0, 0, 0, 30),
                                    'optimize': ('PlanningError',
                                                 "ambiguous column 'id'"),
                                    'plain': ('PlanningError',
                                              "ambiguous column 'id'")},
 'fix_ambiguous_on_key': {'diagnostics': [('ANA004',
                                           "ambiguous column 'id' (qualify it "
                                           'with a table name)',
                                           (33, 35)),
                                          ('ANA004',
                                           "ambiguous column 'id' (qualify it "
                                           'with a table name)',
                                           (38, 40))],
                          'cost': (90, 1, 0, 0, 0, 0, None),
                          'optimize': ('PlanningError',
                                       "ambiguous column 'id'"),
                          'plain': ('PlanningError', "ambiguous column 'id'")},
 'fix_ambiguous_where_over_join': {'diagnostics': [('ANA004',
                                                    "ambiguous column 'id' "
                                                    '(qualify it with a table '
                                                    'name)',
                                                    (51, 53))],
                                   'cost': (90, 1, 0, 0, 0, 0, 1),
                                   'optimize': ('PlanningError',
                                                "ambiguous column 'id'"),
                                   'plain': ('PlanningError',
                                             "ambiguous column 'id'")},
 'fix_self_join_same_binding': {'diagnostics': [('ANA004',
                                                 "ambiguous column 'a.id' "
                                                 '(qualify it with a table '
                                                 'name)',
                                                 (30, 34)),
                                                ('ANA004',
                                                 "ambiguous column 'a.id' "
                                                 '(qualify it with a table '
                                                 'name)',
                                                 (37, 41)),
                                                ('ANA004',
                                                 "ambiguous column 'id' "
                                                 '(qualify it with a table '
                                                 'name)',
                                                 (7, 9)),
                                                ('ANA004',
                                                 "ambiguous column 'x' "
                                                 '(qualify it with a table '
                                                 'name)',
                                                 (11, 12))],
                                'cost': (9, 9, 0, 0, 0, 0, None),
                                'optimize': ('PlanningError',
                                             "ambiguous column 'a.id'"),
                                'plain': ('PlanningError',
                                          "ambiguous column 'a.id'")},
 'fix_group_alias_shadows_column': {'diagnostics': [('ANA010',
                                                     "column 'x' is neither "
                                                     'grouped nor aggregated; '
                                                     'the engine serves an '
                                                     'arbitrary group member '
                                                     '(hidden FIRST())',
                                                     (7, 8))],
                                    'cost': (3, 3, 0, 0, 0, 0, None),
                                    'optimize': ('rows',
                                                 [('p', 1),
                                                  ('p', 1),
                                                  ('s', 1)]),
                                    'plain': ('rows',
                                              [('p', 1), ('p', 1), ('s', 1)])},
 'fix_having_alias_shadows_column': {'diagnostics': [('ANA010',
                                                      "column 'n' is neither "
                                                      'grouped nor '
                                                      'aggregated; the engine '
                                                      'serves an arbitrary '
                                                      'group member (hidden '
                                                      'FIRST())',
                                                      (49, 50))],
                                     'cost': (3, 3, 0, 0, 0, 0, None),
                                     'optimize': ('rows', []),
                                     'plain': ('rows', [])},
 'fix_order_expression_column_first': {'diagnostics': [],
                                       'cost': (3, 3, 0, 0, 0, 0, None),
                                       'optimize': ('rows',
                                                    [('s',), ('p',), ('p',)]),
                                       'plain': ('rows',
                                                 [('s',), ('p',), ('p',)])},
 'fix_order_expression_alias': {'diagnostics': [],
                                'cost': (3, 3, 0, 0, 0, 0, None),
                                'optimize': ('rows', [('p',), ('p',), ('s',)]),
                                'plain': ('rows', [('p',), ('p',), ('s',)])},
 'fix_grouped_qualified': {'diagnostics': [],
                           'cost': (3, 3, 0, 0, 0, 0, None),
                           'optimize': ('rows', [('p', 2), ('s', 1)]),
                           'plain': ('rows', [('p', 2), ('s', 1)])},
 'fix_grouped_unqualified': {'diagnostics': [],
                             'cost': (3, 3, 0, 0, 0, 0, None),
                             'optimize': ('rows', [('p', 2), ('s', 1)]),
                             'plain': ('rows', [('p', 2), ('s', 1)])},
 'fix_udf_in_subquery': {'diagnostics': [],
                         'cost': (3, 1, 30, 1440, 240, 3, 1),
                         'optimize': ('rows', [(1,)]),
                         'plain': ('rows', [(1,)]),
                         'explain': 'Project(COUNT(*))\n'
                                    '  Aggregate(groups=0, calls=[COUNT])\n'
                                    '    Filter(where)\n'
                                    '      Scan(a AS a)\n'
                                    'Optimizer:\n'
                                    '  route: batched: est 3 LM calls / 168 '
                                    'tokens (per-row 30 calls / 1680 tokens)\n'
                                    '  auto-batch-size: udf_batch_size=3 from '
                                    'distinct-value bound 3 (rows_scanned=3)'}}
# fmt: on


@pytest.mark.parametrize("label, sql", CASES, ids=[c[0] for c in CASES])
def test_binding_is_pinned(label, sql):
    assert record(sql) == EXPECTED[label]


#: Statements ``sqlite3`` answers where the engine deliberately rejects.
SQLITE_DIVERGES = {
    "quoted_unknown": "sqlite3 reads a double-quoted unknown name as a string",
    "on_names_a_later_table": "sqlite3 lets ON name a table joined later",
}


def sqlite_outcome(sql: str) -> tuple:
    try:
        return ("rows", sorted(mirror().execute(sql).fetchall(), key=repr))
    except sqlite3.Error:
        return ("error",)


@pytest.mark.parametrize(
    "label, sql",
    [c for c in CASES if "SLOW(" not in c[1] and c[0] not in SQLITE_DIVERGES],
    ids=[
        c[0]
        for c in CASES
        if "SLOW(" not in c[1] and c[0] not in SQLITE_DIVERGES
    ],
)
def test_agrees_with_sqlite(label, sql):
    expected = sqlite_outcome(sql)
    for optimize in (True, False):
        found = outcome(build()[0], sql, optimize)
        if found[0] == "rows":
            found = ("rows", sorted(found[1], key=repr))
        else:
            found = ("error",)
        assert found == expected, (label, optimize)


SUBQUERY_UDF = dict(CASES)["fix_udf_in_subquery"]


def test_udf_only_inside_a_subquery_takes_the_batched_route():
    """30 rows, 3 distinct arguments: one call per distinct argument,
    the rows of the per-row route, and a route line in the footer."""
    db, udf = build()
    rows = db.execute(SUBQUERY_UDF).rows
    assert len(udf.calls) <= 3
    assert sorted(udf.calls) == ["T1", "T2", "T3"]
    pinned, per_row = build()
    assert rows == pinned.execute(SUBQUERY_UDF, udf_batch_size=None).rows
    assert len(per_row.calls) == 30
    assert "  route: batched: est 3 LM calls" in build()[0].explain(
        SUBQUERY_UDF
    )


@pytest.mark.parametrize(
    "label", ["fix_grouped_qualified", "fix_grouped_unqualified"]
)
def test_grouped_column_spelled_two_ways_reads_the_group_key(label):
    sql = dict(CASES)[label]
    assert "calls=[COUNT])" in build()[0].explain(sql)  # no hidden FIRST()
