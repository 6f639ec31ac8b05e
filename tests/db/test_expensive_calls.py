"""Where the planner looks for expensive (LM) calls, and where it puts
them.

On the ``a``/``b`` database of ``test_name_resolution`` (``SLOW`` is an
expensive UDF that counts its calls):

* under the batched route, a GROUP BY term that calls ``SLOW`` is
  computed once per distinct argument, as a SELECT item is, with the
  per-row route's rows, and EXPLAIN ANALYZE counts the calls on the
  Aggregate node;
* a statement that calls no expensive function is planned without one
  ``contains_expensive`` tree walk: its resolution has no call site;
* a ``SLOW`` nested in ``COALESCE`` or ``CASE`` still makes its conjunct
  expensive, which runs behind the cheap conjuncts.
"""

from __future__ import annotations

import pytest

from repro.db.functions import FunctionRegistry
from tests.db.test_name_resolution import build

GROUPED = [
    "SELECT SLOW(y), COUNT(*) FROM b GROUP BY 1",
    "SELECT y, COUNT(*) FROM b GROUP BY SLOW(y) ORDER BY 1",
    "SELECT SLOW(y) AS s, MIN(id) FROM b WHERE id > 3 GROUP BY s "
    "HAVING COUNT(*) > 2 ORDER BY 2",
]


@pytest.mark.parametrize("sql", GROUPED)
@pytest.mark.parametrize("size", ["auto", 4])
def test_a_batched_group_key_calls_once_per_distinct_value(sql, size):
    oracle, calls = build()
    want = oracle.execute(sql, udf_batch_size=None).rows
    assert len(calls.calls) == 30 - ("id > 3" in sql) * 2
    db, udf = build()
    assert db.execute(sql, udf_batch_size=size).rows == want
    assert len(udf.calls) == 3
    db, _ = build()
    render = db.explain_analyze(sql, udf_batch_size=size).render()
    lines = render.splitlines()
    [aggregate] = [line for line in lines if "Aggregate(" in line]
    assert "lm_calls=3 " in aggregate


LM_FREE = [
    "SELECT id, x FROM a WHERE id >= 2 AND x = 'p' ORDER BY id",
    "SELECT a.id, b.y FROM a JOIN b ON a.id = b.id WHERE b.y <> 'T3' "
    "AND a.x = 'p'",
    "SELECT y, COUNT(*) FROM b WHERE id > 3 GROUP BY y HAVING COUNT(*) > 1",
    "SELECT id FROM a WHERE id IN (SELECT id FROM b WHERE y = 'T2')",
    "SELECT s.k FROM (SELECT id AS k FROM b WHERE id < 9) AS s "
    "WHERE s.k > 3",
]


def test_an_lm_free_plan_walks_no_tree_for_expensive_calls(monkeypatch):
    walks: list[object] = []
    real = FunctionRegistry.contains_expensive

    def counted(self, expression):
        walks.append(expression)
        return real(self, expression)

    monkeypatch.setattr(FunctionRegistry, "contains_expensive", counted)
    db, _ = build()
    db.set_partitioning("b", "id", shards=2)
    for sql in LM_FREE:
        for optimize in (True, False):
            db.execute(sql, optimize=optimize)
            db.explain(sql, optimize=optimize)
            db.explain_analyze(sql, optimize=optimize, analyze=True)
    assert walks == []
    db.execute("SELECT id FROM b WHERE SLOW(y) = 'T1' AND id < 9")
    assert walks


DEFERRED = [
    "SELECT id FROM b WHERE COALESCE(SLOW(y), 'x') = 'T1' AND id < 5",
    "SELECT id FROM b WHERE CASE WHEN id > 0 THEN SLOW(y) END = 'T2' "
    "AND id < 5",
    "SELECT id FROM b WHERE id < 5 AND COALESCE(NULL, SLOW(y)) <> 'T3'",
]


@pytest.mark.parametrize("sql", DEFERRED)
def test_a_nested_expensive_call_runs_behind_cheap_conjuncts(sql):
    db, udf = build()
    rows = db.execute(sql, udf_batch_size=None).rows
    assert udf.calls == ["T1", "T2", "T3"]  # ids 2, 3 and 4 only
    assert rows == [
        (n,) for n in (2, 3, 4) if (("T1", "T2", "T3")[n - 2] in sql) != (
            "<>" in sql
        )
    ]
    plan = db.explain(sql, udf_batch_size=None).splitlines()
    assert plan[1].strip() == "Filter(where[expensive])"
    assert plan[2].strip() == "Filter(where)"
