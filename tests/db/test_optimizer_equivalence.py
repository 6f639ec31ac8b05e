"""Plan-equivalence harness for the cost-based query optimizer.

The optimizer's contract is that it changes the *LM call pattern*,
never the answer: for any query, catalog, and batching route, the
optimized plan must return the same rows in the same order — and fail
with the same error text — as the unoptimized per-row oracle
(``optimize=False, udf_batch_size=None``).

Three regimes, matching the error-equivalence theory in DESIGN.md:

* **Total UDFs** (never raise): results must be identical across every
  route — per-row, auto, pinned batch sizes, cascade on/off.
* **Failing UDFs, arbitrary conjunct order**: hoisting cheap conjuncts
  above expensive ones can *eliminate* an error the written order
  would hit (a cheap filter prunes the poison row) but must never
  *introduce* one: if the optimized plan raises, the oracle raises the
  same error; if both return, rows are equal.
* **Failing UDFs, expensive-last written order**: the optimizer's
  reorder is then a no-op, so the full outcome (rows or error text)
  must be identical on every route.

Hypothesis example counts are deliberately bounded — this suite runs
in tier-1.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.db.sql.parser import parse_statement
from repro.errors import ExecutionError

#: Routes compared against the per-row oracle: the auto default, the
#: explicit per-row pin, and pinned morsel sizes spanning smaller-
#: than-distinct to larger-than-table.
ROUTES = ["auto", None, 1, 7, 64]

VALUES = ["apple", "banana", "cherry", "poison", "fig", None]
GENRES = ["Romance", "Action", "Drama"]


def build_database(rows, fail_on=None, cheap_tier=False) -> Database:
    """A table of drawn rows plus a SLOW expensive UDF.

    ``fail_on`` makes SLOW raise on one argument value (the failing-UDF
    regimes).  ``cheap_tier=True`` registers a *sound* cheap cascade
    tier: it answers exactly what SLOW would for values it recognizes
    and returns None (escalate) for the rest — including the poison
    value, so cascade never masks an error the expensive tier would
    raise.
    """
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("s", DataType.TEXT),
                Column("genre", DataType.TEXT),
                Column("n", DataType.INTEGER),
            ],
        )
    )
    db.insert("t", rows)

    def scalar(value):
        if fail_on is not None and value == fail_on:
            raise ValueError(f"SLOW failed on {value!r}")
        return str(value).upper()

    def batch(tuples):
        return [scalar(value) for (value,) in tuples]

    cheap = None
    if cheap_tier:
        # Sound by construction: answers only when certain, and only
        # for values the expensive tier would not raise on.
        recognized = {"apple", "banana"} - {fail_on}

        def cheap(value):
            if value in recognized:
                return str(value).upper()
            return None

    db.register_udf(
        "SLOW", scalar, expensive=True, batch=batch, cheap=cheap
    )
    return db


def run(db: Database, sql: str, route):
    """(columns, rows) on success, ("error", text) on engine error."""
    try:
        if route == "auto":
            result = db.execute(sql)
        else:
            result = db.execute(sql, udf_batch_size=route)
    except ExecutionError as error:
        return ("error", str(error))
    return (result.columns, result.rows)


def run_oracle(db: Database, sql: str):
    try:
        result = db.execute(sql, optimize=False, udf_batch_size=None)
    except ExecutionError as error:
        return ("error", str(error))
    return (result.columns, result.rows)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(VALUES),
        st.sampled_from(GENRES),
        st.one_of(st.integers(min_value=-3, max_value=9), st.none()),
    ),
    min_size=0,
    max_size=14,
)

#: Conjuncts in *drawn* order, so cheap/expensive interleavings vary.
conjuncts_strategy = st.lists(
    st.sampled_from(
        [
            "genre = 'Romance'",
            "genre <> 'Drama'",
            "n IS NOT NULL",
            "n > 2",
            "SLOW(s) = 'APPLE'",
            "SLOW(s) <> 'POISON'",
            "SLOW(genre) = 'ROMANCE'",
        ]
    ),
    min_size=1,
    max_size=3,
    unique=True,
)


def build_sql(conjuncts, tail=""):
    return (
        "SELECT s, genre, n FROM t WHERE "
        + " AND ".join(conjuncts)
        + (" " + tail if tail else "")
    )


class TestTotalUDFEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=rows_strategy,
        conjuncts=conjuncts_strategy,
        cheap_tier=st.booleans(),
        tail=st.sampled_from(["", "ORDER BY n DESC", "ORDER BY 1 LIMIT 4"]),
    )
    def test_all_routes_match_oracle(
        self, rows, conjuncts, cheap_tier, tail
    ):
        sql = build_sql(conjuncts, tail)
        oracle = run_oracle(build_database(rows), sql)
        for route in ROUTES:
            db = build_database(rows, cheap_tier=cheap_tier)
            assert run(db, sql, route) == oracle, (route, sql)

    @settings(max_examples=25, deadline=None)
    @given(rows=rows_strategy, cheap_tier=st.booleans())
    def test_projection_routes_match_oracle(self, rows, cheap_tier):
        sql = "SELECT s, SLOW(s) AS j FROM t ORDER BY n, s, j"
        oracle = run_oracle(build_database(rows), sql)
        for route in ROUTES:
            db = build_database(rows, cheap_tier=cheap_tier)
            assert run(db, sql, route) == oracle, route


class TestFailingUDFEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=rows_strategy,
        conjuncts=conjuncts_strategy,
        cheap_tier=st.booleans(),
    )
    def test_optimizer_never_introduces_errors(
        self, rows, conjuncts, cheap_tier
    ):
        """Arbitrary conjunct order: optimized error ⟹ same oracle
        error; optimized success with oracle error is legal (cheap
        predicates pruned the poison row) but both-success ⟹ equal."""
        sql = build_sql(conjuncts)
        oracle_outcome = run_oracle(
            build_database(rows, fail_on="poison"), sql
        )
        for route in ROUTES:
            db = build_database(
                rows, fail_on="poison", cheap_tier=cheap_tier
            )
            outcome = run(db, sql, route)
            if outcome[0] == "error":
                assert outcome == oracle_outcome, (route, sql)
            elif oracle_outcome[0] != "error":
                assert outcome == oracle_outcome, (route, sql)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=rows_strategy,
        cheap=st.lists(
            st.sampled_from(["genre <> 'Drama'", "n IS NOT NULL"]),
            min_size=0,
            max_size=2,
            unique=True,
        ),
        cheap_tier=st.booleans(),
    )
    def test_expensive_last_outcome_is_identical(
        self, rows, cheap, cheap_tier
    ):
        """Expensive conjuncts written last: the reorder is a no-op,
        so even the error outcome matches the oracle exactly.

        The cheap pool here is restricted to *two-valued* predicates
        (never NULL on the generated data).  A NULL-valued cheap
        conjunct breaks strict outcome equality for a subtle reason:
        ``NULL AND expensive`` cannot short-circuit (the combined
        result depends on the expensive side), so the oracle's single
        fused predicate still evaluates the failing UDF, while the
        optimizer's split filters drop the row at the cheap filter and
        never reach it.  That is an error *elimination* — legal under
        the regime-(b) contract above — not an equivalence bug.
        """
        conjuncts = cheap + ["SLOW(s) <> 'ZZZ'"]
        sql = build_sql(conjuncts)
        oracle = run_oracle(build_database(rows, fail_on="poison"), sql)
        for route in ROUTES:
            db = build_database(
                rows, fail_on="poison", cheap_tier=cheap_tier
            )
            assert run(db, sql, route) == oracle, (route, sql)


class TestPinnedBehaviors:
    def test_streaming_prefix_before_failing_row(self):
        """Rows ahead of the poison row stream out before the error,
        on the auto route exactly as on the oracle."""
        rows = [("apple", "Romance", 1), ("poison", "Romance", 2)]
        db = build_database(rows, fail_on="poison")
        sql = "SELECT s FROM t WHERE SLOW(s) <> 'ZZZ'"
        statement = parse_statement(sql)
        planner, _ = db._prepare_select(statement, True, "auto")
        plan, _ = planner.plan_select(statement)
        iterator = plan.execute()
        assert next(iterator) == ("apple",)
        with pytest.raises(ExecutionError):
            list(iterator)

    def test_errors_are_not_cached_across_statements(self):
        """A parked UDF error re-raises per statement; it must never
        enter the cross-statement LRU as a value."""
        rows = [("poison", "Romance", 1)]
        db = build_database(rows, fail_on="poison")
        sql = "SELECT SLOW(s) FROM t"
        for _ in range(2):
            with pytest.raises(ExecutionError) as caught:
                db.execute(sql)
            assert "SLOW failed on 'poison'" in str(caught.value)

    def test_cascade_errors_escalate_not_mask(self):
        """A cheap tier that raises is an escalation: the expensive
        tier still runs and its error surfaces unchanged."""
        db = Database()
        db.create_table(TableSchema("t", [Column("s", DataType.TEXT)]))
        db.insert("t", [("poison",)])

        def scalar(value):
            raise ValueError(f"SLOW failed on {value!r}")

        def cheap(value):
            raise RuntimeError("flaky cheap tier")

        db.register_udf("SLOW", scalar, expensive=True, cheap=cheap)
        with pytest.raises(ExecutionError) as caught:
            db.execute("SELECT SLOW(s) FROM t")
        assert "SLOW failed on 'poison'" in str(caught.value)

    def test_a_resolver_bug_is_not_priced_as_a_neutral_bound(
        self, monkeypatch
    ):
        """The route is priced off the statement's resolution, so a
        raise while resolving is a bug: it surfaces from ``execute``
        instead of quietly planning some other route."""
        db = build_database([("apple", "Romance", 1)])

        def broken(db, select):
            raise RuntimeError("a resolver bug")

        monkeypatch.setattr("repro.db.optimizer.resolve", broken)
        with pytest.raises(RuntimeError, match="a resolver bug"):
            db.execute("SELECT SLOW(s) FROM t", analyze=False)


class TestStrictBatchingAcrossSplitConjuncts:
    """Regression: reordered AND chains keep every expensive conjunct
    strict.

    ``WHERE cheap AND e1 AND e2`` splits into top-level conjuncts; the
    optimizer hoists the cheap one and applies e1 and e2 as separate
    batched filters.  Each is unconditionally evaluated in its own
    filter, so BOTH must get strict batched call sites — the reorder
    must not demote e2 into a conditional (unbatchable) position, and
    short-circuit error behavior must still match the oracle (e2's
    UDF never sees rows e1 rejected).
    """

    ROWS = [
        ("apple", "Romance", 1),
        ("banana", "Romance", 2),
        ("apple", "Drama", 3),
        ("cherry", "Romance", 4),
    ]
    SQL = (
        "SELECT s FROM t WHERE genre = 'Romance' "
        "AND SLOW(s) <> 'ZZZ' AND SLOW(genre) = 'ROMANCE'"
    )

    def test_both_expensive_conjuncts_batch(self):
        db = build_database(self.ROWS)
        rendered = db.explain(self.SQL)
        assert rendered.count("BatchedFilter") == 2

    def test_results_match_oracle(self):
        oracle = run_oracle(build_database(self.ROWS), self.SQL)
        assert oracle == run(build_database(self.ROWS), self.SQL, "auto")

    def test_second_conjunct_never_sees_rejected_rows(self):
        """e2 = SLOW(n)... with poison only reachable if e1 failed to
        prune: the oracle short-circuits, so must the batched chain."""
        rows = [
            ("apple", "Romance", 1),
            ("poison", "Drama", 2),  # cheap conjunct prunes this row
        ]
        sql = (
            "SELECT s FROM t WHERE genre = 'Romance' "
            "AND SLOW(s) <> 'ZZZ' AND SLOW(genre) = 'ROMANCE'"
        )
        oracle = run_oracle(build_database(rows, fail_on="poison"), sql)
        assert oracle[0] != "error"
        for route in ROUTES:
            db = build_database(rows, fail_on="poison")
            assert run(db, sql, route) == oracle, route
