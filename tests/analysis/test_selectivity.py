"""Regression tests for the shared selectivity estimator.

Pins the two latent estimation bugs the optimizer work surfaced:

* **Negated predicates**: ``col <> lit`` and ``NOT p`` used to fall
  back to the blanket default selectivity, which priced "matches
  almost everything" filters as if they pruned two-thirds of the rows
  — making the optimizer hoist them ahead of genuinely selective
  conjuncts.  They must estimate the *complement* of the positive
  form.
* **IS [NOT] NULL**: previously defaulted too; it must come from the
  catalog's null counts (``ColumnStats.null_fraction``).

Plus the estimator's algebra (AND product, OR inclusion-exclusion,
clamping) and its integration into ``CostEstimate.expected_result_rows``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SQLAnalyzer
from repro.db.cost import (
    BETWEEN_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    LIKE_SELECTIVITY,
    RANGE_SELECTIVITY,
    ColumnStats,
    predicate_selectivity,
)
from repro.db import Column, Database, DataType, TableSchema
from repro.db.sql.parser import parse_statement

#: 12 rows; genre has 3 distinct values, n has 6 distinct and 4 NULLs.
STATS = {
    "genre": ColumnStats(rows=12, distinct=3, nulls=0),
    "n": ColumnStats(rows=12, distinct=6, nulls=4),
    "s": ColumnStats(rows=12, distinct=12, nulls=0),
}


def lookup(name, table=None):
    return STATS.get(name)


def sel(predicate: str) -> float:
    statement = parse_statement(f"SELECT * FROM t WHERE {predicate}")
    return predicate_selectivity(statement.where, lookup)


class TestComparisons:
    def test_equality_uses_distinct_count(self):
        assert sel("genre = 'Romance'") == pytest.approx(1 / 3)
        assert sel("n = 2") == pytest.approx(1 / 6)

    def test_equality_with_column_on_the_right(self):
        assert sel("'Romance' = genre") == pytest.approx(1 / 3)

    def test_inequality_is_the_complement_not_the_default(self):
        # The regression: <> must price as 1 - 1/distinct.  For a
        # 3-distinct column that is 2/3 — twice the old default.
        assert sel("genre <> 'Drama'") == pytest.approx(2 / 3)
        assert sel("genre <> 'Drama'") != pytest.approx(
            DEFAULT_SELECTIVITY
        )

    def test_not_wraps_as_complement(self):
        assert sel("NOT genre = 'Drama'") == pytest.approx(2 / 3)
        assert sel("NOT genre <> 'Drama'") == pytest.approx(1 / 3)
        assert sel("NOT NOT genre = 'Drama'") == pytest.approx(1 / 3)

    def test_range_comparisons_use_the_range_constant(self):
        assert sel("n > 2") == pytest.approx(RANGE_SELECTIVITY)
        assert sel("n <= 2") == pytest.approx(RANGE_SELECTIVITY)

    def test_unknown_column_falls_back_to_default(self):
        assert sel("mystery = 1") == pytest.approx(DEFAULT_SELECTIVITY)

    def test_column_to_column_comparison_falls_back(self):
        # No literal side: distinct counts alone cannot price it.
        assert sel("genre = s") == pytest.approx(DEFAULT_SELECTIVITY)


class TestNullPredicates:
    def test_is_null_uses_null_fraction(self):
        # The regression: 4 of 12 rows are NULL, so IS NULL is 1/3 by
        # *catalog evidence*, not by coincidence of the default.
        assert sel("n IS NULL") == pytest.approx(4 / 12)
        assert sel("genre IS NULL") == pytest.approx(0.0)

    def test_is_not_null_is_the_complement(self):
        assert sel("n IS NOT NULL") == pytest.approx(8 / 12)
        assert sel("genre IS NOT NULL") == pytest.approx(1.0)

    def test_not_is_null_matches_is_not_null(self):
        assert sel("NOT n IS NULL") == pytest.approx(sel("n IS NOT NULL"))

    def test_unknown_column_defaults(self):
        assert sel("mystery IS NULL") == pytest.approx(
            DEFAULT_SELECTIVITY
        )


class TestShapes:
    def test_between_and_its_negation(self):
        assert sel("n BETWEEN 1 AND 3") == pytest.approx(
            BETWEEN_SELECTIVITY
        )
        assert sel("n NOT BETWEEN 1 AND 3") == pytest.approx(
            1 - BETWEEN_SELECTIVITY
        )

    def test_like_and_its_negation(self):
        assert sel("s LIKE 'a%'") == pytest.approx(LIKE_SELECTIVITY)
        assert sel("s NOT LIKE 'a%'") == pytest.approx(
            1 - LIKE_SELECTIVITY
        )

    def test_in_list_scales_with_item_count(self):
        assert sel("genre IN ('Romance', 'Action')") == pytest.approx(
            2 / 3
        )
        assert sel("genre NOT IN ('Romance', 'Action')") == pytest.approx(
            1 / 3
        )

    def test_in_list_clamps_at_one(self):
        assert sel(
            "genre IN ('a', 'b', 'c', 'd', 'e')"
        ) == pytest.approx(1.0)
        assert sel(
            "genre NOT IN ('a', 'b', 'c', 'd', 'e')"
        ) == pytest.approx(0.0)

    def test_boolean_literals(self):
        assert sel("1") == pytest.approx(1.0)
        assert sel("0") == pytest.approx(0.0)
        assert sel("NULL") == pytest.approx(0.0)


class TestAlgebra:
    def test_and_is_a_product(self):
        assert sel("genre = 'Romance' AND n IS NULL") == pytest.approx(
            (1 / 3) * (1 / 3)
        )

    def test_or_is_inclusion_exclusion(self):
        a, b = 1 / 3, 1 / 3
        assert sel("genre = 'Romance' OR n IS NULL") == pytest.approx(
            a + b - a * b
        )

    PREDICATES = [
        "genre = 'Romance'",
        "genre <> 'Drama'",
        "n > 2",
        "n IS NULL",
        "n IS NOT NULL",
        "s LIKE 'a%'",
        "n BETWEEN 1 AND 3",
        "genre IN ('Romance', 'Action')",
        "mystery = 1",
    ]

    trees = st.recursive(
        st.sampled_from(PREDICATES),
        lambda children: st.one_of(
            st.tuples(children, children).map(
                lambda pair: f"({pair[0]} AND {pair[1]})"
            ),
            st.tuples(children, children).map(
                lambda pair: f"({pair[0]} OR {pair[1]})"
            ),
            children.map(lambda child: f"NOT ({child})"),
        ),
        max_leaves=4,
    )

    @settings(max_examples=60, deadline=None)
    @given(predicate=trees)
    def test_always_a_probability(self, predicate):
        assert 0.0 <= sel(predicate) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(predicate=trees)
    def test_negation_is_an_involution_on_the_estimate(self, predicate):
        assert sel(f"NOT ({predicate})") == pytest.approx(
            1.0 - sel(predicate)
        )


class TestExpectedResultRows:
    """Integration: the analyzer surfaces the estimate as an
    *expectation* field while keeping worst-case bounds untouched."""

    def build_database(self) -> Database:
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("genre", DataType.TEXT),
                    Column("n", DataType.INTEGER),
                ],
            )
        )
        db.insert(
            "t",
            [
                (["Romance", "Action", "Drama"][i % 3], i if i < 8 else None)
                for i in range(12)
            ],
        )
        return db

    def cost(self, sql: str):
        db = self.build_database()
        report = SQLAnalyzer(db).analyze(parse_statement(sql))
        assert report.ok
        assert report.cost is not None
        return report.cost

    def test_no_where_has_no_expectation(self):
        cost = self.cost("SELECT * FROM t")
        assert cost.expected_result_rows is None
        assert cost.result_rows == 12

    def test_equality_expectation(self):
        cost = self.cost("SELECT * FROM t WHERE genre = 'Romance'")
        assert cost.expected_result_rows == 4  # 12 / 3 distinct
        assert cost.result_rows == 12  # worst case is untouched

    def test_is_null_expectation_uses_null_counts(self):
        cost = self.cost("SELECT * FROM t WHERE n IS NULL")
        assert cost.expected_result_rows == 4  # 4 of 12 rows are NULL

    def test_negation_expectation_is_the_complement(self):
        cost = self.cost("SELECT * FROM t WHERE genre <> 'Drama'")
        assert cost.expected_result_rows == 8  # 12 * 2/3
