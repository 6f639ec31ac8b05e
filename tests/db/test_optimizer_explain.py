"""Golden EXPLAIN footers for every optimizer decision type, plus the
cost-monotonicity property.

Each decision rule (``route``, ``auto-batch-size``, ``cascade``,
``predicate-reorder``, ``selection-pushdown``) is pinned with the exact
rendered line, cost numbers included — the footer is the optimizer's
auditable rationale, so its numbers are part of the contract.

The monotonicity property closes the loop: the optimizer's chosen
route is priced by the same cost model as the per-row route, and the
chosen estimate must never exceed the per-row estimate (the route
picker takes a minimum that always includes per-row, so a violation
means the pricing broke).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, DataType, TableSchema
from repro.lm import Usage

ROWS = [
    (index, ["Romance", "Action", "Drama"][index % 3], f"title{index % 4}")
    for index in range(12)
]


def build_database(cheap_tier=False) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("genre", DataType.TEXT),
                Column("title", DataType.TEXT),
            ],
        )
    )
    db.insert("t", ROWS)

    def scalar(value):
        return str(value).upper()

    def batch(tuples):
        return [str(value).upper() for (value,) in tuples]

    cheap = None
    if cheap_tier:

        def cheap(value):
            return str(value).upper() if "0" in str(value) else None

    db.register_udf(
        "SLOW", scalar, expensive=True, batch=batch, cheap=cheap
    )
    return db


REORDER_SQL = (
    "SELECT title FROM t WHERE genre = 'Romance' "
    "AND SLOW(title) = 'TITLE1'"
)

#: 12 rows, 3 distinct genres (sel 1/3 -> 4 rows), 4 distinct titles
#: (auto batch 4, batched bound 4 calls), 56 tokens/call.
GOLDEN_REORDER = """\
Optimizer:
  route: batched: est 4 LM calls / 224 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=4 from distinct-value bound 4 (rows_scanned=12)
  predicate-reorder: 1 cheap conjunct(s) (est sel 0.333, rows 12 -> 4) before 1 expensive conjunct(s) @ 56 tok/call; written order kept among expensive conjuncts"""

#: Cascade pricing: 4 cheap calls @ 14 tok + ceil(0.5 * 4) = 2
#: escalations @ 56 tok = 168 < 224 batched.
GOLDEN_CASCADE = """\
Optimizer:
  route: cascade: est 2 LM calls / 168 tokens (per-row 12 calls / 672 tokens)
  auto-batch-size: udf_batch_size=4 from distinct-value bound 4 (rows_scanned=12)
  cascade: cheap tier for SLOW: est escalation rate 0.50, 14 tok/cheap call vs 56 tok/call
  predicate-reorder: 1 cheap conjunct(s) (est sel 0.333, rows 12 -> 4) before 1 expensive conjunct(s) @ 56 tok/call; written order kept among expensive conjuncts"""


def footer(rendered: str) -> str:
    """The Optimizer: block of an EXPLAIN rendering."""
    position = rendered.index("Optimizer:")
    return rendered[position:]


def rules(rendered: str) -> list[str]:
    """The rule of each decision line in the Optimizer: footer."""
    return [
        line.split(":")[0].strip()
        for line in footer(rendered).splitlines()[1:]
    ]


class TestGoldenFooters:
    def test_predicate_reorder_and_auto_batch_size(self):
        db = build_database()
        assert footer(db.explain(REORDER_SQL)) == GOLDEN_REORDER

    def test_cascade(self):
        db = build_database(cheap_tier=True)
        assert footer(db.explain(REORDER_SQL)) == GOLDEN_CASCADE

    def test_pinned_per_row_route(self):
        db = build_database()
        rendered = db.explain(REORDER_SQL, udf_batch_size=None)
        assert footer(rendered) == (
            "Optimizer:\n"
            "  route: per-row (caller-pinned udf_batch_size=None): "
            "est 12 LM calls / 672 tokens\n"
            "  predicate-reorder: 1 cheap conjunct(s) (est sel 0.333, "
            "rows 12 -> 4) before 1 expensive conjunct(s) @ 56 "
            "tok/call; written order kept among expensive conjuncts"
        )

    def test_no_optimize_has_no_footer(self):
        db = build_database()
        assert "Optimizer:" not in db.explain(REORDER_SQL, optimize=False)

    def test_cheap_only_statement_has_no_footer(self):
        db = build_database()
        rendered = db.explain("SELECT title FROM t WHERE genre = 'Drama'")
        assert "Optimizer:" not in rendered

    def test_explain_analyze_carries_the_same_footer(self):
        db = build_database()
        analyzed = db.explain_analyze(REORDER_SQL)
        assert footer(analyzed.render()) == GOLDEN_REORDER


class TestSelectionPushdown:
    def build_join_database(self) -> Database:
        db = build_database()
        db.create_table(
            TableSchema(
                "g",
                [
                    Column("name", DataType.TEXT),
                    Column("boost", DataType.INTEGER),
                ],
            )
        )
        db.insert("g", [("Romance", 2), ("Action", 1)])
        return db

    def test_expensive_pushed_below_equi_join(self):
        # FK-shaped hash join: est output equals the bigger input, so
        # pushing the LM predicate below costs no extra calls and
        # prunes earlier.
        db = self.build_join_database()
        rendered = db.explain(
            "SELECT t.title FROM t JOIN g ON t.genre = g.name "
            "WHERE SLOW(t.title) = 'TITLE1'"
        )
        assert (
            "selection-pushdown: pushed SLOW(…) below INNER join "
            "(est rows 12 below vs 12 after join)"
        ) in rendered
        lines = rendered.splitlines()
        batched = next(
            i for i, line in enumerate(lines) if "BatchedFilter" in line
        )
        join = next(i for i, line in enumerate(lines) if "HashJoin" in line)
        assert batched > join  # deeper in the tree = below the join

    def test_expensive_held_above_selective_join(self):
        # Non-equi join against a tiny table: est output (product / 3)
        # is smaller than the scan side, so the LM predicate runs
        # above the join where fewer rows survive.
        db = self.build_join_database()
        rendered = db.explain(
            "SELECT t.title FROM t JOIN g ON t.id > g.boost "
            "WHERE SLOW(t.title) = 'TITLE1'"
        )
        assert (
            "selection-pushdown: held SLOW(…) above INNER join "
            "(est rows 8 after join vs 12 below)"
        ) in rendered
        lines = rendered.splitlines()
        batched = next(
            i for i, line in enumerate(lines) if "BatchedFilter" in line
        )
        join = next(
            i
            for i, line in enumerate(lines)
            if "NestedLoopJoin" in line
        )
        assert batched < join  # shallower = above the join

    def test_cheap_pushdown_is_recorded(self):
        db = self.build_join_database()
        rendered = db.explain(
            "SELECT t.title FROM t JOIN g ON t.genre = g.name "
            "WHERE g.boost > 1 AND SLOW(t.title) = 'TITLE1'"
        )
        assert (
            "selection-pushdown: pushed 1 cheap conjunct(s) below "
            "INNER join"
        ) in rendered


class TestDecisionMetering:
    def test_decisions_flow_to_usage_and_footer(self):
        db = build_database()
        usage = Usage()
        db.bind_udf_meters(usage=usage)
        db.execute(REORDER_SQL)
        assert usage.optimizer_decisions == 3  # route, batch, reorder
        # The footer names each decision the count is made of, once.
        assert rules(db.explain(REORDER_SQL)) == [
            "route",
            "auto-batch-size",
            "predicate-reorder",
        ]
        assert usage.optimizer_decisions == 6  # EXPLAIN meters too

    def test_cheap_only_statements_meter_nothing(self):
        db = build_database()
        usage = Usage()
        db.bind_udf_meters(usage=usage)
        db.execute("SELECT title FROM t WHERE genre = 'Drama'")
        assert usage.optimizer_decisions == 0


class TestCostMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(
        conjuncts=st.lists(
            st.sampled_from(
                [
                    "genre = 'Romance'",
                    "genre <> 'Drama'",
                    "id > 5",
                    "SLOW(title) = 'TITLE1'",
                    "SLOW(genre) <> 'X'",
                ]
            ),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        cheap_tier=st.booleans(),
        requested=st.sampled_from(["auto", None, 3, 64]),
    )
    def test_chosen_estimate_never_exceeds_per_row(
        self, conjuncts, cheap_tier, requested
    ):
        if not any("SLOW" in conjunct for conjunct in conjuncts):
            conjuncts.append("SLOW(title) = 'TITLE1'")
        sql = "SELECT title FROM t WHERE " + " AND ".join(conjuncts)
        db = build_database(cheap_tier=cheap_tier)
        analyzed = db.explain_analyze(sql, udf_batch_size=requested)
        report = analyzed.optimizer
        assert report is not None
        if requested == "auto":
            # Auto never picks a plan priced above the unoptimized
            # per-row route; pinned routes are caller overrides.
            assert report.est_chosen_tokens <= report.est_per_row_tokens
            assert report.est_chosen_calls <= report.est_per_row_calls
            if report.udf_batch_size is not None:
                assert 1 <= report.udf_batch_size <= 256
        assert report.route in ("per-row", "batched", "cascade")
