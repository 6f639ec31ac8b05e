"""Cost-based LM-aware query optimizer.

TAG queries put LM calls on the hot path, so plan choice — not scan
speed — dominates latency and cost.  This pass sits between planning
and execution and makes four kinds of decisions, each priced by the
static cost model (:mod:`repro.db.cost`) and recorded with the
numbers that justified it:

``route``
    How expensive (LM) UDFs execute: ``per-row`` (the oracle path),
    ``batched`` (morsel-driven, deduplicated, memoized), or ``cascade``
    (a cheap classifier tier pre-filters distinct tuples before the
    expensive form runs).  The chosen route is the cheapest by
    estimated LM tokens; ties prefer the more batched route, so the
    choice is never priced above per-row execution (monotonicity,
    property-tested).

``auto-batch-size``
    ``udf_batch_size`` is derived from the resolver's distinct-value
    bound instead of being caller-supplied: dedup means a morsel larger
    than the distinct argument space buys nothing, and a constant
    un-ordered LIMIT caps how many rows can ever reach the UDF.

``predicate-reorder``
    Cheap deterministic conjuncts run before expensive LM conjuncts,
    priced by catalog selectivities.  Expensive conjuncts keep their
    written order relative to *each other*: reordering two expensive
    conjuncts could surface an error the written order never reaches,
    while hoisting cheap conjuncts can only skip (never introduce) LM
    errors — the asymmetry the equivalence harness pins.

``selection-pushdown``
    Cheap conjuncts are pushed below joins as before; an *expensive*
    conjunct is pushed below a join only when the join's estimated
    output is larger than the below-join input — a selective join
    means fewer LM calls above it.

The report renders as an ``Optimizer:`` footer on EXPLAIN / EXPLAIN
ANALYZE (only for statements that involve expensive UDFs, so plans for
purely relational queries are byte-identical with the optimizer on or
off), and every decision is counted once in
``Usage.optimizer_decisions``; the footer says which rules they were.

Every figure is read off the statement's resolution
(:mod:`repro.db.resolve`): the expensive call sites of every SELECT,
nested ones included, their per-row and batched bounds, and the
statistics of the columns a conjunct reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db import plan as physical
from repro.db.cost import (
    CASCADE_ESCALATION_RATE,
    CHEAP_TOKENS_PER_CALL,
    TOKENS_PER_CALL,
    predicate_selectivity,
)
from repro.db.resolve import Resolved, literal_limit, resolve
from repro.db.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database

#: Largest morsel the auto route will pick; beyond this, batching gains
#: nothing while error attribution latency grows.
MAX_AUTO_BATCH = 256


@dataclass(frozen=True)
class Decision:
    """One optimizer decision, with the numbers that justified it."""

    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass
class OptimizerReport:
    """What the optimizer chose for one statement, and why.

    ``est_per_row_tokens`` / ``est_chosen_tokens`` carry the cost
    model's pricing of the unoptimized per-row route and the chosen
    route; the monotonicity property ``chosen <= per_row`` holds by
    construction (the route picker takes a minimum that always includes
    per-row).
    """

    route: str = "per-row"
    udf_batch_size: int | None = None
    est_per_row_calls: int = 0
    est_per_row_tokens: int = 0
    est_chosen_calls: int = 0
    est_chosen_tokens: int = 0
    decisions: list[Decision] = field(default_factory=list)

    def add(self, rule: str, detail: str) -> None:
        self.decisions.append(Decision(rule, detail))

    def render(self) -> str:
        """The EXPLAIN footer: one line per decision."""
        lines = ["Optimizer:"]
        for decision in self.decisions:
            lines.append("  " + decision.render())
        return "\n".join(lines)


class QueryOptimizer:
    """Per-statement optimizer: chooses the route, prices the plan, and
    records the planner's LM-relevant rewrites.

    One instance serves one statement (planning is single-shot); the
    :class:`~repro.db.planner.Planner` calls back into
    :meth:`note_reorder` / :meth:`hold_above_join` while building the
    plan, and the finished :class:`OptimizerReport` is attached to the
    EXPLAIN surfaces.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self.report = OptimizerReport()
        self.cascade = False
        #: Only statements touching expensive UDFs get decisions; plans
        #: for purely relational queries must stay byte-identical.  Read
        #: by the planner: such a statement's route, reorders and
        #: pushdowns are priced from its tables' statistics.
        self.lm_relevant = False
        #: The statement :meth:`choose_route` resolved; the planner
        #: plans from it.
        self.resolved: Resolved | None = None

    # ------------------------------------------------------------------
    # route choice (pre-planning)
    # ------------------------------------------------------------------

    def choose_route(
        self, select: ast.Select, requested: object
    ) -> int | None:
        """Resolve ``udf_batch_size`` and pick the execution route.

        ``requested`` is the caller's ``udf_batch_size``: the string
        ``"auto"`` delegates the choice here, ``None`` pins the per-row
        oracle path, an int pins that morsel size.  Returns the batch
        size the planner should use.
        """
        resolved = self.resolved = resolve(self._db, select)
        names = {site.call.name.upper() for site in resolved.sites}
        self.lm_relevant = bool(names)
        if not names:
            return None if requested == "auto" else requested  # type: ignore[return-value]
        cheap_tiered = sorted(
            name
            for name in names
            if self._db.functions.has_cheap(name)
        )
        per_row_calls = resolved.lm_calls
        batched_calls = resolved.lm_calls_batched
        rows_scanned = resolved.scope.rows
        self.report.est_per_row_calls = per_row_calls
        self.report.est_per_row_tokens = per_row_calls * TOKENS_PER_CALL
        escalated = math.ceil(batched_calls * CASCADE_ESCALATION_RATE)
        candidates = [
            ("per-row", per_row_calls, per_row_calls * TOKENS_PER_CALL),
            ("batched", batched_calls, batched_calls * TOKENS_PER_CALL),
        ]
        if cheap_tiered:
            candidates.append(
                (
                    "cascade",
                    escalated,
                    batched_calls * CHEAP_TOKENS_PER_CALL
                    + escalated * TOKENS_PER_CALL,
                )
            )
        route, calls, tokens = candidates[0]
        for candidate in candidates[1:]:
            if candidate[2] <= tokens:
                route, calls, tokens = candidate
        batch: int | None
        if requested is None:
            route, calls, tokens = candidates[0]
            batch = None
            self.report.add(
                "route",
                "per-row (caller-pinned udf_batch_size=None): "
                f"est {calls} LM calls / {tokens} tokens",
            )
        elif isinstance(requested, int):
            if route == "per-row":
                route = "batched"
                calls, tokens = candidates[1][1], candidates[1][2]
            batch = requested
            self.report.add(
                "route",
                f"{route} (caller-pinned udf_batch_size={requested}): "
                f"est {calls} LM calls / {tokens} tokens "
                f"(per-row {self.report.est_per_row_calls} calls / "
                f"{self.report.est_per_row_tokens} tokens)",
            )
        elif route == "per-row":
            batch = None
            self.report.add(
                "route",
                f"per-row: est {calls} LM calls / {tokens} tokens",
            )
        else:
            self.report.add(
                "route",
                f"{route}: est {calls} LM calls / {tokens} tokens "
                f"(per-row {self.report.est_per_row_calls} calls / "
                f"{self.report.est_per_row_tokens} tokens)",
            )
            batch = self._auto_batch_size(
                select, batched_calls, rows_scanned
            )
        if route == "cascade":
            self.report.add(
                "cascade",
                f"cheap tier for {', '.join(cheap_tiered)}: "
                f"est escalation rate "
                f"{CASCADE_ESCALATION_RATE:.2f}, "
                f"{CHEAP_TOKENS_PER_CALL} tok/cheap call vs "
                f"{TOKENS_PER_CALL} tok/call",
            )
        self.cascade = route == "cascade" and batch is not None
        self.report.route = route
        self.report.udf_batch_size = batch
        self.report.est_chosen_calls = calls
        self.report.est_chosen_tokens = tokens
        return batch

    def _auto_batch_size(
        self, select: ast.Select, bound: int, rows_scanned: int
    ) -> int:
        batch = max(1, min(bound, MAX_AUTO_BATCH))
        detail = (
            f"udf_batch_size={batch} from distinct-value bound {bound} "
            f"(rows_scanned={rows_scanned})"
        )
        limit = literal_limit(select.limit)
        if limit is not None and 0 <= limit < batch and not select.order_by:
            # Without ORDER BY the plan is a streaming prefix: at most
            # LIMIT rows are ever pulled through the UDF, so a larger
            # morsel would prefetch LM calls the query then discards.
            batch = max(1, limit)
            detail = (
                f"udf_batch_size={batch} clamped to LIMIT {limit} "
                f"(streaming prefix; distinct-value bound {bound})"
            )
        self.report.add("auto-batch-size", detail)
        return batch

    # ------------------------------------------------------------------
    # planner hooks
    # ------------------------------------------------------------------

    def note_reorder(
        self,
        cheap: list[ast.Expression],
        expensive: list[ast.Expression],
        node: physical.PlanNode,
    ) -> None:
        """Record a cheap-before-expensive conjunct reorder."""
        if not self.lm_relevant or not cheap or not expensive:
            return
        selectivity = 1.0
        for conjunct in cheap:
            selectivity *= self._selectivity(conjunct)
        rows = _estimate_rows(node)
        surviving = max(0, round(rows * selectivity))
        self.report.add(
            "predicate-reorder",
            f"{len(cheap)} cheap conjunct(s) (est sel "
            f"{selectivity:.3f}, rows {rows} -> {surviving}) before "
            f"{len(expensive)} expensive conjunct(s) @ "
            f"{TOKENS_PER_CALL} tok/call; "
            "written order kept among expensive conjuncts",
        )

    def hold_above_join(
        self,
        conjunct: ast.Expression,
        join: physical.PlanNode,
        side: physical.PlanNode,
    ) -> bool:
        """Whether an expensive conjunct should stay above ``join``.

        Pushing below runs the LM over the side's rows; holding above
        runs it over the join's output.  Pick the smaller input.
        """
        if not self.lm_relevant:
            return False
        below = _estimate_rows(side)
        above = _estimate_rows(join)
        label = _conjunct_label(conjunct, self._db.functions)
        kind = getattr(join, "kind", "INNER")
        if above < below:
            self.report.add(
                "selection-pushdown",
                f"held {label} above {kind} join "
                f"(est rows {above} after join vs {below} below)",
            )
            return True
        self.report.add(
            "selection-pushdown",
            f"pushed {label} below {kind} join "
            f"(est rows {below} below vs {above} after join)",
        )
        return False

    def note_shard(
        self,
        table,
        spec,
        pipelines: int,
        prunable: bool,
        pruned: int,
    ) -> None:
        """Record a shard-parallel plan choice (and any pruning).

        Deliberately *not* gated on ``lm_relevant``: sharding applies
        to purely relational scans too, and the EXPLAIN footer must say
        why a scan fanned out.  The pruning decision is emitted whenever
        a prunable predicate was found — even when it pruned nothing —
        so the decision *count* is invariant across shard counts.
        """
        self.report.add(
            "shard-parallel",
            f"{table.schema.name}: {spec.describe()} -> "
            f"{pipelines} pipeline(s)",
        )
        if prunable:
            self.report.add(
                "shard-pruning",
                f"partition-key predicate pruned {pruned} of "
                f"{spec.shards} shard(s)",
            )

    def note_shard_declined(self, table, reason: str) -> None:
        """Record why a partitioned table's scan stayed unsharded."""
        self.report.add(
            "shard-declined", f"{table.schema.name}: {reason}"
        )

    def note_cheap_pushdown(
        self, count: int, join: physical.PlanNode
    ) -> None:
        """Record cheap conjuncts pushed into join inputs."""
        if not self.lm_relevant or count == 0:
            return
        kind = getattr(join, "kind", "INNER")
        self.report.add(
            "selection-pushdown",
            f"pushed {count} cheap conjunct(s) below {kind} join",
        )

    def _selectivity(self, conjunct: ast.Expression) -> float:
        stats = self.resolved.scope.stats  # type: ignore[union-attr]
        return predicate_selectivity(conjunct, stats)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _conjunct_label(
    conjunct: ast.Expression, functions
) -> str:
    names = []
    for node in ast.walk(conjunct):
        if isinstance(node, ast.FunctionCall) and functions.is_expensive(
            node.name
        ):
            upper = node.name.upper()
            if upper not in names:
                names.append(upper)
    if names:
        return " + ".join(f"{name}(…)" for name in names)
    return "predicate"


def _estimate_rows(node: physical.PlanNode) -> int:
    """Expected row count of a plan subtree, from catalog statistics.

    Deliberately rough: decisions need relative magnitudes, not truth.
    Filters are counted pass-through (a conservative upper estimate);
    equi-joins assume foreign-key shape (output ~ the larger input).
    """
    if isinstance(node, physical.Scan):
        return len(node.table)
    if isinstance(node, physical.IndexLookup):
        return _rows_per_key(node)
    if isinstance(node, physical.IndexRange):
        return max(1, len(node.keys()) * _rows_per_key(node))
    if isinstance(node, physical.IndexJoin):
        return _estimate_rows(node.child) * _rows_per_key(node)
    if isinstance(node, physical.HashJoin):
        return max(
            _estimate_rows(node.left), _estimate_rows(node.right)
        )
    if isinstance(node, physical.NestedLoopJoin):
        product = _estimate_rows(node.left) * _estimate_rows(node.right)
        if node.condition is None:
            return product
        return max(1, product // 3)
    child = getattr(node, "child", None)
    if child is not None:
        return _estimate_rows(child)
    rows = getattr(node, "rows", None)
    if rows is not None:
        return len(rows)
    return 1


def _rows_per_key(
    node: "physical.IndexLookup | physical.IndexRange | physical.IndexJoin",
) -> int:
    """Mean rows under one key of the column an index node reads."""
    stats = node.table.column_stats(node.column)
    return max(1, stats.rows // max(stats.distinct, 1))
