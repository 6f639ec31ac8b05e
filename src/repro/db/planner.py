"""Planner: builds a plan tree for a resolved SELECT.

The statement's names are bound, and its calls checked, by
:mod:`repro.db.resolve` (stars expanded, ordinals and aliases replaced,
each column reference given its owner), at most once, by the database's
prepare step.  A :class:`Planner` is given that :class:`Resolved`, and
resolves nothing itself: a nested SELECT the resolution does not cover
(a statement planned from the owners its nodes kept) is derived from
its owners (:func:`~repro.db.resolve.rebound`).  It raises the first
failure resolution records, in the analyzer's order, before it builds a
node, so it only ever plans a clean resolution; then it maps owners to
row positions.  It performs, in order:

1. FROM-tree construction (scans, subquery sources, joins),
2. WHERE decomposition into conjuncts with optional *predicate pushdown*
   (each conjunct is applied at the deepest subtree holding the sources
   of all the columns it reads; never pushed into the right side of a
   LEFT join, which would change semantics); one conjunct that compares
   an indexed column with literals becomes the scan's access path
   (``=``: index lookup; ``BETWEEN``/``<``/``<=``/``>``/``>=``: range
   scan over the ordered index),
3. equi-join detection (ON conjuncts of the form ``l.x = r.y`` become
   hash-join keys; the rest stay as a residual predicate); once
   push-down has settled the inputs, an INNER single-key hash join of a
   small input with a bare scan indexed on the key probes that index
   instead (same rows, same order),
4. aggregation planning: aggregate calls anywhere in the SELECT items,
   HAVING, or ORDER BY are collected, deduplicated, and computed by one
   Aggregate node; a column a GROUP BY term names reads that term's
   value, and other bare column references in an aggregate query are
   rewritten to a hidden FIRST() aggregate (SQLite-style leniency, which
   LM-generated SQL relies on),
5. HAVING, extended projection (items + extra ORDER BY expressions),
   sort, slice back to the item columns, DISTINCT, LIMIT/OFFSET.  No
   sort is planned when a range scan already emits the one ascending
   key, and a sort directly under LIMIT keeps only ``limit + offset``
   rows (Top-N).

*Expensive-predicate deferral*: conjuncts calling a UDF registered as
expensive (LM UDFs) are always applied after cheap relational conjuncts
at the same plan level, so the LM sees as few rows as possible.

Set ``optimize=False`` to disable pushdown/hash joins/index access paths;
the ablation benchmark compares both modes.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.db import plan as physical
from repro.db import types as dbtypes
from repro.db.expr import (
    FLIPPED,
    ExpressionCompiler,
    plan_batched_expressions,
    read_column,
)
from repro.db.functions import AggregateSpec
from repro.db.optimizer import _estimate_rows
from repro.db.resolve import (
    Column,
    Ordering,
    Resolved,
    rebound,
    slot,
    substitute,
)
from repro.db.result import ResultSet, Row, RowLayout
from repro.db.shard import PartitionSpec, ShardContext
from repro.db.sql import ast
from repro.db.table import Table
from repro.errors import PlanningError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database
    from repro.db.optimizer import QueryOptimizer

#: An index-nested-loop join replaces a hash join only when its
#: estimated probe results, times this, still fit under the probed
#: table's row count: the estimate counts filters as pass-through, and
#: the hash join it displaces costs one pass over that table.
_INDEX_JOIN_MARGIN = 4

#: Dedup/replay ordinal for the (single) sharded projection stage; far
#: above any WHERE-conjunct ordinal so cache events replay in plan order.
_SHARD_PROJECT_ORDINAL = 1_000_000


def _first_spec() -> AggregateSpec:
    """Hidden aggregate capturing the first value seen in a group."""
    sentinel = object()

    def fold(state: object, values: list) -> object:
        return values[0] if state is sentinel and values else state

    def finish(state: object) -> object:
        return None if state is sentinel else state

    return AggregateSpec(lambda: sentinel, fold, finish)


class Planner:
    def __init__(
        self,
        catalog: "Database",
        resolved: Resolved,
        optimize: bool = True,
        udf_batch_size: int | None = None,
        udf_context: "physical.UDFExecContext | None" = None,
        optimizer: "QueryOptimizer | None" = None,
    ) -> None:
        self._catalog = catalog
        self._functions = catalog.functions
        self._optimize = optimize
        #: When set, expensive-UDF filters and projections resolve
        #: their calls in batches of this many rows.
        self._udf_batch_size = udf_batch_size
        self._udf_context = udf_context
        #: Cost-based optimizer for this statement: records decisions
        #: (reorder/pushdown rationale) and steers expensive-conjunct
        #: placement and the cascade route.  None under optimize=False.
        self._optimizer = optimizer
        #: The SELECT currently being planned, for the sharding
        #: eligibility rules; plan_select saves/restores both fields
        #: around recursion so subquery planning cannot clobber them.
        self._shard_select: ast.Select | None = None
        #: The Merge capping a freshly sharded WHERE region, while the
        #: projection step may still push expensive work into it.
        self._open_merge: physical.Merge | None = None
        #: (left key, right key) of each INNER single-key hash join
        #: built so far, for the index-join rule that runs after
        #: push-down has settled what the join's inputs are.
        self._equi_keys: dict[
            physical.HashJoin, tuple[ast.Expression, ast.Expression]
        ] = {}
        #: Cleared when the plan being built keeps run state outside
        #: the frames of ``execute()`` — batched call sites, a shard
        #: exchange, a subquery's fetch-once closure — and so may run
        #: only once; the statement cache stores no such plan.
        self.reusable = True
        #: Table -> its ``version`` just before planning first read its
        #: statistics: the plan was chosen for those numbers and stands
        #: while they do.
        self.stats_read: dict[Table, int] = {}
        #: What the statement's names bind to (see
        #: :mod:`repro.db.resolve`).
        self._resolved = resolved

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_select(self, select: ast.Select) -> ResultSet:
        plan, names = self.plan_select(select)
        return ResultSet(names, list(plan.execute()))

    def plan_select(
        self, select: ast.Select
    ) -> tuple[physical.PlanNode, list[str]]:
        saved_select = self._shard_select
        saved_merge = self._open_merge
        self._shard_select = select
        self._open_merge = None
        try:
            plan, names = self._plan_select(select)
            if self._resolved.sites:  # else no LM call to order
                physical.read_serially(plan)
            return plan, names
        finally:
            self._shard_select = saved_select
            self._open_merge = saved_merge

    def _plan_select(
        self, select: ast.Select
    ) -> tuple[physical.PlanNode, list[str]]:
        resolved = self._resolution(select)
        for failure in resolved.failures.values():
            failure.throw()  # the analyzer's first error
        source = self._build_source(select.source)
        items = resolved.items
        if not items:
            raise PlanningError("SELECT list is empty")
        source = self._apply_where(source, _split_conjuncts(select.where))

        having = resolved.having
        order_items = resolved.order_by
        if resolved.group_by or resolved.has_aggregate:
            source, items, having, order_items = self._plan_aggregation(
                source, resolved
            )

        if having is not None:
            compiler = self._compiler(source.layout)
            source = physical.Filter(
                source, compiler.predicate(having), label="having"
            )

        plan, names = self._plan_projection_and_order(
            source, items, order_items, select.distinct
        )
        plan = self._apply_limit(plan, select.limit, select.offset)
        return plan, names

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _build_source(
        self, source: ast.FromSource | None
    ) -> physical.PlanNode:
        if source is None:
            return physical.Values([()], RowLayout([]))
        if isinstance(source, ast.TableSource):
            scan = physical.Scan(
                self._catalog.table(source.name), source.binding
            )
            if self._optimizer is not None and self._optimizer.lm_relevant:
                # Routes, reorders and pushdowns of a statement with
                # LM calls are priced from every table it scans.
                self._reads_statistics(scan)
            return scan
        if isinstance(source, ast.SubquerySource):
            inner, names = self.plan_select(source.query)
            sliced = physical.Slice(inner, list(range(len(names))))
            sliced.layout = RowLayout(
                [(source.alias, name) for name in names]
            )
            return sliced
        if isinstance(source, ast.Join):
            return self._build_join(source)
        raise PlanningError(
            f"unsupported FROM source {type(source).__name__}"
        )

    def _build_join(self, join: ast.Join) -> physical.PlanNode:
        """A hash join on the ON conjuncts that compare a column of each
        side (optimized, and not a CROSS join), the rest its residual;
        a nested-loop join over every conjunct when there is none."""
        left = self._build_source(join.left)
        right = self._build_source(join.right)
        conjuncts = _split_conjuncts(join.condition)
        left_keys: list[ast.Expression] = []
        right_keys: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        if self._optimize and join.kind != "CROSS":
            for conjunct in conjuncts:
                pair = self._equi_key_pair(conjunct, left.layout, right.layout)
                if pair is None:
                    residual.append(conjunct)
                else:
                    left_keys.append(pair[0])
                    right_keys.append(pair[1])
        compiler = self._compiler(RowLayout.concat(left.layout, right.layout))
        if not left_keys:
            condition = (
                compiler.kernel(_and_all(conjuncts)) if conjuncts else None
            )
            return physical.NestedLoopJoin(left, right, condition, join.kind)
        residual_kernel = (
            compiler.kernel(_and_all(residual)) if residual else None
        )
        hashed = physical.HashJoin(
            left,
            right,
            [self._compiler(left.layout).kernel(key) for key in left_keys],
            [self._compiler(right.layout).kernel(key) for key in right_keys],
            join.kind,
            residual_kernel,
        )
        if join.kind == "INNER" and len(left_keys) == 1:
            self._equi_keys[hashed] = (left_keys[0], right_keys[0])
        return hashed

    def _equi_key_pair(
        self,
        conjunct: ast.Expression,
        left_layout: RowLayout,
        right_layout: RowLayout,
    ) -> tuple[ast.Expression, ast.Expression] | None:
        """If ``conjunct`` is ``lhs = rhs`` splitting cleanly across the
        join inputs, return (left_key, right_key)."""
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        for first, second in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if self._reads_only(first, left_layout) and self._reads_only(
                second, right_layout
            ):
                return first, second
        return None

    # ------------------------------------------------------------------
    # WHERE / pushdown
    # ------------------------------------------------------------------

    def _apply_where(
        self, source: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> physical.PlanNode:
        if self._optimize:
            source, conjuncts = self._push_down(source, conjuncts)
        sharded = self._maybe_shard(source, conjuncts)
        if sharded is not None:
            return sharded
        return self._attach_filters(source, conjuncts)

    def _push_down(
        self, node: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> tuple[physical.PlanNode, list[ast.Expression]]:
        """Push conjuncts into join inputs where their columns resolve."""
        if isinstance(node, (physical.HashJoin, physical.NestedLoopJoin)):
            remaining: list[ast.Expression] = []
            left_push: list[ast.Expression] = []
            right_push: list[ast.Expression] = []
            for conjunct in conjuncts:
                side: physical.PlanNode | None = None
                if self._reads_only(conjunct, node.left.layout):
                    side = node.left
                elif node.kind != "LEFT" and self._reads_only(
                    conjunct, node.right.layout
                ):
                    side = node.right
                if side is None:
                    remaining.append(conjunct)
                    continue
                # An expensive (LM) conjunct goes wherever fewer rows
                # flow: a selective join means evaluating it above the
                # join costs fewer LM calls than below.
                if (
                    self._optimizer is not None
                    and self._is_expensive(conjunct)
                    and self._optimizer.hold_above_join(
                        conjunct, node, side
                    )
                ):
                    remaining.append(conjunct)
                elif side is node.left:
                    left_push.append(conjunct)
                else:
                    right_push.append(conjunct)
            if self._optimizer is not None:
                self._optimizer.note_cheap_pushdown(
                    sum(
                        1
                        for conjunct in left_push + right_push
                        if not self._is_expensive(conjunct)
                    ),
                    node,
                )
            new_left, leftover = self._push_down(node.left, left_push)
            node.left = self._attach_filters(new_left, leftover)
            new_right, leftover = self._push_down(node.right, right_push)
            node.right = self._attach_filters(new_right, leftover)
            return self._maybe_index_join(node), remaining
        if isinstance(node, physical.Scan):
            return self._maybe_index_lookup(node, conjuncts)
        return node, conjuncts

    def _maybe_index_join(
        self, join: physical.HashJoin | physical.NestedLoopJoin
    ) -> physical.PlanNode:
        """Probe an index instead of hashing a whole table, when one
        input is a bare indexed scan and the other is small.

        Applies to an INNER hash join on one key whose key on the scan
        side is the indexed column itself.  The rows and their order
        are the hash join's (see :class:`~repro.db.plan.IndexJoin`).
        """
        keys = self._equi_keys.pop(join, None)
        if keys is None:
            return join
        # The right input first: probing it streams the left input,
        # where probing the left one has to sort its matches.
        for probed, key, outer, outer_key, table_is_left in (
            (join.right, keys[1], join.left, join.left_keys[0], False),
            (join.left, keys[0], join.right, join.right_keys[0], True),
        ):
            if not (
                isinstance(probed, physical.Scan)
                and isinstance(key, ast.ColumnRef)
                and probed.table.has_index(key.name)
            ):
                continue
            candidate = physical.IndexJoin(
                outer,
                outer_key,
                probed.table,
                probed.binding,
                key.name,
                table_is_left,
                join.residual,
            )
            self._reads_statistics(candidate)
            if _estimate_rows(candidate) * _INDEX_JOIN_MARGIN <= len(
                probed.table
            ):
                return candidate
        return join

    def _reads_statistics(self, node: physical.PlanNode) -> None:
        """Note, before an estimate reads them, the version of every
        stored table under ``node``."""
        table = getattr(node, "table", None)
        if table is not None:
            self.stats_read.setdefault(table, table.version)
        for child in node._children():
            self._reads_statistics(child)

    def _maybe_index_lookup(
        self, scan: physical.Scan, conjuncts: list[ast.Expression]
    ) -> tuple[physical.PlanNode, list[ast.Expression]]:
        """Turn one conjunct on an indexed column into an index access:
        ``col = literal`` into a lookup, else a range comparison of the
        column with literals into a range scan."""
        table = scan.table
        for position, conjunct in enumerate(conjuncts):
            point = self._point_predicate(conjunct, scan)
            if point is None:
                continue
            column, value = point
            if not (
                table.has_index(column)
                and _probe_matches_filter(table, column, value)
            ):
                continue
            lookup = physical.IndexLookup(
                table, scan.binding, column, value
            )
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            return lookup, rest
        for position, conjunct in enumerate(conjuncts):
            bounds = self._range_predicate(conjunct, scan)
            if bounds is None or not table.has_index(bounds[0]):
                continue
            ranged = physical.IndexRange(table, scan.binding, *bounds)
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            return ranged, rest
        return scan, conjuncts

    def candidate_row_ids(
        self,
        table: Table,
        binding: str,
        where: ast.Expression | None,
    ) -> Iterable[int]:
        """Ascending ids of the rows ``where`` can select: a superset.

        UPDATE and DELETE find their targets through the access path a
        SELECT's scan of the table would get — :meth:`_maybe_index_lookup`
        decides, so there is one index rule — and evaluate the whole
        WHERE on the candidates themselves.
        """
        if self._optimize and where is not None:
            node, _ = self._maybe_index_lookup(
                physical.Scan(table, binding), _split_conjuncts(where)
            )
            if not isinstance(node, physical.Scan):
                return node.row_ids()
        return range(len(table))

    def _point_predicate(
        self, conjunct: ast.Expression, scan: physical.Scan
    ) -> tuple[str, object] | None:
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        for ref, literal in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            column = self._column_of(ref, scan.layout)
            if (
                column is not None
                and isinstance(literal, ast.Literal)
                and literal.value is not None
            ):
                return column, literal.value
        return None

    def _range_predicate(
        self, conjunct: ast.Expression, scan: physical.Scan
    ) -> tuple[str, object, object, bool, bool] | None:
        """``(column, low, high, low_strict, high_strict)`` when
        ``conjunct`` bounds one of the scan's columns by literals:
        ``col BETWEEN a AND b`` or ``col <|<=|>|>= a`` (either way
        round); a side left open is None.  NULL bounds and NOT BETWEEN
        select nothing a range can express, so they stay filters.
        """

        def column_of(ref: ast.Expression) -> str | None:
            return self._column_of(ref, scan.layout)

        def bound_of(literal: ast.Expression) -> object:
            return (
                literal.value if isinstance(literal, ast.Literal) else None
            )

        if isinstance(conjunct, ast.BetweenExpression):
            column = column_of(conjunct.operand)
            low, high = bound_of(conjunct.lower), bound_of(conjunct.upper)
            if (
                conjunct.negated
                or column is None
                or low is None
                or high is None
            ):
                return None
            return column, low, high, False, False
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op in FLIPPED
        ):
            return None
        for ref, literal, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, FLIPPED[conjunct.op]),
        ):
            column, bound = column_of(ref), bound_of(literal)
            if column is None or bound is None:
                continue
            if op in (">", ">="):
                return column, bound, None, op == ">", False
            return column, None, bound, False, op == "<"
        return None

    def _attach_filters(
        self, node: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> physical.PlanNode:
        """Apply conjuncts as filters: cheap first, expensive (LM) last.

        With the optimizer disabled, conjuncts run in the order the
        query wrote them (one combined predicate), so a leading LM UDF
        really is evaluated on every row — the behaviour the UDF
        pushdown ablation measures.
        """
        if not conjuncts:
            return node
        if not self._optimize:
            compiler = self._compiler(node.layout)
            return physical.Filter(
                node, compiler.predicate(_and_all(conjuncts)), label="where"
            )
        cheap = [c for c in conjuncts if not self._is_expensive(c)]
        expensive = [c for c in conjuncts if self._is_expensive(c)]
        if self._optimizer is not None:
            self._optimizer.note_reorder(cheap, expensive, node)
        compiler = self._compiler(node.layout)
        if cheap:
            node = physical.Filter(
                node, compiler.predicate(_and_all(cheap)), label="where"
            )
        for conjunct in expensive:
            node = self._expensive_filter(node, conjunct)
        return node

    def _expensive_filter(
        self,
        node: physical.PlanNode,
        conjunct: ast.Expression,
        context: "physical.MorselContext | None" = None,
        ordinal: int = 0,
    ) -> physical.PlanNode:
        """One expensive conjunct: batched when enabled, per-row else.

        A conjunct whose expensive calls sit only in conditional
        positions (the right side of AND/OR, non-first CASE branches)
        has no strict call sites to batch; it falls back to the per-row
        oracle path, which preserves short-circuit semantics exactly.
        ``context`` and ``ordinal`` place the filter in a shard
        pipeline; the default is the statement's own context.
        """
        if self._udf_batch_size is not None:
            sites, compiler = plan_batched_expressions(
                [conjunct],
                node.layout,
                self._functions,
                self,
                cascade=self._cascade(),
            )
            if sites:
                self.reusable = False
                return physical.Filter(
                    node,
                    compiler.predicate(conjunct),
                    "where[expensive]",
                    sites,
                    context or self._udf_exec_context(),
                    self._udf_batch_size,
                    ordinal,
                )
        compiler = self._compiler(node.layout)
        return physical.Filter(
            node, compiler.predicate(conjunct), label="where[expensive]"
        )

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------

    def _maybe_shard(
        self, source: physical.PlanNode, conjuncts: list[ast.Expression]
    ) -> physical.PlanNode | None:
        """Plan the WHERE region as shard-parallel pipelines, when safe.

        Applies only to an optimized scan of a partitioned table whose
        statement has no subqueries and no streaming-prefix LIMIT, and
        whose expensive conjuncts (if any) ride the batched route —
        exactly the shapes where the exchange provably preserves rows,
        order, traces, and every shared counter (see
        :class:`repro.db.plan.Exchange`).  Returns None to fall back to
        the ordinary single-threaded plan.
        """
        if not self._optimize:
            return None
        if not isinstance(
            source, (physical.Scan, physical.IndexLookup, physical.IndexRange)
        ):
            return None
        spec = source.table.partition_spec
        if spec is None:
            return None
        if not isinstance(source, physical.Scan):
            return self._shard_declined(source, "index access path chosen")
        select = self._shard_select
        if select is None:
            return None
        decline = self._shard_decline_reason(select, conjuncts)
        if decline is not None:
            return self._shard_declined(source, decline)
        cheap = [c for c in conjuncts if not self._is_expensive(c)]
        expensive = [c for c in conjuncts if self._is_expensive(c)]
        survivors, prunable = self._prune_shards(spec, source, conjuncts)
        pruned = spec.shards - len(survivors)
        if not survivors:
            if self._optimizer is not None:
                self._optimizer.note_shard(
                    source.table, spec, 0, prunable, pruned
                )
            return physical.Values([], source.layout)
        if self._optimizer is not None:
            self._optimizer.note_reorder(cheap, expensive, source)
        pipelines: list[physical.PlanNode] = []
        contexts: list[ShardContext] = []
        for shard_id in survivors:
            shard_context = ShardContext()
            pipeline = self._shard_pipeline(
                source, spec, shard_id, cheap, expensive, shard_context
            )
            if pipeline is None:
                # The conjunct's expensive calls all sit in conditional
                # positions: no strict sites to batch, so sharding would
                # put per-row LM calls on shard threads.  Stay unsharded.
                return self._shard_declined(
                    source, "expensive conjunct has no batchable call sites"
                )
            pipelines.append(pipeline)
            contexts.append(shard_context)
        if self._optimizer is not None:
            self._optimizer.note_shard(
                source.table, spec, len(pipelines), prunable, pruned
            )
        self.reusable = False
        exchange = physical.Exchange(
            pipelines,
            contexts,
            self._udf_exec_context(),
            self._catalog.shard_runtime,
        )
        merge = physical.Merge(exchange)
        self._open_merge = merge
        return merge

    def _shard_declined(self, source: physical.PlanNode, reason: str) -> None:
        """Say in the EXPLAIN footer why ``source`` stays unsharded."""
        if self._optimizer is not None:
            self._optimizer.note_shard_declined(source.table, reason)

    def _shard_decline_reason(
        self, select: ast.Select, conjuncts: list[ast.Expression]
    ) -> str | None:
        if self._resolution(select).has_subquery:
            return "statement contains a subquery"
        if select.limit is not None and not select.order_by:
            # An un-ordered LIMIT is a streaming prefix: the unsharded
            # plan stops pulling (and stops calling the LM) after LIMIT
            # rows, while shards materialize their whole partitions.
            return "LIMIT without ORDER BY streams a prefix"
        if self._udf_batch_size is None and any(
            self._is_expensive(conjunct) for conjunct in conjuncts
        ):
            return "expensive conjuncts are pinned to the per-row route"
        return None

    def _shard_pipeline(
        self,
        source: physical.Scan,
        spec: PartitionSpec,
        shard_id: int,
        cheap: list[ast.Expression],
        expensive: list[ast.Expression],
        context: ShardContext,
    ) -> physical.PlanNode | None:
        """One shard's pipeline, compiled fresh: kernels and call
        sites hold per-shard state (memos, LIKE caches), so nothing
        compiled is ever shared across shard threads.  None when an
        expensive conjunct has no call site to batch."""
        node: physical.PlanNode = physical.ShardScan(
            source.table, source.binding, spec, shard_id
        )
        if cheap:
            compiler = self._compiler(node.layout)
            node = physical.Filter(
                node,
                compiler.predicate(_and_all(cheap)),
                "where",
                context=context,
            )
        for ordinal, conjunct in enumerate(expensive):
            node = self._expensive_filter(node, conjunct, context, ordinal)
            if not node.sites:  # type: ignore[attr-defined]
                return None
        return node

    def _prune_shards(
        self,
        spec: PartitionSpec,
        scan: physical.Scan,
        conjuncts: list[ast.Expression],
    ) -> tuple[list[int], bool]:
        """(surviving shard ids, whether any conjunct was prunable).

        Equality and IN predicates on the partition key restrict which
        shards can hold matching rows; the conjunct still runs as an
        in-shard filter, so pruning is purely an execution saving.
        """
        survivors = set(range(spec.shards))
        prunable = False
        for conjunct in conjuncts:
            values = self._partition_key_values(conjunct, spec, scan)
            if values is None:
                continue
            allowed = self._shards_for_values(spec, scan, values)
            if allowed is None:
                continue
            prunable = True
            survivors &= allowed
        return sorted(survivors), prunable

    def _shards_for_values(
        self,
        spec: PartitionSpec,
        scan: physical.Scan,
        values: list[object],
    ) -> set[int] | None:
        """Shards that could hold rows equal to any of ``values``.

        Literals are coerced to the key column's type first (the same
        canonicalization the partitioner applies to stored rows); a
        value that cannot be coerced makes the whole conjunct
        non-prunable rather than risking an over-prune.  NULL literals
        match no row under ``=``/``IN``, so they constrain to nothing.
        """
        schema = scan.table.schema
        dtype = schema.columns[schema.column_index(spec.column)].dtype
        allowed: set[int] = set()
        for value in values:
            if value is None:
                continue
            try:
                coerced = dbtypes.coerce(value, dtype)
            except SchemaError:
                return None
            allowed.add(spec.shard_of(coerced))
        return allowed

    def _partition_key_values(
        self,
        conjunct: ast.Expression,
        spec: PartitionSpec,
        scan: physical.Scan,
    ) -> list[object] | None:
        """Literal values an equality/IN conjunct pins the partition key to.

        Recognizes ``key = literal`` (either side) and ``key IN
        (literals...)`` where the column reference binds to the scanned
        table; anything else is not prunable.
        """
        column = spec.column.lower()

        def is_key(ref: ast.Expression) -> bool:
            name = self._column_of(ref, scan.layout)
            return name is not None and name.lower() == column

        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            for ref, literal in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if is_key(ref) and isinstance(literal, ast.Literal):
                    return [literal.value]
            return None
        if (
            isinstance(conjunct, ast.InList)
            and not conjunct.negated
            and is_key(conjunct.operand)
            and all(
                isinstance(item, ast.Literal) for item in conjunct.items
            )
        ):
            return [item.value for item in conjunct.items]
        return None

    def _shard_projection(
        self,
        source: physical.PlanNode,
        expressions: list[ast.Expression],
        layout: RowLayout,
    ) -> physical.PlanNode | None:
        """Push an expensive projection into an open shard region.

        Puts a morsel projection on top of each shard pipeline, so
        projection LM morsels run shard-parallel and meet the other
        shards' batches at the flush barrier.  Cheap projections stay
        above the merge: there is nothing to overlap.
        """
        merge = self._open_merge
        if merge is None or source is not merge:
            return None
        exchange = merge.child
        replacements: list[physical.PlanNode] = []
        for pipeline, shard_context in zip(
            exchange.shards, exchange.contexts
        ):
            projected = self._batched_projection(
                pipeline,
                expressions,
                layout,
                shard_context,
                _SHARD_PROJECT_ORDINAL,
            )
            if projected is None:
                return None  # nothing batchable; project above the merge
            replacements.append(projected)
        self._open_merge = None
        # A new exchange, not new shards on the old one: an Exchange
        # seeds its counters from the call sites it is built over.
        return physical.Merge(
            physical.Exchange(
                replacements,
                exchange.contexts,
                exchange.context,
                exchange.runtime,
            )
        )

    def _udf_exec_context(self) -> "physical.UDFExecContext":
        if self._udf_context is None:
            self._udf_context = physical.UDFExecContext()
        return self._udf_context

    def _cascade(self) -> bool:
        return (
            self._optimizer is not None and self._optimizer.cascade
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _plan_aggregation(
        self, source: physical.PlanNode, resolved: Resolved
    ) -> tuple[
        physical.PlanNode,
        list[ast.SelectItem],
        ast.Expression | None,
        list[Ordering],
    ]:
        items = resolved.items
        group_by = resolved.group_by
        having = resolved.having
        order_items = resolved.order_by
        aggregate_calls = resolved.aggregates
        # A column a GROUP BY term names, however spelled, reads that
        # term's value; a genuinely bare column is served by a hidden
        # FIRST() aggregate (SQLite leniency).
        bare_columns = list(dict.fromkeys(resolved.columns))

        sites, group_keys = self._group_keys(source.layout, group_by)
        source_compiler = self._compiler(source.layout)
        entries: list[tuple[str | None, str]] = []
        replacements: dict[ast.Expression, ast.ColumnRef] = {}
        grouped: dict[Column, ast.ColumnRef] = {}
        for position, expr in enumerate(group_by):
            name = f"_group{position}"
            entries.append((None, name))
            replacements[expr] = ast.ColumnRef(name)
            owner = getattr(expr, "owner", None)
            if isinstance(owner, Column):
                grouped.setdefault(owner, replacements[expr])
        calls: list[physical.AggregateCall] = []
        for position, call in enumerate(aggregate_calls):
            name = f"_agg{position}"
            entries.append((None, name))
            replacements[call] = ast.ColumnRef(name)
            # COUNT(*) folds the rows; any other call has one argument.
            argument = (
                None if call.star else source_compiler.kernel(call.args[0])
            )
            aggregate = self._functions.aggregate_call(call)
            calls.append(
                physical.AggregateCall(
                    aggregate.spec,  # type: ignore[union-attr]
                    argument,
                    call.distinct,
                    call.name,
                )
            )
        for position, ref in enumerate(bare_columns):
            group = grouped.get(ref.owner)  # type: ignore[arg-type]
            if group is not None:
                replacements[ref] = group
                continue
            name = f"_bare{position}"
            entries.append((None, name))
            replacements[ref] = ast.ColumnRef(name)
            calls.append(
                physical.AggregateCall(
                    _first_spec(),
                    source_compiler.kernel(ref),
                    False,
                    f"FIRST({ref.display()})",
                )
            )
        layout = RowLayout(entries)
        aggregate_node = physical.Aggregate(source, group_keys, calls, layout)
        if sites:
            self.reusable = False
            aggregate_node.batch(
                sites, self._udf_exec_context(), self._udf_batch_size
            )

        def rewrite(expression: ast.Expression) -> ast.Expression:
            return substitute(expression, replacements)

        new_items = [
            ast.SelectItem(
                rewrite(item.expression),
                item.alias or ast.expression_name(item.expression),
            )
            for item in items
        ]
        new_having = rewrite(having) if having is not None else None
        new_order = [
            order
            if order.target is not None
            else Ordering(rewrite(order.expression), order.ascending)
            for order in order_items
        ]
        return aggregate_node, new_items, new_having, new_order

    def _group_keys(
        self, layout: RowLayout, group_by: list[ast.Expression]
    ) -> tuple[list, list]:
        """The call sites and group key kernels of ``group_by`` over
        ``layout``.  Under the batched route a key that calls an
        expensive function sends each distinct argument tuple to it
        once, as a SELECT item does."""
        sites, compiler = [], self._compiler(layout)
        if self._udf_batch_size is not None and any(
            map(self._is_expensive, group_by)
        ):
            sites, compiler = plan_batched_expressions(
                group_by, layout, self._functions, self, self._cascade()
            )
        return sites, [compiler.kernel(expr) for expr in group_by]

    # ------------------------------------------------------------------
    # projection / ORDER BY / DISTINCT
    # ------------------------------------------------------------------

    def _plan_projection_and_order(
        self,
        source: physical.PlanNode,
        items: list[ast.SelectItem],
        order_items: list[Ordering],
        distinct: bool,
    ) -> tuple[physical.PlanNode, list[str]]:
        names = [
            item.alias or ast.expression_name(item.expression)
            for item in items
        ]
        if self._arrives_ordered(source, items, order_items):
            order_items = []

        # ORDER BY may name an output column or sort by any expression
        # over the pre-projection layout; extend the projection with
        # the extra expressions, sort, then slice back.
        sort_positions: list[int] = []
        ascending: list[bool] = []
        extra_expressions: list[ast.Expression] = []
        extra_names: list[str] = []
        for order in order_items:
            position = self._order_target(order, items)
            if position is not None:
                sort_positions.append(position)
            else:
                sort_positions.append(len(items) + len(extra_expressions))
                extra_expressions.append(order.expression)
                extra_names.append(
                    ast.expression_name(order.expression)
                )
            ascending.append(order.ascending)

        expressions = [
            item.expression for item in items
        ] + extra_expressions
        layout = RowLayout(
            [(None, name) for name in names + extra_names]
        )
        plan = self._build_projection(source, expressions, layout)
        if sort_positions:
            keys = [read_column(position) for position in sort_positions]
            plan = physical.Sort(plan, keys, ascending)
        if extra_expressions:
            plan = physical.Slice(plan, list(range(len(items))))
        if distinct:
            plan = physical.Distinct(plan)
        return plan, names

    def _arrives_ordered(
        self,
        source: physical.PlanNode,
        items: list[ast.SelectItem],
        order_items: list[Ordering],
    ) -> bool:
        """Whether ``ORDER BY`` asks for what a range scan can emit.

        True when the rows come from an :class:`~repro.db.plan.IndexRange`
        through nothing but filters and the only sort key is the
        scanned column, ascending.  The scan is then switched to key
        order: ascending (key, row id), which is the order Sort's
        (key, input position) gives the same rows, so no Sort is needed.
        """
        if len(order_items) != 1 or not order_items[0].ascending:
            return False
        scan = source
        while isinstance(scan, physical.Filter):
            scan = scan.child
        if not isinstance(scan, physical.IndexRange):
            return False
        order = order_items[0]
        key = order.expression
        position = self._order_target(order, items)
        if position is not None:
            key = items[position].expression
        owner = getattr(key, "owner", None)
        if not (
            self._column_of(key, scan.layout) is not None
            and owner.index  # type: ignore[union-attr]
            == scan.table.schema.column_index(scan.column)
        ):
            return False
        scan.key_order = True
        return True

    def _build_projection(
        self,
        source: physical.PlanNode,
        expressions: list[ast.Expression],
        layout: RowLayout,
    ) -> physical.PlanNode:
        """Project ``expressions``, batching expensive UDFs when enabled."""
        plan = self._shard_projection(source, expressions, layout)
        if plan is None:
            plan = self._batched_projection(source, expressions, layout)
        if plan is not None:
            return plan
        if all(isinstance(item, ast.ColumnRef) for item in expressions):
            positions = [slot(source.layout, item) for item in expressions]
            return physical.Project(source, [], layout, positions)
        compiler = self._compiler(source.layout)
        return physical.Project(
            source,
            [compiler.kernel(expression) for expression in expressions],
            layout,
        )

    def _batched_projection(
        self,
        source: physical.PlanNode,
        expressions: list[ast.Expression],
        layout: RowLayout,
        context: "physical.MorselContext | None" = None,
        ordinal: int = 0,
    ) -> physical.PlanNode | None:
        """A morsel projection over ``source``, or None when batching
        is off or no expression has a strict expensive call.

        All projected expressions (SELECT items plus extra ORDER BY
        expressions) share one call-site pool, so an LM call repeated
        across items resolves once per distinct argument tuple.
        ``context`` and ``ordinal`` are as for :meth:`_expensive_filter`.
        """
        if self._udf_batch_size is None or not any(
            self._functions.contains_expensive(expression)
            for expression in expressions
        ):
            return None
        sites, compiler = plan_batched_expressions(
            expressions,
            source.layout,
            self._functions,
            self,
            cascade=self._cascade(),
        )
        if not sites:
            return None
        self.reusable = False
        return physical.Project(
            source,
            [compiler.kernel(expression) for expression in expressions],
            layout,
            sites=sites,
            context=context or self._udf_exec_context(),
            batch_size=self._udf_batch_size,
            ordinal=ordinal,
        )

    def _order_target(
        self, order: Ordering, items: list[ast.SelectItem]
    ) -> int | None:
        """The output column ``order`` sorts by: the one it names, or
        the first item whose expression it equals."""
        if order.target is not None:
            return order.target
        for position, item in enumerate(items):
            if item.expression == order.expression:
                return position
        return None

    def _apply_limit(
        self,
        plan: physical.PlanNode,
        limit: ast.Expression | None,
        offset: ast.Expression | None,
    ) -> physical.PlanNode:
        if limit is None and offset is None:
            return plan
        limit_value = self._constant_int(limit, "LIMIT")
        offset_value = self._constant_int(offset, "OFFSET") or 0
        if limit_value is not None and limit_value < 0:
            limit_value = None  # LIMIT -1 means no limit (SQLite)
        top = plan.child if isinstance(plan, physical.Slice) else plan
        if isinstance(top, physical.Sort) and limit_value is not None:
            top.bound = limit_value + max(offset_value, 0)
        return physical.Limit(plan, limit_value, offset_value)

    def _constant_int(
        self, expression: ast.Expression | None, what: str
    ) -> int | None:
        if expression is None:
            return None
        compiler = self._compiler(RowLayout([]))
        value = compiler.compile(expression)(())
        if not isinstance(value, int) or isinstance(value, bool):
            raise PlanningError(f"{what} must be an integer constant")
        return value

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _compiler(self, layout: RowLayout) -> ExpressionCompiler:
        return ExpressionCompiler(layout, self._functions, self)

    def _resolution(self, select: ast.Select) -> Resolved:
        """``select``'s resolution: the statement's or a nested one's,
        or, for a nested SELECT of a statement planned from its kept
        owners, one derived from those."""
        found = self._resolved.of(select)
        return found or rebound(self._functions, select)

    def _column_of(
        self, ref: ast.Expression, layout: RowLayout
    ) -> str | None:
        """``ref``'s name, when it is a column of a source ``layout``
        holds."""
        if isinstance(ref, ast.ColumnRef) and self._reads_only(ref, layout):
            return ref.name
        return None

    def _reads_only(
        self, expression: ast.Expression, layout: RowLayout
    ) -> bool:
        """Whether every column ``expression`` reads comes from a source
        ``layout`` holds (a subquery's columns are its own)."""
        kind = type(expression)
        if kind is ast.ColumnRef:
            owner = expression.owner  # type: ignore[union-attr]
            return type(owner) is Column and owner.key in layout.slots
        if kind is ast.Star:
            return False
        return all(
            self._reads_only(child, layout)
            for child in ast.children(expression)
            if not isinstance(child, ast.Select)
        )

    def _is_expensive(self, expression: ast.Expression) -> bool:
        """Whether ``expression`` calls an expensive function; never, and
        no tree is walked, when the statement has no such call site."""
        return bool(self._resolved.sites) and (
            self._functions.contains_expensive(expression)
        )


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def _probe_matches_filter(
    table: Table, column: str, value: dbtypes.SQLValue
) -> bool:
    """Would an index probe for ``value`` select what a Filter selects?

    The probe coerces its key to the column's type; a Filter compares
    the literal as written.  They agree only when coercion succeeds and
    leaves the literal equal to itself under :func:`types.compare`
    (``3.0`` on an INTEGER column, not ``'3'``, ``2.5`` or ``'abc'``);
    otherwise the conjunct stays a Filter: the answer, and the absence
    of a coercion error, that the statement gets without the index.
    """
    try:
        key = dbtypes.coerce(value, table.schema.column(column).dtype)
    except SchemaError:
        return False
    return dbtypes.compare(value, key) == 0


def _split_conjuncts(
    expression: ast.Expression | None,
) -> list[ast.Expression]:
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(
            expression.right
        )
    return [expression]


def _and_all(conjuncts: list[ast.Expression]) -> ast.Expression:
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("AND", combined, conjunct)
    return combined
