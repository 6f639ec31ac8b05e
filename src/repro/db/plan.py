"""Physical query plan operators (Volcano-style iterators).

The planner compiles expressions at build time, so operators hold plain
callables and iterate tuples.  Each operator exposes its output
:class:`~repro.db.result.RowLayout` and an ``execute()`` generator, plus
an ``explain()`` line used by tests and diagnostics.
"""

from __future__ import annotations

import heapq
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice
from operator import itemgetter

from repro.db.expr import (
    Evaluator,
    MemoKey,
    UDFCallError,
    UDFCallSite,
    is_true,
)
from repro.db.functions import AggregateSpec
from repro.db.result import Row, RowLayout
from repro.db.shard import (
    PartitionSpec,
    ShardContext,
    ShardDedup,
    ShardRowError,
    ShardRuntime,
    merge_cache_events,
    next_shard_thread_name,
)
from repro.db.table import Table
from repro.db.types import SQLValue, sort_key
from repro.db.udfcache import UDFMemoCache
from repro.errors import ExecutionError
from repro.obs import racecheck


class PlanNode:
    """Base class for plan operators."""

    layout: RowLayout

    def execute(self) -> Iterator[Row]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        lines = ["  " * depth + self._describe()]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """This node's one-line ``explain()`` label (public surface for
        diagnostics layers like :mod:`repro.obs.explain`)."""
        return self._describe()

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["PlanNode"]:
        return []


def _stored_layout(table: Table, binding: str) -> RowLayout:
    """Layout of a stored table's rows under a binding (alias)."""
    return RowLayout(
        [(binding, name) for name in table.schema.column_names]
    )


class Scan(PlanNode):
    """Full scan of a stored table under a binding (alias)."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.layout = _stored_layout(table, binding)

    def execute(self) -> Iterator[Row]:
        yield from self.table

    def _describe(self) -> str:
        return f"Scan({self.table.schema.name} AS {self.binding})"


class IndexLookup(PlanNode):
    """Point lookup via a table's hash index (``col = literal``)."""

    def __init__(self, table: Table, binding: str, column: str, value: SQLValue):
        self.table = table
        self.binding = binding
        self.column = column
        self.value = value
        self.layout = _stored_layout(table, binding)

    def row_ids(self) -> list[int]:
        """Ascending ids of the rows this node emits."""
        return self.table.lookup_ids(self.column, self.value)

    def execute(self) -> Iterator[Row]:
        yield from self.table.lookup(self.column, self.value)

    def _describe(self) -> str:
        return (
            f"IndexLookup({self.table.schema.name} AS {self.binding}, "
            f"{self.column} = {self.value!r})"
        )


class IndexRange(PlanNode):
    """Range scan via a table's ordered index (``col BETWEEN a AND b``,
    ``col < a``, ...).

    Bounds are the literals as written (``None`` = open) and are
    compared through ``sort_key``, like the filter this node replaces,
    so it selects that filter's rows whatever the literal's type.  Rows
    come out in scan order (ascending row id) unless the planner sets
    ``key_order`` because an ``ORDER BY`` on the column wants them
    ascending by (key, row id) and then needs no Sort.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        column: str,
        low: SQLValue,
        high: SQLValue,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> None:
        self.table = table
        self.binding = binding
        self.column = column
        self.low = low
        self.high = high
        self.low_strict = low_strict
        self.high_strict = high_strict
        self.key_order = False
        self.layout = _stored_layout(table, binding)

    def keys(self) -> list[SQLValue]:
        """The index keys inside the range, ascending."""
        return self.table.range_keys(
            self.column,
            self.low,
            self.high,
            self.low_strict,
            self.high_strict,
        )

    def row_ids(self) -> Iterable[int]:
        """Ids of the rows this node emits, in emission order."""
        buckets = self.table.index_buckets(self.column)
        ids = chain.from_iterable(buckets[key] for key in self.keys())
        return ids if self.key_order else sorted(ids)

    def execute(self) -> Iterator[Row]:
        rows = self.table.rows
        for row_id in self.row_ids():
            yield rows[row_id]

    def _describe(self) -> str:
        bounds = []
        if self.low is not None:
            op = ">" if self.low_strict else ">="
            bounds.append(f"{self.column} {op} {self.low!r}")
        if self.high is not None:
            op = "<" if self.high_strict else "<="
            bounds.append(f"{self.column} {op} {self.high!r}")
        order = ", key order" if self.key_order else ""
        return (
            f"IndexRange({self.table.schema.name} AS {self.binding}, "
            f"{' AND '.join(bounds)}{order})"
        )


class Filter(PlanNode):
    def __init__(
        self, child: PlanNode, predicate: Evaluator, label: str = ""
    ) -> None:
        self.child = child
        self.predicate = predicate
        self.label = label
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.execute():
            if is_true(predicate(row)):
                yield row

    def _describe(self) -> str:
        return f"Filter({self.label})" if self.label else "Filter"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Project(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        evaluators: list[Evaluator],
        layout: RowLayout,
    ) -> None:
        self.child = child
        self.evaluators = evaluators
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        evaluators = self.evaluators
        for row in self.child.execute():
            yield tuple(evaluate(row) for evaluate in evaluators)

    def _describe(self) -> str:
        return f"Project({', '.join(self.layout.names)})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class UDFExecContext:
    """Shared execution context for the batched UDF operators.

    Carries the :class:`~repro.db.Database`'s cross-statement memo
    cache plus optional mirrors: a :class:`~repro.lm.usage.Usage`
    (its ``udf_cache_hits``/``udf_cache_misses`` fields) and a metrics
    registry (duck-typed ``counter(name).inc(n)``).  Each operator owns
    an ``exec_stats`` dict surfaced by EXPLAIN ANALYZE; :meth:`tally`
    is the single meter — every increment lands in the operator's
    stats and is mirrored to the bound sinks, so the three surfaces can
    never disagree.
    """

    #: Metric name per exec-stats key (only cache traffic and cascade
    #: routing are exported; LM calls/batches are already metered by
    #: the model's own Usage).
    _METRIC_NAMES = {
        "udf_cache_hits": "repro_udf_cache_hits_total",
        "udf_cache_misses": "repro_udf_cache_misses_total",
        "cascade_cheap_hits": "repro_cascade_cheap_hits_total",
        "cascade_escalations": "repro_cascade_escalations_total",
    }
    _USAGE_FIELDS = (
        "udf_cache_hits",
        "udf_cache_misses",
        "cascade_cheap_hits",
        "cascade_escalations",
    )

    def __init__(
        self,
        cache: UDFMemoCache | None = None,
        usage: object | None = None,
        metrics: object | None = None,
    ) -> None:
        self.cache = cache
        self.usage = usage
        self.metrics = metrics

    def tally(self, stats: dict[str, int], key: str, amount: int) -> None:
        if amount == 0:
            return
        stats[key] = stats.get(key, 0) + amount
        if self.usage is not None and key in self._USAGE_FIELDS:
            setattr(self.usage, key, getattr(self.usage, key) + amount)
        if self.metrics is not None:
            metric = self._METRIC_NAMES.get(key)
            if metric is not None:
                self.metrics.counter(metric).inc(amount)


def _fresh_exec_stats(
    sites: list[UDFCallSite] | None = None,
) -> dict[str, int]:
    """Pre-seeded so EXPLAIN ANALYZE renders a fixed, complete key order.

    Cascade keys appear only when a site actually carries a cheap tier,
    so non-cascade plans render exactly as before.
    """
    stats = {
        "lm_calls": 0,
        "lm_batches": 0,
        "udf_cache_hits": 0,
        "udf_cache_misses": 0,
    }
    if sites is not None and any(
        site.cheap_function is not None for site in sites
    ):
        stats["cascade_cheap_hits"] = 0
        stats["cascade_escalations"] = 0
    return stats


def _cheap_tier_answers(
    site: UDFCallSite, pending: list[MemoKey]
) -> list[object]:
    """Run the cascade's cheap tier over ``pending`` argument tuples.

    Returns one answer per tuple; ``None`` means "escalate to the
    expensive tier".  Any cheap-tier failure — a batch dispatch error,
    a wrong-length batch result, or a per-tuple exception — degrades to
    escalation, so an unsound-by-crashing cheap tier costs money, not
    correctness.
    """
    tuples = [key[1] for key in pending]
    if site.cheap_batch is not None:
        try:
            answers = list(site.cheap_batch(tuples))
        except Exception:
            answers = None
        if answers is not None and len(answers) == len(tuples):
            return answers
    answers = []
    for args in tuples:
        try:
            answers.append(site.cheap_function(*args))
        except Exception:
            answers.append(None)
    return answers


def _resolve_morsel(
    sites: list[UDFCallSite],
    rows: list[Row],
    context: UDFExecContext,
    stats: dict[str, int],
) -> None:
    """Resolve every strict UDF call for a morsel of rows, in waves.

    Sites arrive inner-before-outer, so by the time an outer site's
    argument evaluators run, any nested call they read is already
    memoized.  Per site: evaluate each row's argument tuple (rows whose
    arguments error are skipped — the residual phase re-raises the same
    error at the same row), serve duplicates and cache hits for free,
    then dispatch the remaining distinct tuples as one batch call (or
    per-tuple scalar calls when no batch form is registered or the
    batch dispatch fails).

    Counter contract: ``udf_cache_hits`` counts row-occurrences served
    without a new invocation (statement memo, cross-statement LRU, or
    intra-morsel dedup); ``udf_cache_misses`` and ``lm_calls`` count
    dispatched invocations; ``lm_batches`` counts batch dispatches.
    """
    for site in sites:
        pending: list[MemoKey] = []
        pending_keys: set[MemoKey] = set()
        hits = 0
        for row in rows:
            try:
                key = site.key(row)
            except Exception:
                continue  # argument error; re-raised per row later
            if key in site.memo or key in pending_keys:
                hits += 1
                continue
            if context.cache is not None:
                found, value = context.cache.lookup(key)
                if found:
                    site.memo[key] = value
                    hits += 1
                    continue
            pending_keys.add(key)
            pending.append(key)
        context.tally(stats, "udf_cache_hits", hits)
        if pending and site.cheap_function is not None:
            # Cascade route: the cheap classifier tier answers what it
            # can; only declined tuples reach the expensive dispatch.
            # Cheap answers are real results (contract: the cheap tier
            # agrees with the expensive form), so they are memoized and
            # cached exactly like expensive ones.
            answers = _cheap_tier_answers(site, pending)
            escalated: list[MemoKey] = []
            cheap_hits = 0
            for key, answer in zip(pending, answers):
                if answer is None:
                    escalated.append(key)
                    continue
                site.memo[key] = answer
                if context.cache is not None:
                    context.cache.put(key, answer)
                cheap_hits += 1
            context.tally(stats, "cascade_cheap_hits", cheap_hits)
            context.tally(stats, "cascade_escalations", len(escalated))
            pending = escalated
        if not pending:
            continue
        context.tally(stats, "udf_cache_misses", len(pending))
        context.tally(stats, "lm_calls", len(pending))
        resolved: list[SQLValue] | None = None
        if site.batch_function is not None:
            context.tally(stats, "lm_batches", 1)
            try:
                resolved = list(
                    site.batch_function([key[1] for key in pending])
                )
            except Exception:
                # Fall back to per-tuple scalar calls so each failing
                # tuple is attributed (and wrapped) exactly as the
                # per-row oracle path would attribute it.
                resolved = None
            else:
                if len(resolved) != len(pending):
                    raise ExecutionError(
                        f"batch form of {site.name} returned "
                        f"{len(resolved)} results for {len(pending)} "
                        "argument tuples"
                    )
        if resolved is not None:
            for key, value in zip(pending, resolved):
                site.memo[key] = value
                if context.cache is not None:
                    context.cache.put(key, value)
        else:
            for key in pending:
                value = site.call_scalar(key[1])
                site.memo[key] = value
                if context.cache is not None and not isinstance(
                    value, UDFCallError
                ):
                    context.cache.put(key, value)


class BatchedFilter(PlanNode):
    """Filter with vectorized expensive-UDF resolution.

    Pulls morsels of ``batch_size`` rows, resolves every strict
    expensive call through :func:`_resolve_morsel`, then applies the
    residual predicate per row — identical rows, order, and error
    behaviour to :class:`Filter` over the same predicate.
    """

    def __init__(
        self,
        child: PlanNode,
        predicate: Evaluator,
        sites: list[UDFCallSite],
        context: UDFExecContext,
        batch_size: int,
        label: str = "",
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.predicate = predicate
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.label = label
        self.layout = child.layout
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            _resolve_morsel(
                self.sites, morsel, self.context, self.exec_stats
            )
            for row in morsel:
                if is_true(predicate(row)):
                    yield row

    def _describe(self) -> str:
        label = f"{self.label}, " if self.label else ""
        return (
            f"BatchedFilter({label}batch={self.batch_size}, "
            f"sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class BatchedProject(PlanNode):
    """Project with vectorized expensive-UDF resolution (see
    :class:`BatchedFilter`)."""

    def __init__(
        self,
        child: PlanNode,
        evaluators: list[Evaluator],
        layout: RowLayout,
        sites: list[UDFCallSite],
        context: UDFExecContext,
        batch_size: int,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.evaluators = evaluators
        self.layout = layout
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        evaluators = self.evaluators
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            _resolve_morsel(
                self.sites, morsel, self.context, self.exec_stats
            )
            for row in morsel:
                yield tuple(evaluate(row) for evaluate in evaluators)

    def _describe(self) -> str:
        return (
            f"BatchedProject({', '.join(self.layout.names)}, "
            f"batch={self.batch_size}, sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Slice(PlanNode):
    """Keeps a subset of positions from the child row (column pruning)."""

    def __init__(self, child: PlanNode, positions: list[int]) -> None:
        self.child = child
        self.positions = positions
        self.layout = RowLayout(
            [child.layout.entries[position] for position in positions]
        )

    def execute(self) -> Iterator[Row]:
        positions = self.positions
        for row in self.child.execute():
            yield tuple(row[position] for position in positions)

    def _describe(self) -> str:
        return f"Slice({self.positions})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class NestedLoopJoin(PlanNode):
    """General join; materialises the right side once."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Evaluator | None,
        kind: str,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.layout = RowLayout.concat(left.layout, right.layout)

    def execute(self) -> Iterator[Row]:
        right_rows = list(self.right.execute())
        null_right = (None,) * len(self.right.layout)
        condition = self.condition
        for left_row in self.left.execute():
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if condition is None or is_true(condition(combined)):
                    matched = True
                    yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + null_right

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class HashJoin(PlanNode):
    """Equi-join: builds a hash table on the right side.

    ``residual`` (if any) is evaluated over the combined row for extra
    non-equi conjuncts of the ON clause.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[Evaluator],
        right_keys: list[Evaluator],
        kind: str,
        residual: Evaluator | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind
        self.residual = residual
        self.layout = RowLayout.concat(left.layout, right.layout)

    def execute(self) -> Iterator[Row]:
        buckets: dict[tuple[SQLValue, ...], list[Row]] = defaultdict(list)
        for right_row in self.right.execute():
            key = tuple(evaluate(right_row) for evaluate in self.right_keys)
            if any(part is None for part in key):
                continue  # NULL keys never match in an equi-join
            buckets[key].append(right_row)
        null_right = (None,) * len(self.right.layout)
        residual = self.residual
        for left_row in self.left.execute():
            key = tuple(evaluate(left_row) for evaluate in self.left_keys)
            matched = False
            if not any(part is None for part in key):
                for right_row in buckets.get(key, ()):
                    combined = left_row + right_row
                    if residual is None or is_true(residual(combined)):
                        matched = True
                        yield combined
            if self.kind == "LEFT" and not matched:
                yield left_row + null_right

    def _describe(self) -> str:
        return f"HashJoin({self.kind}, {len(self.left_keys)} key(s))"

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class IndexJoin(PlanNode):
    """INNER single-key equi-join that probes a stored table's index.

    The planner's replacement for a :class:`HashJoin` one of whose
    inputs is a bare scan of a table indexed on the join key while the
    other (``child``, the outer input) is small: each outer row's key
    is looked up in the index buckets as it is, with no coercion, so a
    key matches exactly the rows the hash table would have matched.
    Rows come out in the hash join's order, left-major: when the probed
    table is the left input the matches are sorted by its row id (then
    outer position) first.
    """

    def __init__(
        self,
        child: PlanNode,
        key: Evaluator,
        table: Table,
        binding: str,
        column: str,
        table_is_left: bool,
        residual: Evaluator | None = None,
    ) -> None:
        self.child = child
        self.key = key
        self.table = table
        self.binding = binding
        self.column = column
        self.table_is_left = table_is_left
        self.residual = residual
        probed = _stored_layout(table, binding)
        self.layout = (
            RowLayout.concat(probed, child.layout)
            if table_is_left
            else RowLayout.concat(child.layout, probed)
        )

    def execute(self) -> Iterator[Row]:
        residual = self.residual
        for row in self._matches():
            if residual is None or is_true(residual(row)):
                yield row

    def _matches(self) -> Iterator[Row]:
        """Key-matched combined rows, in the hash join's order."""
        buckets = self.table.index_buckets(self.column)
        rows = self.table.rows
        key = self.key
        if not self.table_is_left:
            for outer_row in self.child.execute():
                value = key(outer_row)
                if value is not None:  # NULL keys never match
                    for row_id in buckets.get(value, ()):
                        yield outer_row + rows[row_id]
            return
        outer = list(self.child.execute())
        matches: list[tuple[int, int]] = []
        for position, outer_row in enumerate(outer):
            value = key(outer_row)
            if value is not None:
                matches.extend(
                    (row_id, position) for row_id in buckets.get(value, ())
                )
        matches.sort()
        for row_id, position in matches:
            yield rows[row_id] + outer[position]

    def _describe(self) -> str:
        side = "left" if self.table_is_left else "right"
        return (
            f"IndexJoin(INNER, {side} {self.table.schema.name} AS "
            f"{self.binding} ON {self.column})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class AggregateCall:
    """One compiled aggregate invocation within an Aggregate node."""

    def __init__(
        self,
        spec: AggregateSpec,
        argument: Evaluator | None,  # None means COUNT(*)
        distinct: bool,
        name: str,
    ) -> None:
        self.spec = spec
        self.argument = argument
        self.distinct = distinct
        self.name = name


class Aggregate(PlanNode):
    """Hash aggregation over optional group keys.

    Output layout: one column per group key (named by the planner)
    followed by one column per aggregate call.  With no group keys the
    node always emits exactly one row, even over empty input (SQL
    semantics: ``SELECT COUNT(*) FROM empty`` is 0).
    """

    def __init__(
        self,
        child: PlanNode,
        group_evaluators: list[Evaluator],
        calls: list[AggregateCall],
        layout: RowLayout,
    ) -> None:
        self.child = child
        self.group_evaluators = group_evaluators
        self.calls = calls
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        groups: dict[tuple[SQLValue, ...], list] = {}
        distinct_seen: dict[tuple[SQLValue, ...], list[set]] = {}
        order: list[tuple[SQLValue, ...]] = []
        for row in self.child.execute():
            key = tuple(
                evaluate(row) for evaluate in self.group_evaluators
            )
            if key not in groups:
                groups[key] = [call.spec.make_state() for call in self.calls]
                distinct_seen[key] = [set() for _ in self.calls]
                order.append(key)
            states = groups[key]
            seen_sets = distinct_seen[key]
            for position, call in enumerate(self.calls):
                if call.argument is None:
                    value: SQLValue = 1  # COUNT(*) counts every row
                else:
                    value = call.argument(row)
                if call.distinct:
                    if value is None or value in seen_sets[position]:
                        continue
                    seen_sets[position].add(value)
                states[position] = call.spec.step(states[position], value)
        if not self.group_evaluators and not order:
            key = ()
            groups[key] = [call.spec.make_state() for call in self.calls]
            order.append(key)
        for key in order:
            states = groups[key]
            finals = tuple(
                call.spec.finish(state)
                for call, state in zip(self.calls, states)
            )
            yield key + finals

    def _describe(self) -> str:
        names = ", ".join(call.name for call in self.calls)
        return (
            f"Aggregate(groups={len(self.group_evaluators)}, "
            f"calls=[{names}])"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class _Descending:
    """Inverts the ordering of one :func:`sort_key` part (DESC keys)."""

    __slots__ = ("part",)

    def __init__(self, part: tuple) -> None:
        self.part = part

    def __lt__(self, other: "_Descending") -> bool:
        return other.part < self.part

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Descending) and self.part == other.part
        )


class Sort(PlanNode):
    """ORDER BY as an explicit *total* order.

    The composite key is ``(key parts..., input position)``: every key
    part goes through :func:`~repro.db.types.sort_key` (NULLs rank
    lowest, so they sort first under ASC and last under DESC), DESC
    parts are wrapped in a comparison-inverting shim rather than
    handled by a separate reversed pass, and the original input
    position breaks all remaining ties.  No two rows ever compare
    equal, so the output order — and anything built on it, notably
    ``LIMIT`` under duplicate key values — is reproducible by
    construction rather than by accident of sort stability.

    Equivalent to the previous stable right-to-left multi-pass sort
    (stability there *was* the input-position tie-break, implicitly),
    but the contract is now explicit and single-pass.

    ``bound`` is set by the planner when a ``LIMIT`` sits directly
    above: only the first ``bound`` rows of the order are wanted, so a
    heap of that size replaces the full sort.  The order is total, so
    the bounded output is a prefix of the unbounded one.
    """

    def __init__(
        self,
        child: PlanNode,
        keys: list[Evaluator],
        ascending: list[bool],
    ) -> None:
        self.child = child
        self.keys = keys
        self.ascending = ascending
        self.bound: int | None = None
        self.layout = child.layout

    def _decorated(self) -> Iterator[tuple[tuple, Row]]:
        directed = list(zip(self.keys, self.ascending))
        for position, row in enumerate(self.child.execute()):
            parts: list[object] = []
            for evaluate, ascending in directed:
                part = sort_key(evaluate(row))
                parts.append(part if ascending else _Descending(part))
            parts.append(position)
            yield tuple(parts), row

    def execute(self) -> Iterator[Row]:
        # A bound of 0 sorts in full: nsmallest(0, ...) would not pull
        # the child at all, and every input row must still be evaluated.
        if self.bound:
            ordered = heapq.nsmallest(
                self.bound, self._decorated(), key=itemgetter(0)
            )
        else:
            ordered = sorted(self._decorated(), key=itemgetter(0))
        for _, row in ordered:
            yield row

    def _describe(self) -> str:
        return f"Sort({len(self.keys)} key(s))"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Limit(PlanNode):
    def __init__(
        self, child: PlanNode, limit: int | None, offset: int
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in self.child.execute():
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

    def _describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Distinct(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.child.execute():
            if row not in seen:
                seen.add(row)
                yield row

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Values(PlanNode):
    """Constant rows (used for FROM-less SELECT)."""

    def __init__(self, rows: list[Row], layout: RowLayout) -> None:
        self.rows = rows
        self.layout = layout

    def execute(self) -> Iterator[Row]:
        yield from self.rows

    def _describe(self) -> str:
        return f"Values({len(self.rows)} row(s))"


# ---------------------------------------------------------------------------
# Sharded execution (exchange-style parallelism over partitioned tables)
#
# A shardable WHERE region is planned as N per-shard pipelines under one
# Exchange:
#
#     Merge                      <- strips the tag, restores scan layout
#       Exchange(shards=N)       <- runs pipelines on threads, k-way merge
#         ShardScan -> [ShardFilter] -> [ShardBatchedFilter...] (x N)
#
# Every shard row carries one trailing *tag*: the row's global id in the
# table's insertion order.  Tags make the merged output order — and
# therefore Sort's input-position tie-break, LIMIT under duplicates, and
# which row an error surfaces at — a pure function of the data,
# independent of shard count, worker count, and thread timing.
# ---------------------------------------------------------------------------


class ShardScan(PlanNode):
    """Scan of one partition, yielding rows tagged with global row ids.

    The advertised ``layout`` is the *untagged* scan layout: evaluators
    compiled against it index positions strictly below the tag, so they
    run unchanged on tagged tuples.  :class:`Merge` strips the tag
    before anything above the exchange sees a row.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        spec: PartitionSpec,
        shard_id: int,
    ) -> None:
        self.table = table
        self.binding = binding
        self.spec = spec
        self.shard_id = shard_id
        self.layout = _stored_layout(table, binding)

    def execute(self) -> Iterator[Row]:
        rows = self.table.rows
        for row_id in self.table.partition_row_ids()[self.shard_id]:
            yield rows[row_id] + (row_id,)

    def _describe(self) -> str:
        return (
            f"ShardScan({self.table.schema.name} AS {self.binding}, "
            f"{self.spec.describe()}, shard={self.shard_id})"
        )


class ShardFilter(PlanNode):
    """Cheap filter inside a shard pipeline; tags per-row failures."""

    def __init__(
        self, child: PlanNode, predicate: Evaluator, label: str = ""
    ) -> None:
        self.child = child
        self.predicate = predicate
        self.label = label
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.execute():
            try:
                keep = is_true(predicate(row))
            except Exception as exc:
                raise ShardRowError(row[-1], exc) from exc
            if keep:
                yield row

    def _describe(self) -> str:
        return (
            f"ShardFilter({self.label})" if self.label else "ShardFilter"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


def _dispatch_owned(
    site: UDFCallSite,
    owned: list[tuple[MemoKey, object]],
    context: ShardContext,
    stats: dict[str, int],
    ordinal: int,
    site_idx: int,
    first_tag: dict[MemoKey, int],
) -> None:
    """The unsharded dispatch tail over the keys this shard owns.

    Mirrors :func:`_resolve_morsel` exactly — cascade cheap tier, then
    one batch dispatch (or per-tuple scalar fallback) — but resolves
    each key's rendezvous slot as its value lands, and records cache
    events instead of touching the live cache.
    """
    pending = [key for key, _ in owned]
    slots = {key: slot for key, slot in owned}
    dedup = context.dedup
    if pending and site.cheap_function is not None:
        answers = _cheap_tier_answers(site, pending)
        escalated: list[MemoKey] = []
        cheap_hits = 0
        for key, answer in zip(pending, answers):
            if answer is None:
                escalated.append(key)
                continue
            site.memo[key] = answer
            context.record_new(
                ordinal, site_idx, key, first_tag[key], answer
            )
            dedup.resolve(slots[key], answer)
            cheap_hits += 1
        context.tally(stats, "cascade_cheap_hits", cheap_hits)
        context.tally(stats, "cascade_escalations", len(escalated))
        pending = escalated
    if not pending:
        return
    context.tally(stats, "udf_cache_misses", len(pending))
    context.tally(stats, "lm_calls", len(pending))
    resolved: list[SQLValue] | None = None
    if site.batch_function is not None:
        context.tally(stats, "lm_batches", 1)
        try:
            resolved = list(
                site.batch_function([key[1] for key in pending])
            )
        except Exception:
            resolved = None
        else:
            if len(resolved) != len(pending):
                raise ExecutionError(
                    f"batch form of {site.name} returned "
                    f"{len(resolved)} results for {len(pending)} "
                    "argument tuples"
                )
    if resolved is not None:
        for key, value in zip(pending, resolved):
            site.memo[key] = value
            context.record_new(
                ordinal, site_idx, key, first_tag[key], value
            )
            dedup.resolve(slots[key], value)
    else:
        for key in pending:
            value = site.call_scalar(key[1])
            site.memo[key] = value
            if not isinstance(value, UDFCallError):
                context.record_new(
                    ordinal, site_idx, key, first_tag[key], value
                )
            dedup.resolve(slots[key], value)


def _resolve_morsel_sharded(
    sites: list[UDFCallSite],
    rows: list[Row],
    context: ShardContext,
    stats: dict[str, int],
    ordinal: int,
) -> None:
    """Shard-parallel twin of :func:`_resolve_morsel` over tagged rows.

    Differences from the unsharded resolver, and nothing else:

    * cache reads come from the statement-start snapshot (via
      ``context``), and cache effects are *recorded* for the post-join
      replay instead of applied;
    * keys not served by memo or snapshot go through the cross-shard
      :class:`~repro.db.shard.ShardDedup` — the first shard to claim a
      key dispatches it, the rest wait (session parked) and memoize the
      owner's result as a cache hit, so the dispatched set is identical
      at every shard count;
    * owners resolve their own keys *before* waiting on anyone else's
      (wait-free progress), and abort-resolve them with a parked
      :class:`~repro.db.expr.UDFCallError` on a dispatch-level failure
      so cross-shard waiters can never hang.
    """
    for site_idx, site in enumerate(sites):
        pending: list[MemoKey] = []
        pending_keys: set[MemoKey] = set()
        first_tag: dict[MemoKey, int] = {}
        hits = 0
        for row in rows:
            try:
                key = site.key(row)
            except Exception:
                continue  # argument error; re-raised per row later
            if key not in first_tag:
                first_tag[key] = row[-1]
            if key in site.memo or key in pending_keys:
                hits += 1
                continue
            found, value = context.snapshot_lookup(key)
            if found:
                site.memo[key] = value
                context.record_hit(
                    ordinal, site_idx, key, first_tag[key]
                )
                hits += 1
                continue
            pending_keys.add(key)
            pending.append(key)
        owned: list[tuple[MemoKey, object]] = []
        foreign: list[tuple[MemoKey, object]] = []
        dedup = context.dedup
        for key in pending:
            is_owner, slot = dedup.claim((ordinal, site_idx, key))
            if is_owner:
                owned.append((key, slot))
            else:
                foreign.append((key, slot))
        try:
            _dispatch_owned(
                site, owned, context, stats, ordinal, site_idx, first_tag
            )
        finally:
            # A dispatch-level error (e.g. a wrong-length batch result)
            # aborts this morsel; park the failure into any slot we
            # claimed but never filled so other shards' waiters wake.
            for key, slot in owned:
                if not slot.done:
                    dedup.resolve(
                        slot,
                        UDFCallError(
                            ExecutionError(
                                f"shard dispatch of {site.name} aborted"
                            )
                        ),
                    )
        for key, slot in foreign:
            value = dedup.wait(slot)
            site.memo[key] = value
            if not isinstance(value, UDFCallError):
                context.record_new(
                    ordinal, site_idx, key, first_tag[key], value
                )
            hits += 1
        context.tally(stats, "udf_cache_hits", hits)


class ShardBatchedFilter(PlanNode):
    """Batched-UDF filter inside a shard pipeline (tagged rows)."""

    def __init__(
        self,
        child: PlanNode,
        predicate: Evaluator,
        sites: list[UDFCallSite],
        context: ShardContext,
        batch_size: int,
        ordinal: int,
        label: str = "",
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.predicate = predicate
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.ordinal = ordinal
        self.label = label
        self.layout = child.layout
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        predicate = self.predicate
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            try:
                _resolve_morsel_sharded(
                    self.sites,
                    morsel,
                    self.context,
                    self.exec_stats,
                    self.ordinal,
                )
            except ShardRowError:
                raise
            except Exception as exc:
                raise ShardRowError(morsel[0][-1], exc) from exc
            for row in morsel:
                try:
                    keep = is_true(predicate(row))
                except Exception as exc:
                    raise ShardRowError(row[-1], exc) from exc
                if keep:
                    yield row

    def _describe(self) -> str:
        label = f"{self.label}, " if self.label else ""
        return (
            f"ShardBatchedFilter({label}batch={self.batch_size}, "
            f"sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class ShardBatchedProject(PlanNode):
    """Batched-UDF projection inside a shard pipeline.

    Projects each resolved row and re-appends its tag, so the merge
    above still sees globally ordered tuples.
    """

    def __init__(
        self,
        child: PlanNode,
        evaluators: list[Evaluator],
        layout: RowLayout,
        sites: list[UDFCallSite],
        context: ShardContext,
        batch_size: int,
        ordinal: int,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {batch_size}"
            )
        self.child = child
        self.evaluators = evaluators
        self.layout = layout
        self.sites = sites
        self.context = context
        self.batch_size = batch_size
        self.ordinal = ordinal
        self.exec_stats = _fresh_exec_stats(sites)

    def execute(self) -> Iterator[Row]:
        evaluators = self.evaluators
        source = self.child.execute()
        while True:
            morsel = list(islice(source, self.batch_size))
            if not morsel:
                return
            try:
                _resolve_morsel_sharded(
                    self.sites,
                    morsel,
                    self.context,
                    self.exec_stats,
                    self.ordinal,
                )
            except ShardRowError:
                raise
            except Exception as exc:
                raise ShardRowError(morsel[0][-1], exc) from exc
            for row in morsel:
                try:
                    projected = tuple(
                        evaluate(row) for evaluate in evaluators
                    )
                except Exception as exc:
                    raise ShardRowError(row[-1], exc) from exc
                yield projected + (row[-1],)

    def _describe(self) -> str:
        return (
            f"ShardBatchedProject({', '.join(self.layout.names)}, "
            f"batch={self.batch_size}, sites={len(self.sites)})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


def _shard_stat_nodes(pipeline: PlanNode) -> list[PlanNode]:
    """Stat-carrying nodes of one shard pipeline, in top-down order."""
    nodes: list[PlanNode] = []
    stack = [pipeline]
    while stack:
        node = stack.pop()
        if hasattr(node, "exec_stats"):
            nodes.append(node)
        stack.extend(reversed(node._children()))
    return nodes


class Exchange(PlanNode):
    """Runs per-shard pipelines on threads; merges tagged rows.

    Execution contract (the determinism spine of the whole feature):

    * shards run in waves of at most ``runtime.workers`` threads; a
      wave's LM sessions are opened on the caller's thread in shard
      order with orders derived from the caller's own session, so
      micro-batch composition is a pure function of the workload;
    * the caller's session is *parked* for the duration — it is
      waiting on the shards, not on its own LM call — otherwise the
      flush barrier the shards need could never complete;
    * shard threads buffer all Usage/metrics/cache effects; after the
      join the caller replays them in canonical order (shard order for
      tallies, plan-order-then-first-occurrence for cache events), so
      every shared counter is byte-identical at any shard/worker count;
    * rows are k-way merged by tag; on shard errors the rows strictly
      before the smallest error tag are yielded, then that error is
      re-raised — the same first-failing-row the unsharded order hits.

    Shards with UDF sites but no configured LM host run sequentially
    (still on spawned threads, so traces cannot tell the difference):
    concurrent bare calls into a SimulatedLM would accumulate its float
    meters in scheduling order.
    """

    def __init__(
        self,
        shards: list[PlanNode],
        contexts: list[ShardContext],
        context: UDFExecContext,
        runtime: ShardRuntime,
    ) -> None:
        if not shards:
            raise ExecutionError("Exchange requires at least one shard")
        self.shards = shards
        self.contexts = contexts
        self.context = context
        self.runtime = runtime
        self.layout = shards[0].layout
        self.exec_stats: dict[str, int] = {}
        #: Stable operator label for trace spans: span names must not
        #: leak the shard count (see repro.obs.explain).
        self.trace_describe = "Exchange"

    def execute(self) -> Iterator[Row]:
        sites = [
            site
            for node in _shard_stat_nodes(self.shards[0])
            for site in getattr(node, "sites", [])
        ]
        has_sites = bool(sites)
        if has_sites:
            for key, value in _fresh_exec_stats(sites).items():
                self.exec_stats.setdefault(key, value)
        lm = self.runtime.lm if has_sites else None
        snapshot: dict = {}
        if has_sites and self.context.cache is not None:
            snapshot = self.context.cache.snapshot()
        dedup = ShardDedup(lm)
        for shard_context in self.contexts:
            shard_context.begin(snapshot, dedup)
        count = len(self.shards)
        results: list[list[Row]] = [[] for _ in range(count)]
        errors: list[ShardRowError | None] = [None] * count
        if has_sites and lm is None:
            concurrency = 1
        else:
            concurrency = self.runtime.workers
        parent = lm.current_session() if lm is not None else None
        parked = lm.parked() if lm is not None else nullcontext()
        with parked:
            for start in range(0, count, concurrency):
                wave = list(range(start, min(start + concurrency, count)))
                sessions: dict[int, object] = {}
                if lm is not None:
                    for shard_id in wave:
                        order = None
                        if parent is not None:
                            order = (
                                (parent.order + 1) * 1_000_000 + shard_id
                            )
                        sessions[shard_id] = lm.open_session(order)
                threads: list[threading.Thread] = []
                for shard_id in wave:
                    name = next_shard_thread_name(shard_id)
                    thread = threading.Thread(
                        target=self._run_shard,
                        args=(
                            shard_id,
                            sessions.get(shard_id),
                            lm,
                            results,
                            errors,
                        ),
                        name=name,
                    )
                    racecheck.fork(name)
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join()
                    racecheck.join(thread.name)
        # Replay buffered effects on the caller's thread, in canonical
        # order: operator tallies shard by shard (mirroring Usage and
        # metrics through the real context), then cache events by call
        # site and global first occurrence.
        for shard_id, pipeline in enumerate(self.shards):
            racecheck.read(f"Exchange.shard.{shard_id}")
            for node in _shard_stat_nodes(pipeline):
                for key, amount in node.exec_stats.items():
                    self.context.tally(self.exec_stats, key, amount)
        if has_sites and self.context.cache is not None:
            for _site, kind, key, value in merge_cache_events(
                self.contexts
            ):
                if kind == "hit":
                    self.context.cache.lookup(key)
                else:
                    self.context.cache.put(key, value)
        first_error: ShardRowError | None = None
        for error in errors:
            if error is not None and (
                first_error is None or error.tag < first_error.tag
            ):
                first_error = error
        for row in heapq.merge(*results, key=lambda row: row[-1]):
            if first_error is not None and row[-1] >= first_error.tag:
                break
            yield row
        if first_error is not None:
            raise first_error.error

    def _run_shard(
        self,
        shard_id: int,
        session: object,
        lm: object,
        results: list[list[Row]],
        errors: list[ShardRowError | None],
    ) -> None:
        rows: list[Row] = []
        error: ShardRowError | None = None
        try:
            if session is not None:
                lm.bind(session)
            try:
                for row in self.shards[shard_id].execute():
                    rows.append(row)
            except ShardRowError as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 - tagged and re-raised
                error = ShardRowError(-1, exc)
        finally:
            if session is not None:
                lm.close_session(session)
            racecheck.write(f"Exchange.shard.{shard_id}")
            results[shard_id] = rows
            errors[shard_id] = error

    def _describe(self) -> str:
        return f"Exchange(shards={len(self.shards)})"

    def _children(self) -> list[PlanNode]:
        return list(self.shards)


class Merge(PlanNode):
    """Strips shard tags; output order is the global scan order."""

    def __init__(self, child: Exchange) -> None:
        self.child = child
        self.layout = child.layout
        self.trace_describe = "Merge"

    def execute(self) -> Iterator[Row]:
        for row in self.child.execute():
            yield row[:-1]

    def _describe(self) -> str:
        return "Merge"

    def _children(self) -> list[PlanNode]:
        return [self.child]
