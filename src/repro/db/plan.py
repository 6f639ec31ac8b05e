"""Physical query plan operators (Volcano-style iterators).

The planner compiles expressions at build time into kernels (see
:mod:`repro.db.expr`), so operators hold plain callables: each reads
its input a morsel at a time and evaluates every expression it holds
once per morsel.  Each operator exposes its output
:class:`~repro.db.result.RowLayout` and an ``execute()`` generator, plus
an ``explain()`` line used by tests and diagnostics.
"""

from __future__ import annotations

import heapq
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne, neg
from typing import TYPE_CHECKING, Protocol

from repro.db.expr import (
    Kernel,
    MemoKey,
    Predicate,
    UDFCallError,
    UDFCallSite,
    read_column,
    reads_row_by_row,
)
from repro.db.functions import COUNT_ROWS, AggregateSpec
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
from repro.db.stmtcache import LRUCache
from repro.db.table import Table
from repro.db.types import NUMBERS, TEXT, SQLValue, sort_key
from repro.errors import ExecutionError
from repro.obs import racecheck, trace

try:  # the max-heap calls heapq.nsmallest makes, public from 3.14
    from heapq import heapify_max as _heapify_max  # type: ignore[attr-defined]
    from heapq import heapreplace_max as _heapreplace_max  # type: ignore[attr-defined]
except ImportError:
    from heapq import _heapify_max, _heapreplace_max  # type: ignore[attr-defined]

if TYPE_CHECKING:  # pragma: no cover
    from repro.lm.usage import Usage


#: Rows per morsel: every operator that evaluates an expression reads
#: its input in lists of this many rows (of one, below a row limit or in
#: a plan that makes an unbatched LM call, see :func:`read_serially`).
MORSEL_SIZE = 2048


def _morsels(
    rows: Iterator[Row], size: int = MORSEL_SIZE
) -> Iterator[list[Row]]:
    """``rows`` in lists of ``size``.

    When reading fails part-way, the rows read before the failure come
    first as a morsel of their own, then the error: the consumer handles
    every row before the failing one, as a row-at-a-time reader would.
    """
    while True:
        morsel: list[Row] = []
        error: Exception | None = None
        try:
            morsel.extend(islice(rows, size))
        except Exception as exc:  # noqa: BLE001 - re-raised below
            error = exc
        if morsel:
            yield morsel
        if error is not None:
            raise error
        if len(morsel) < size:
            return


def _stepped(
    step: Callable[[list], Iterable],
    morsels: Iterable[list],
    tagged: bool = False,
) -> Iterator:
    """The output of ``step`` over each morsel in turn.

    A morsel ``step`` fails on is run again one row at a time: the
    output of the rows before the first failing row comes out, then
    that row's error is raised (as a
    :class:`~repro.db.shard.ShardRowError` carrying its tag, in a shard
    pipeline), so the rows and the error are a row-at-a-time plan's.
    Rows pass through ``chain``, not through a Python frame each.
    """
    return chain.from_iterable(_outputs(step, morsels, tagged))


def _outputs(
    step: Callable[[list], Iterable], morsels: Iterable[list], tagged: bool
) -> Iterator[Iterable]:
    for morsel in morsels:
        try:
            out = step(morsel)
        except Exception as exc:  # noqa: BLE001 - re-raised at its row
            if len(morsel) > 1:
                out = _stepped(step, ([row] for row in morsel), tagged)
            elif tagged:
                raise ShardRowError(morsel[0][-1], exc) from exc
            else:
                raise
        yield out


def run_morsels(
    step: Callable[[list], Iterable], items: Iterable, one_by_one: bool
) -> Iterator:
    """``step`` over ``items`` a morsel at a time (or one item at a
    time), with a failing morsel's error raised at its first failing
    item: for the statements that run outside a plan (UPDATE/DELETE)."""
    size = 1 if one_by_one else MORSEL_SIZE
    return _stepped(step, _morsels(iter(items), size))


class PlanNode:
    """Base class for plan operators."""

    layout: RowLayout

    #: Whether this node may read its input a morsel ahead of the rows
    #: it hands on.  A row-limited :class:`Limit` clears it on every
    #: node it reads row by row (:func:`_read_row_by_row`): below it,
    #: reading ahead would run those rows through every operator under
    #: the limit, UDF and LM calls included, for rows it never keeps.
    pull_ahead = True

    #: Whether an expression this node holds makes an LM call no batched
    #: site resolves (:func:`~repro.db.expr.reads_row_by_row`).
    serial = False

    def execute(self) -> Iterator[Row]:
        raise NotImplementedError

    def _input(self, rows: Iterator[Row]) -> Iterator[list[Row]]:
        """``rows`` in morsels, or one by one when this node may not
        read ahead."""
        return _morsels(rows, MORSEL_SIZE if self.pull_ahead else 1)

    def _streamed(self) -> list["PlanNode"]:
        """The children read only as fast as this node's output is
        (every child, unless the node drains one before it emits)."""
        return self._children()

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


class Scan(PlanNode):
    """Full scan of a stored table under a binding (alias)."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.layout = table.layout(binding)

    def execute(self) -> Iterator[Row]:
        return iter(self.table)

    def _describe(self) -> str:
        return f"Scan({self.table.schema.name} AS {self.binding})"


class IndexLookup(PlanNode):
    """Point lookup via a table's hash index (``col = literal``)."""

    def __init__(self, table: Table, binding: str, column: str, value: SQLValue):
        self.table = table
        self.binding = binding
        self.column = column
        self.value = value
        self.layout = table.layout(binding)

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
        self.layout = table.layout(binding)

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


def _tuple_builder(positions: list[int]) -> Callable[[Row], tuple]:
    """One function from a row to the tuple of its values at
    ``positions``: a single ``itemgetter``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    # One position alone would answer the bare value, and none cannot
    # be asked for: slice the 1-tuple (or the empty one) out instead.
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


def _projected(kernels: list[Kernel], rows: list[Row]) -> list[Row]:
    """One output row per row of ``rows``: the kernels' values."""
    if not kernels:
        return [()] * len(rows)
    return list(zip(*[kernel(rows) for kernel in kernels]))


class MorselContext(Protocol):
    """What differs between local and shard execution of a UDF morsel.

    :class:`UDFExecContext` is the local form, used by an unsharded
    plan; :class:`~repro.db.shard.ShardContext` the form handed to the
    operators of one shard pipeline.  ``site_id`` is ``(operator
    ordinal, site index)``: one call site of the statement.
    """

    #: Whether rows carry a trailing tag (their global row id) that a
    #: projection passes through and that a failure is wrapped with
    #: (:class:`~repro.db.shard.ShardRowError`); ``tag`` below is it,
    #: for the row a key first occurs at, and None on untagged rows.
    tagged: bool

    def tally(self, stats: dict[str, int], key: str, amount: int) -> None:
        """Add to one operator counter, and to whatever mirrors it."""

    def lookup(
        self, site_id: tuple, key: MemoKey, tag: int | None
    ) -> tuple[bool, object]:
        """Where a cache read comes from: ``(found, value)``."""

    def claim(
        self, site_id: tuple, pending: list[MemoKey]
    ) -> tuple[list[MemoKey], Iterable[tuple[MemoKey, object]]]:
        """Who dispatches each pending key: the keys the caller must,
        and ``(key, value)`` for the rest, to be read only after every
        one of the caller's own has been published (reading may wait on
        whoever dispatches them)."""

    def publish(
        self, site_id: tuple, key: MemoKey, tag: int | None, value: object
    ) -> None:
        """Where a result goes (a parked failure reaches those waiting
        for it but never a cache)."""


#: What a memo miss reads as: a UDF result may be None (SQL NULL).
_UNCACHED = object()


class UDFExecContext:
    """The local :class:`MorselContext`: live cache, emitted counters.

    Carries the :class:`~repro.db.Database`'s cross-statement memo
    cache and its bound :class:`~repro.lm.usage.Usage`.  Each operator
    owns an ``exec_stats`` dict surfaced by EXPLAIN ANALYZE;
    :meth:`tally` counts an event on the node and adds it to the
    Usage, so the two can never disagree.  Cache reads and writes go to
    the live cache and every pending key is the caller's to dispatch.
    """

    tagged = False

    def __init__(
        self, cache: LRUCache | None = None, usage: Usage | None = None
    ) -> None:
        self.cache = cache
        self.usage = usage

    def tally(self, stats: dict[str, int], key: str, amount: int) -> None:
        if amount == 0:
            return
        stats[key] = stats.get(key, 0) + amount
        trace.count(self.usage, **{key: amount})

    def lookup(
        self, site_id: tuple, key: MemoKey, tag: int | None
    ) -> tuple[bool, object]:
        if self.cache is None:
            return False, None
        value = self.cache.get(key, _UNCACHED)
        return value is not _UNCACHED, value

    def claim(
        self, site_id: tuple, pending: list[MemoKey]
    ) -> tuple[list[MemoKey], Iterable[tuple[MemoKey, object]]]:
        return pending, ()

    def publish(
        self, site_id: tuple, key: MemoKey, tag: int | None, value: object
    ) -> None:
        if self.cache is not None and not isinstance(value, UDFCallError):
            self.cache.put(key, value)


#: Operator counters nothing mirrors: the model's own Usage already
#: meters calls and batches.
_NODE_ONLY_STATS = ("lm_calls", "lm_batches")


def _fresh_exec_stats(sites: list[UDFCallSite]) -> dict[str, int]:
    """Pre-seeded so EXPLAIN ANALYZE renders a fixed, complete key order.

    Cascade keys appear only when a site actually carries a cheap tier,
    so non-cascade plans render exactly as before; an operator with no
    call sites has no counters.
    """
    if not sites:
        return {}
    stats = {
        "lm_calls": 0,
        "lm_batches": 0,
        "udf_cache_hits": 0,
        "udf_cache_misses": 0,
    }
    if any(site.cascade for site in sites):
        stats["cascade_cheap_hits"] = 0
        stats["cascade_escalations"] = 0
    return stats


def _cheap_tier_answers(
    site: UDFCallSite, pending: list[MemoKey]
) -> list[object]:
    """Run the cascade's cheap tier over ``pending`` argument tuples.

    Returns one answer per tuple; ``None`` means "escalate to the
    expensive tier".  A cheap-tier exception degrades to escalation, so
    an unsound-by-crashing cheap tier costs money, not correctness.
    """
    cheap = site.record.cheap
    answers: list[object] = []
    for _, args in pending:
        try:
            answers.append(cheap(*args))  # type: ignore[misc]
        except Exception:
            answers.append(None)
    return answers


def _resolve_morsel(
    sites: list[UDFCallSite],
    rows: list[Row],
    context: MorselContext,
    stats: dict[str, int],
    ordinal: int,
) -> None:
    """Resolve every strict UDF call for a morsel of rows, in waves.

    Sites arrive inner-before-outer, so by the time an outer site's
    argument kernels run, any nested call they read is already
    memoized.  Per site: evaluate each row's argument tuple (rows whose
    arguments error are skipped — the residual phase re-raises the same
    error at the same row), serve duplicates and cache hits for free,
    dispatch the remaining distinct tuples the context says are this
    caller's (:func:`_dispatch`), then collect the ones it says someone
    else dispatches.  The caller's own come first, so whoever waits on
    them waits on a caller that is making progress.

    Counter contract: ``udf_cache_hits`` counts row-occurrences served
    without a new invocation (statement memo, cross-statement LRU,
    intra-morsel dedup, or another shard's dispatch);
    ``udf_cache_misses`` and ``lm_calls`` count dispatched invocations;
    ``lm_batches`` counts batch dispatches.  On the cascade route
    ``cascade_cheap_hits`` counts distinct tuples the cheap tier
    answered and ``cascade_escalations`` those it declined (dispatched
    to the expensive form, so also ``udf_cache_misses``).
    """
    tagged = context.tagged
    for site_idx, site in enumerate(sites):
        site_id = (ordinal, site_idx)
        memo = site.memo
        pending: list[MemoKey] = []
        #: Tag of the row each pending key first occurs at.
        tags: dict[MemoKey, int | None] = {}
        hits = 0
        for row, key in zip(rows, _site_keys(site, rows)):
            if key is None:
                continue  # argument error; re-raised at its row later
            if key in memo or key in tags:
                hits += 1
                continue
            tag = row[-1] if tagged else None
            found, value = context.lookup(site_id, key, tag)
            if found:
                memo[key] = value
                hits += 1
                continue
            tags[key] = tag
            pending.append(key)
        context.tally(stats, "udf_cache_hits", hits)
        if not pending:
            continue
        mine, theirs = context.claim(site_id, pending)
        try:
            _dispatch(site, site_id, mine, tags, context, stats)
        finally:
            # A dispatch-level error (e.g. a wrong-length batch result)
            # aborts this morsel; park the failure for every key that
            # never landed, so a shard waiting on one wakes.
            for key in mine:
                if key not in memo:
                    aborted = ExecutionError(
                        f"shard dispatch of {site.record.name} aborted"
                    )
                    context.publish(
                        site_id, key, tags[key], UDFCallError(aborted)
                    )
        waited = 0
        for key, value in theirs:
            memo[key] = value
            context.publish(site_id, key, tags[key], value)
            waited += 1
        context.tally(stats, "udf_cache_hits", waited)


def _site_keys(site: UDFCallSite, rows: list[Row]) -> list[MemoKey | None]:
    """Each row's memo key at ``site``, None where an argument fails:
    the morsel at once, or row by row when that fails (or when an
    argument makes an unbatched LM call, which must not run twice)."""
    if not site.serial:
        try:
            return site.keys(rows)
        except Exception:  # noqa: BLE001 - found again row by row
            pass
    keys: list[MemoKey | None] = []
    for row in rows:
        try:
            keys.extend(site.keys([row]))
        except Exception:  # noqa: BLE001 - re-raised at its row later
            keys.append(None)
    return keys


def _dispatch(
    site: UDFCallSite,
    site_id: tuple,
    pending: list[MemoKey],
    tags: dict[MemoKey, int | None],
    context: MorselContext,
    stats: dict[str, int],
) -> None:
    """Invoke ``site`` for ``pending``: the cascade's cheap tier first,
    then one batch call (or per-tuple scalar calls when no batch form
    is registered or the batch dispatch fails).  Every result is
    memoized and published as it lands."""
    memo = site.memo
    if pending and site.cascade:
        # Cascade route: the cheap classifier tier answers what it
        # can; only declined tuples reach the expensive dispatch.
        # Cheap answers are real results (contract: the cheap tier
        # agrees with the expensive form), so they are memoized and
        # published exactly like expensive ones.
        answers = _cheap_tier_answers(site, pending)
        escalated: list[MemoKey] = []
        for key, answer in zip(pending, answers):
            if answer is None:
                escalated.append(key)
                continue
            memo[key] = answer
            context.publish(site_id, key, tags[key], answer)
        cheap_hits = len(pending) - len(escalated)
        context.tally(stats, "cascade_cheap_hits", cheap_hits)
        context.tally(stats, "cascade_escalations", len(escalated))
        pending = escalated
    if not pending:
        return
    context.tally(stats, "udf_cache_misses", len(pending))
    stats["lm_calls"] += len(pending)
    resolved: Iterable[object] | None = None
    batch = site.record.batch
    if batch is not None:
        stats["lm_batches"] += 1
        try:
            resolved = list(batch([key[1] for key in pending]))
        except Exception:
            # Fall back to per-tuple scalar calls so each failing
            # tuple is attributed (and wrapped) exactly as the
            # per-row oracle path would attribute it.
            resolved = None
        else:
            if len(resolved) != len(pending):
                raise ExecutionError(
                    f"batch form of {site.record.name} returned "
                    f"{len(resolved)} results for {len(pending)} "
                    "argument tuples"
                )
    if resolved is None:
        # Lazily: each result lands before the next call is made.
        resolved = (site.call_scalar(key[1]) for key in pending)
    for key, value in zip(pending, resolved):
        memo[key] = value
        context.publish(site_id, key, tags[key], value)


class _MorselNode(PlanNode):
    """Shared state and loop of :class:`Filter` and :class:`Project`:
    read the child a morsel at a time and run the node's kernels on it.

    With call sites, a morsel is ``batch_size`` rows and every strict
    expensive call in it is resolved through :func:`_resolve_morsel`
    first.  ``ordinal`` numbers the operator within its statement where
    its ``context`` tells call sites apart (shard pipelines).  The
    rendered name follows from the context and the sites, not from a
    class: ``Shard`` when rows are tagged, ``Batched`` when there are
    call sites to resolve.
    """

    def __init__(
        self,
        child: PlanNode,
        sites: list[UDFCallSite],
        context: MorselContext | None,
        batch_size: int | None,
        ordinal: int,
    ) -> None:
        self.child = child
        self.sites = sites
        self.context = context or UDFExecContext()
        self.batch_size = batch_size
        self.ordinal = ordinal
        self.exec_stats = _fresh_exec_stats(sites)

    def _morsels(self) -> Iterator[list[Row]]:
        if not self.sites:
            yield from self._input(self.child.execute())  # nothing to resolve
            return
        for morsel in _morsels(self.child.execute(), self.batch_size):
            try:
                _resolve_morsel(
                    self.sites,
                    morsel,
                    self.context,
                    self.exec_stats,
                    self.ordinal,
                )
            except ShardRowError:
                raise
            except Exception as exc:
                if self.context.tagged:
                    raise ShardRowError(morsel[0][-1], exc) from exc
                raise
            yield from self._input(iter(morsel))

    def _label(self, kind: str, parts: list[str]) -> str:
        shard = "Shard" if self.context.tagged else ""
        name = shard + ("Batched" if self.sites else "") + kind
        if self.sites:
            parts = parts + [
                f"batch={self.batch_size}",
                f"sites={len(self.sites)}",
            ]
        return f"{name}({', '.join(parts)})" if parts else name

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Filter(_MorselNode):
    """Keeps the rows whose predicate value is truthy (NULL is not).

    ``predicate`` is the compiled WHERE form
    (:meth:`~repro.db.expr.ExpressionCompiler.predicate`): a morsel in,
    the rows it keeps out.  With call sites it renders as
    ``BatchedFilter``; in a shard pipeline as ``ShardBatchedFilter``,
    or, with no call sites (the cheap conjuncts, where only the failure
    tagging is wanted), as ``ShardFilter``.
    """

    def __init__(
        self,
        child: PlanNode,
        predicate: Predicate,
        label: str = "",
        sites: list[UDFCallSite] | None = None,
        context: MorselContext | None = None,
        batch_size: int | None = None,
        ordinal: int = 0,
    ) -> None:
        super().__init__(child, sites or [], context, batch_size, ordinal)
        self.predicate = predicate
        self.label = label
        self.layout = child.layout
        self.serial = reads_row_by_row(predicate)

    def execute(self) -> Iterator[Row]:
        return _stepped(self.predicate, self._morsels(), self.context.tagged)

    def _describe(self) -> str:
        return self._label("Filter", [self.label] if self.label else [])


class Project(_MorselNode):
    """One output column per kernel.  With ``positions`` every item is
    a bare input column, and a row is projected with one
    ``itemgetter``.  With call sites it renders as ``BatchedProject`` or
    ``ShardBatchedProject`` (see :class:`Filter`); a tag is one more
    output column, so the merge above still sees globally ordered
    tuples."""

    def __init__(
        self,
        child: PlanNode,
        kernels: list[Kernel],
        layout: RowLayout,
        positions: list[int] | None = None,
        sites: list[UDFCallSite] | None = None,
        context: MorselContext | None = None,
        batch_size: int | None = None,
        ordinal: int = 0,
    ) -> None:
        super().__init__(child, sites or [], context, batch_size, ordinal)
        self.serial = reads_row_by_row(*kernels)
        if self.context.tagged:
            kernels = kernels + [read_column(-1)]
        self.kernels = kernels
        self.layout = layout
        self._slice = None if positions is None else _tuple_builder(positions)

    def execute(self) -> Iterator[Row]:
        if self._slice is not None:
            return map(self._slice, self.child.execute())
        project = partial(_projected, self.kernels)
        return _stepped(project, self._morsels(), self.context.tagged)

    def _describe(self) -> str:
        return self._label("Project", [", ".join(self.layout.names)])


class Slice(PlanNode):
    """Keeps a subset of positions from the child row (column pruning)."""

    def __init__(self, child: PlanNode, positions: list[int]) -> None:
        self.child = child
        self.positions = positions
        self.layout = RowLayout(
            [child.layout.entries[position] for position in positions]
        )
        self._slice = _tuple_builder(positions)

    def execute(self) -> Iterator[Row]:
        return map(self._slice, self.child.execute())

    def _describe(self) -> str:
        return f"Slice({self.positions})"

    def _children(self) -> list[PlanNode]:
        return [self.child]


class NestedLoopJoin(PlanNode):
    """General join; materialises the right side once.  Each left row
    meets the right rows a morsel of combined rows at a time."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Kernel | None,
        kind: str,
    ) -> None:
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.layout = RowLayout.concat(left.layout, right.layout)
        self.serial = reads_row_by_row(condition)

    def execute(self) -> Iterator[Row]:
        right_rows = list(self.right.execute())
        null_right = (None,) * len(self.right.layout)
        for left_row in self.left.execute():
            combined = self._input(
                left_row + right_row for right_row in right_rows
            )
            matched = False
            for row in _stepped(self._matching, combined):
                matched = True
                yield row
            if self.kind == "LEFT" and not matched:
                yield left_row + null_right

    def _matching(self, rows: list[Row]) -> Iterable[Row]:
        condition = self.condition
        return rows if condition is None else compress(rows, condition(rows))

    def _describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"

    def _streamed(self) -> list[PlanNode]:
        return [self.left]

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


def _key_kernel(kernels: list[Kernel]) -> Kernel:
    """A morsel's hash keys, None where any part is NULL (NULL keys
    never match in an equi-join): the kernel itself for a single key, a
    tuple of the parts otherwise."""
    if len(kernels) == 1:
        return kernels[0]

    def keys(rows: list[Row]) -> list[tuple | None]:
        parts = zip(*[kernel(rows) for kernel in kernels])
        return [None if None in key else key for key in parts]

    return keys


class HashJoin(PlanNode):
    """Equi-join: builds a hash table on the right side.

    ``residual`` (if any) is evaluated over the combined rows for extra
    non-equi conjuncts of the ON clause.  The left input is probed a
    morsel at a time.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[Kernel],
        right_keys: list[Kernel],
        kind: str,
        residual: Kernel | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.kind = kind
        self.residual = residual
        self.layout = RowLayout.concat(left.layout, right.layout)
        self.serial = reads_row_by_row(*left_keys, *right_keys, residual)
        self._left_key = _key_kernel(left_keys)
        self._right_key = _key_kernel(right_keys)

    def _build(self) -> dict[object, list[Row]]:
        buckets: dict[object, list[Row]] = defaultdict(list)

        def add(rows: list[Row]) -> tuple:
            for key, right_row in zip(self._right_key(rows), rows):
                if key is not None:
                    buckets[key].append(right_row)
            return ()

        size = 1 if self.serial else MORSEL_SIZE
        list(_stepped(add, _morsels(self.right.execute(), size)))
        return buckets

    def execute(self) -> Iterator[Row]:
        return chain.from_iterable(self._probed())

    def _probed(self) -> Iterator[Iterable[Row]]:
        # A generator, so the right side is built on the first read.
        probe = partial(self._probe, self._build().get)
        yield _stepped(probe, self._input(self.left.execute()))

    def _probe(
        self, matches: Callable[..., list[Row]], morsel: list[Row]
    ) -> list[Row]:
        """``morsel``'s left rows joined to their matches, kept where
        the residual is truthy; in a LEFT join a left row none is kept
        for comes out once, padded with NULLs."""
        # A NULL key finds nothing: None is never a bucket.
        found = map(matches, self._left_key(morsel), repeat(()))
        if self.residual is None and self.kind == "INNER":
            return [
                left_row + right_row
                for left_row, rows in zip(morsel, found)
                for right_row in rows
            ]
        combined: list[Row] = []
        owners: list[int] = []
        for owner, (left_row, rows) in enumerate(zip(morsel, found)):
            for right_row in rows:
                combined.append(left_row + right_row)
                owners.append(owner)
        kept = repeat(True)
        if self.residual is not None and combined:
            kept = self.residual(combined)
        if self.kind == "INNER":
            return list(compress(combined, kept))
        joined: list[list[Row]] = [[] for _ in morsel]
        for owner, row, keep in zip(owners, combined, kept):
            if keep:
                joined[owner].append(row)
        null_right = (None,) * len(self.right.layout)
        return [
            row
            for left_row, rows in zip(morsel, joined)
            for row in rows or [left_row + null_right]
        ]

    def _describe(self) -> str:
        return f"HashJoin({self.kind}, {len(self.left_keys)} key(s))"

    def _streamed(self) -> list[PlanNode]:
        return [self.left]  # the right side is built in full first

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
        key: Kernel,
        table: Table,
        binding: str,
        column: str,
        table_is_left: bool,
        residual: Kernel | None = None,
    ) -> None:
        self.child = child
        self.key = key
        self.table = table
        self.binding = binding
        self.column = column
        self.table_is_left = table_is_left
        self.residual = residual
        self.serial = reads_row_by_row(key, residual)
        probed = table.layout(binding)
        self.layout = (
            RowLayout.concat(probed, child.layout)
            if table_is_left
            else RowLayout.concat(child.layout, probed)
        )

    def execute(self) -> Iterator[Row]:
        residual = self.residual
        if residual is None:
            return self._matches()
        return _stepped(
            lambda rows: compress(rows, residual(rows)),
            self._input(self._matches()),
        )

    def _matches(self) -> Iterator[Row]:
        """Key-matched combined rows, in the hash join's order."""
        buckets = self.table.index_buckets(self.column)
        rows = self.table.rows
        key = self.key
        if not self.table_is_left:
            yield from _stepped(
                lambda morsel: [
                    outer_row + rows[row_id]
                    for outer_row, value in zip(morsel, key(morsel))
                    if value is not None  # NULL keys never match
                    for row_id in buckets.get(value, ())
                ],
                self._input(self.child.execute()),
            )
            return
        outer = list(self.child.execute())
        size = 1 if self.serial else MORSEL_SIZE
        matches = [
            (row_id, position)
            for position, value in enumerate(
                _stepped(key, _morsels(iter(outer), size))
            )
            if value is not None
            for row_id in buckets.get(value, ())
        ]
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

    def _streamed(self) -> list[PlanNode]:
        # Probing a left table sorts every match first.
        return [] if self.table_is_left else [self.child]


class AggregateCall:
    """One compiled aggregate invocation within an Aggregate node."""

    def __init__(
        self,
        spec: AggregateSpec,
        argument: Kernel | None,  # None means X(*)
        distinct: bool,
        name: str,
    ) -> None:
        #: DISTINCT and ``*`` are part of the fold: the node's loop never
        #: asks.  COUNT(*), the one star call, is handed the rows.
        if argument is None:
            spec = COUNT_ROWS
        self.spec = _distinct(spec) if distinct else spec
        self.argument = argument
        self.name = name


def _distinct(spec: AggregateSpec) -> AggregateSpec:
    """``spec`` folding each non-NULL value of a group only once; the
    values seen ride in the state, next to ``spec``'s own."""

    def fold(state: list, values: list[SQLValue]) -> list:
        seen, inner = state
        fresh = [
            value
            for value in dict.fromkeys(values)  # first of equals, in order
            if value is not None and value not in seen
        ]
        seen.update(fresh)
        state[1] = spec.fold(inner, fresh)
        return state

    return AggregateSpec(
        lambda: [set(), spec.make_state()],
        fold,
        lambda state: spec.finish(state[1]),
    )


class Aggregate(PlanNode):
    """Hash aggregation over optional group keys.

    Output layout: one column per group key (named by the planner)
    followed by one column per aggregate call.  With no group keys the
    node always emits exactly one row, even over empty input (SQL
    semantics: ``SELECT COUNT(*) FROM empty`` is 0).

    The input is read a morsel at a time: the morsel's rows are bucketed
    by group key (buckets in first-seen order, rows in input order), and
    each call folds a bucket's whole list of argument values at once.
    Groups come out in first-seen order.  Group keys that call an
    expensive function read the call sites :meth:`batch` gives, which
    are resolved for a morsel of ``batch_size`` rows before it is
    folded, as a batched :class:`Project` resolves its own.
    """

    def __init__(
        self,
        child: PlanNode,
        group_keys: list[Kernel],
        calls: list[AggregateCall],
        layout: RowLayout,
    ) -> None:
        self.child = child
        self.group_keys = group_keys
        self.calls = calls
        self.layout = layout
        self.sites: list[UDFCallSite] = []
        self.serial = reads_row_by_row(
            *group_keys, *[call.argument for call in calls]
        )

    def batch(
        self, sites: list[UDFCallSite], context: MorselContext, size: int
    ) -> None:
        self.sites, self.context, self.batch_size = sites, context, size
        self.exec_stats = _fresh_exec_stats(sites)

    def _morsels(self, size: int) -> Iterator[list[Row]]:
        """The input in morsels of ``size``, each batch of call sites
        resolved first (as :class:`_MorselNode` reads its input)."""
        if not self.sites:
            yield from _morsels(self.child.execute(), size)
            return
        for batch in _morsels(self.child.execute(), self.batch_size):
            stats = self.exec_stats
            _resolve_morsel(self.sites, batch, self.context, stats, 0)
            yield from _morsels(iter(batch), size)

    def execute(self) -> Iterator[Row]:
        makers = [call.spec.make_state for call in self.calls]
        #: Insertion order is first-seen order, which groups come out in.
        groups: dict[tuple[SQLValue, ...], list] = {}
        for morsel in self._morsels(1 if self.serial else MORSEL_SIZE):
            try:
                self._fold(morsel, groups, makers)
            except Exception:
                # Folding call by call meets errors out of row order: the
                # first failing row's error is found folding one row at a
                # time into fresh states (a builtin fold fails on a value
                # alone, never on what was folded before).
                fresh = partial(self._fold, groups={}, makers=makers)
                list(_stepped(fresh, ([row] for row in morsel)))
                raise
        if not self.group_keys and not groups:
            groups[()] = [make() for make in makers]
        for key, states in groups.items():
            yield key + tuple(
                [
                    call.spec.finish(state)
                    for call, state in zip(self.calls, states)
                ]
            )

    def _fold(
        self,
        morsel: list[Row],
        groups: dict[tuple[SQLValue, ...], list],
        makers: list[Callable[[], object]],
    ) -> tuple:
        group_keys = self.group_keys
        buckets: dict[tuple[SQLValue, ...], list[Row]] = {(): morsel}
        if group_keys:
            # One key buckets on the bare value, which meets the keys its
            # 1-tuple would (and a 1-tuple hashes anew for every row).
            single = len(group_keys) == 1
            if single:
                keys = group_keys[0](morsel)
            else:
                keys = zip(*[group_key(morsel) for group_key in group_keys])
            buckets = defaultdict(list)
            for key, row in zip(keys, morsel):
                buckets[key].append(row)
            if single:
                buckets = {(key,): rows for key, rows in buckets.items()}
        folds = [(call.argument, call.spec.fold) for call in self.calls]
        for key, rows in buckets.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [make() for make in makers]
            for position, (argument, fold) in enumerate(folds):
                values = rows if argument is None else argument(rows)
                states[position] = fold(states[position], values)
        return ()

    def _describe(self) -> str:
        names = ", ".join(call.name for call in self.calls)
        return (
            f"Aggregate(groups={len(self.group_keys)}, "
            f"calls=[{names}])"
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]

    def _streamed(self) -> list[PlanNode]:
        return []  # every input row is folded before a group comes out


class _Descending:
    """Inverts the ordering of a value that cannot be negated (text)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Descending) and self.value == other.value
        )


def _descending_key(value: SQLValue) -> tuple[int, object]:
    """:func:`sort_key` with the order inverted: ranks negated, numbers
    negated (exact for ``int`` and ``float`` alike, so the tuples still
    compare in C; NaN, which orders against nothing either way round,
    stays the object it is), anything else behind :class:`_Descending`.
    """
    rank, key = sort_key(value)
    if rank == 1:
        return (-1, -key if key == key else key)
    return (-rank, _Descending(key))


#: How a Sort key column is encoded, by name: ``+``/``-`` for ASC/DESC.
_ENCODERS: dict[str, Callable[[list[SQLValue]], Iterable[object]]] = {
    "+number": lambda column: column,
    "-number": lambda column: map(neg, column),
    "+text": lambda column: column,
    "+general": lambda column: map(sort_key, column),
    "-general": lambda column: map(_descending_key, column),
}


def _encoding(
    column: list[SQLValue], ascending: bool, current: str | None
) -> str:
    """The encoding for a morsel's key column, given the column's
    ``current`` one (None before the first morsel).

    Numbers order among themselves as their ``sort_key`` tuples do,
    NaN included (the tuple compares its second item as it is); negated
    they order as ``_descending_key``'s only without NaN, which that key
    keeps as the same object rather than a negated copy.  Text orders as
    it is; DESC text needs ``_Descending``.
    """
    sign = "+" if ascending else "-"
    if current == sign + "general":
        return current
    kinds = set(map(type, column))
    if kinds <= NUMBERS and (
        ascending or float not in kinds or not any(map(ne, column, column))
    ):
        wanted = sign + "number"
    elif ascending and kinds == TEXT:
        wanted = "+text"
    else:
        wanted = sign + "general"
    return wanted if current in (None, wanted) else sign + "general"


class Sort(PlanNode):
    """ORDER BY as an explicit *total* order.

    The composite key is ``(key parts..., input position)``: every key
    part goes through :func:`~repro.db.types.sort_key` (NULLs rank
    lowest, so they sort first under ASC and last under DESC), DESC
    parts are encoded with the order inverted (:func:`_descending_key`)
    rather than handled by a separate reversed pass, and the original
    input position breaks all remaining ties.  No two rows ever compare
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

    The input is read a morsel at a time, and each key column is
    encoded whole by one of :data:`_ENCODERS`: raw numbers (negated
    under DESC, where there is no NaN), raw text under ASC, or the
    general ``sort_key`` / ``_descending_key``.  The first morsel picks
    a column's encoding; a later one that does not fit it moves the
    column to the general one and re-encodes what is held, so no two
    held keys are ever in different encodings (raw keys and
    ``sort_key`` tuples do not compare).  Each raw encoding makes, pair
    for pair, the comparisons the general one makes over the values it
    admits, NaN included, so the output is the same row for row.
    """

    def __init__(
        self,
        child: PlanNode,
        keys: list[Kernel],
        ascending: list[bool],
    ) -> None:
        self.child = child
        self.keys = keys
        self.ascending = ascending
        self.bound: int | None = None
        self.layout = child.layout

    def execute(self) -> Iterator[Row]:
        # A bound of 0 sorts in full: every input row must still be
        # evaluated.
        bound = self.bound
        encodings: list[str | None] = [None] * len(self.keys)
        #: Decorated rows ``(key parts..., input position, row)``: the
        #: position is unique, so comparing two never reaches the row.
        #: Under a bound, the max-heap ``heapq.nsmallest`` keeps, built
        #: and replaced as it does, comparison for comparison.
        held: list[tuple] = []
        start = 0
        for morsel in _morsels(self.child.execute()):
            parts = []
            for index, (key, ascending) in enumerate(
                zip(self.keys, self.ascending)
            ):
                column = key(morsel)
                encoding = _encoding(column, ascending, encodings[index])
                if encodings[index] not in (None, encoding):
                    self._reencode(held, index, encoding)
                encodings[index] = encoding
                parts.append(_ENCODERS[encoding](column))
            items = zip(*parts, range(start, start + len(morsel)), morsel)
            start += len(morsel)
            if not bound:
                held.extend(items)
                continue
            if len(held) < bound:
                held.extend(islice(items, bound - len(held)))
                if len(held) < bound:
                    continue
                _heapify_max(held)
            top = held[0]
            for item in items:
                if item < top:
                    _heapreplace_max(held, item)
                    top = held[0]
        if bound and len(held) < bound:
            _heapify_max(held)
        held.sort()
        yield from map(itemgetter(-1), held)

    def _reencode(self, held: list[tuple], index: int, encoding: str) -> None:
        """Key part ``index`` of every held row, in ``encoding``, in
        place (a heap stays the heap it is: the order does not move)."""
        encode = _ENCODERS[encoding]
        key = self.keys[index]
        column = encode(key([item[-1] for item in held]))
        for position, part in enumerate(column):
            item = held[position]
            held[position] = item[:index] + (part,) + item[index + 1 :]

    def _describe(self) -> str:
        return f"Sort({len(self.keys)} key(s))"

    def _children(self) -> list[PlanNode]:
        return [self.child]

    def _streamed(self) -> list[PlanNode]:
        return []  # every input row is read before the first comes out


def _read_row_by_row(node: PlanNode) -> None:
    """Clear ``pull_ahead`` on ``node`` and every node it streams from."""
    node.pull_ahead = False
    for child in node._streamed():
        _read_row_by_row(child)


def read_serially(root: PlanNode) -> None:
    """Clear ``pull_ahead`` where reading ahead would make LM calls a
    row-at-a-time plan does not make.

    When any node holds an expression that makes an LM call no batched
    site resolves, the whole plan reads row by row, so those calls come
    in that plan's order and none is made for a row past the first
    failing one, or made again by :func:`_stepped`.  Otherwise the
    nodes that read a batched UDF operator's rows as they come read
    them row by row, so its batches are dispatched only as far as they
    are read.
    """
    nodes = [root]
    for node in nodes:
        nodes.extend(node._children())
    if any(node.serial for node in nodes):
        for node in nodes:
            node.pull_ahead = False
        return
    batched = [node for node in nodes if getattr(node, "sites", None)]
    if batched:
        #: The node that reads a node's rows as they come, by ``id``.
        reader = {
            id(child): node for node in nodes for child in node._streamed()
        }
        for node in batched:
            while id(node) in reader:
                node = reader[id(node)]
                node.pull_ahead = False


class Limit(PlanNode):
    def __init__(
        self, child: PlanNode, limit: int | None, offset: int
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.layout = child.layout
        if limit is not None:
            # Below a row limit, a node reads only as far as the row
            # at a time plan would: up to the first draining operator.
            _read_row_by_row(child)

    def execute(self) -> Iterator[Row]:
        rows = self.child.execute()
        offset = max(self.offset, 0)
        if self.limit == 0:
            # One read past the offset still starts the child, so a
            # Sort below evaluates every input row and raises what the
            # full statement would.
            next(islice(rows, offset, None), None)
            return
        stop = None if self.limit is None else offset + self.limit
        # Reading stops at the last row kept: a row past it would run
        # the operators below (and their UDF or LM calls) for nothing.
        yield from islice(rows, offset, stop)

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
# The filters (and a ShardBatchedProject pushed on top) are the Filter and
# Project above over the shard's ShardContext; ShardScan, Exchange and
# Merge are the only shard-specific nodes.
#
# Every shard row carries one trailing *tag*: the row's global id in the
# table's insertion order.  Tags make the merged output order — and
# therefore Sort's input-position tie-break, LIMIT under duplicates, and
# which row an error surfaces at — a pure function of the data,
# independent of shard count, worker count, and thread timing.
# ---------------------------------------------------------------------------


class ShardScan(PlanNode):
    """Scan of one partition, yielding rows tagged with global row ids.

    The advertised ``layout`` is the *untagged* scan layout: kernels
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
        self.layout = table.layout(binding)

    def execute(self) -> Iterator[Row]:
        rows = self.table.rows
        for row_id in self.table.partition_row_ids()[self.shard_id]:
            yield rows[row_id] + (row_id,)

    def _describe(self) -> str:
        return (
            f"ShardScan({self.table.schema.name} AS {self.binding}, "
            f"{self.spec.describe()}, shard={self.shard_id})"
        )


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
      order with orders derived from the caller's own session, so a
      flush orders the requests it holds the same way every run.
      Micro-batch composition is *not* a pure function of the
      workload, though: a key two shards both need is dispatched by
      whichever shard thread claims it first in
      :meth:`~repro.db.shard.ShardDedup.claim`, and that decides which
      session's flush carries it, so the batches and the virtual
      seconds can differ between runs while rows and ``Usage`` do not
      (a known flake, ROADMAP item 8);
    * the caller's session is *parked* for the duration — it is
      waiting on the shards, not on its own LM call — otherwise the
      flush barrier the shards need could never complete;
    * shard threads buffer all Usage and cache effects; after the
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
        sites = [
            site
            for node in _shard_stat_nodes(shards[0])
            for site in getattr(node, "sites", [])
        ]
        self.exec_stats = _fresh_exec_stats(sites)
        #: Stable operator label for trace spans: span names must not
        #: leak the shard count (see repro.obs.explain).
        self.trace_describe = "Exchange"

    def execute(self) -> Iterator[Row]:
        has_sites = bool(self.exec_stats)  # seeded iff there are sites
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
        # order: operator tallies shard by shard (into Usage through
        # the real context), then cache events by call site and global
        # first occurrence.
        for shard_id, pipeline in enumerate(self.shards):
            racecheck.read(f"Exchange.shard.{shard_id}")
            for node in _shard_stat_nodes(pipeline):
                for key, amount in node.exec_stats.items():
                    if key in _NODE_ONLY_STATS:
                        self.exec_stats[key] += amount
                    else:
                        self.context.tally(self.exec_stats, key, amount)
        if has_sites and self.context.cache is not None:
            for _site, kind, key, value in merge_cache_events(
                self.contexts
            ):
                if kind == "hit":
                    self.context.cache.get(key)
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

    def _streamed(self) -> list[PlanNode]:
        return []  # every shard runs to its end before the merge


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
