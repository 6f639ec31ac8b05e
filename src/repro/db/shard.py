"""Sharded-execution support: partitioning specs and shard-local state.

The exchange in :mod:`repro.db.plan` splits a scan into N partitions and
runs each partition's pipeline on its own thread.  This module holds
what the exchange and those pipelines share:

:class:`PartitionSpec`
    How a table's rows map to shards — hash partitioning on one
    column.  Hashing goes through ``zlib.crc32`` over a canonical value
    encoding, never Python's seeded ``hash()``, so the mapping is
    stable across processes (the determinism contract of the whole
    engine).

:class:`ShardDedup`
    A per-statement rendezvous that guarantees each distinct UDF
    argument tuple is dispatched exactly *once* per call site no matter
    how many shards its rows land on.  The first shard to claim a key
    owns the dispatch; the others park their LM session (see
    :meth:`repro.serve.BatchingLM.parked`) and wait for the owner's
    result.  Because owners always dispatch their own keys before
    waiting on anyone else's, every wait is on a shard that is making
    progress — the rendezvous cannot deadlock.

:class:`ShardContext`
    The shard-side :class:`~repro.db.plan.MorselContext`, handed to the
    filters and projections of one shard pipeline in place of the
    statement's :class:`~repro.db.plan.UDFExecContext`.
    Shards never touch the live memo cache, and no shard thread ever
    touches the shared :class:`~repro.lm.usage.Usage` — the LRU
    promotes on lookup, which would race (and worse, make the cache's
    order depend on thread interleaving).  Instead each shard reads
    from a statement-start cache *snapshot*, and records cache events
    keyed by the global row id of the key's first occurrence; its
    operators count into their own stats dicts, as every operator
    does.  After the shards join, the exchange sums those counters into
    its own and replays the cache events on the caller's thread in a
    canonical order, so the merged counters and the final cache
    contents are byte-identical at any shard or worker count.

:class:`ShardRuntime`
    The execution knobs a :class:`~repro.db.Database` hands the
    planner: worker count and (optionally) the serving-layer
    :class:`~repro.serve.BatchingLM` the expensive UDFs dispatch
    through.  Without an LM host, shards with UDF sites run
    sequentially — concurrent bare calls into a
    :class:`~repro.lm.model.SimulatedLM` would accumulate its float
    meters in scheduling order — while pure relational regions always
    fan out.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.db.expr import UDFCallError
from repro.db.types import SQLValue, sort_key
from repro.errors import SchemaError
from repro.obs import racecheck

#: Process-wide spawn counter for unique shard thread names.  The
#: dynamic race checker keys vector clocks by thread *name*, so a name
#: must never be reused within one checker install — a recycled name
#: would inherit a stale clock and manufacture false orderings.  Names
#: are diagnostic only (they never reach exported artifacts), so a
#: monotonic counter is safe here.
_SPAWN = itertools.count()


def next_shard_thread_name(shard_id: int) -> str:
    """A process-unique name for the thread running ``shard_id``."""
    parent = threading.current_thread().name
    return f"{parent}:shard{shard_id}-{next(_SPAWN)}"


def _hash_form(value: SQLValue) -> tuple[int, Any]:
    """What hash partitioning encodes for a key value.

    :func:`sort_key`, with every number a float holds exactly written
    as that float: ``1``, ``1.0`` and ``True`` are one key to a join,
    so they must land on one shard, while an integer past 2**53 keeps
    its own digits instead of colliding with its neighbours.
    """
    rank, payload = sort_key(value)
    if rank == 1:
        try:
            as_float = float(payload)
        except OverflowError:
            return rank, payload
        if as_float == payload:
            return rank, as_float
    return rank, payload


@dataclass(frozen=True)
class PartitionSpec:
    """How one table's rows map to shards: a hash of one key column.

    ``crc32`` over a canonical encoding of the (coerced) key value,
    modulo ``shards``.  NULL keys always land on shard 0.
    """

    column: str
    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise SchemaError(
                f"shards must be >= 1, got {self.shards}"
            )

    @classmethod
    def hashed(cls, column: str, shards: int) -> "PartitionSpec":
        return cls(column=column, shards=shards)

    def shard_of(self, value: SQLValue) -> int:
        """The shard a (column-coerced) key value belongs to."""
        if value is None:
            return 0
        encoded = repr(_hash_form(value)).encode("utf-8")
        return zlib.crc32(encoded) % self.shards

    def describe(self) -> str:
        return f"hash({self.column}) % {self.shards}"


@dataclass
class ShardRuntime:
    """Worker count and optional LM host for the sharded executor."""

    workers: int = 4
    #: The serving-layer batching facade the expensive UDFs dispatch
    #: through, when there is one.  Shard threads open sessions on it
    #: so their morsel batches meet at the flush barrier; without it,
    #: UDF-bearing shards run sequentially (still on spawned threads,
    #: so traces are identical either way).
    lm: Any = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SchemaError(
                f"shard workers must be >= 1, got {self.workers}"
            )


class _DedupSlot:
    """One claimed key's eventual result; guarded by ShardDedup._cv."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None


class ShardDedup:
    """Cross-shard once-per-key dispatch rendezvous for one statement.

    Keys are ``((node ordinal, site index), memo key)`` — dedup is *per
    logical call site*, exactly mirroring the per-site statement memo
    of the unsharded path, so error results propagate to waiters the
    same way a memoized :class:`~repro.db.expr.UDFCallError` replays
    within a site.  Cross-*site* reuse flows through the cache
    snapshot only, which keeps the dispatch set independent of shard
    count.
    """

    def __init__(self, lm: Any = None) -> None:
        self._lm = lm
        self._cv = threading.Condition()
        self._slots: dict[Hashable, _DedupSlot] = {}

    def claim(self, key: Hashable) -> tuple[bool, _DedupSlot]:
        """``(owned, slot)``: the first claimant owns the dispatch."""
        with racecheck.guard("ShardDedup._cv", self._cv):
            racecheck.read("ShardDedup._slots")
            slot = self._slots.get(key)
            if slot is not None:
                return False, slot
            racecheck.write("ShardDedup._slots")
            slot = _DedupSlot()
            self._slots[key] = slot
            return True, slot

    def resolve(self, slot: _DedupSlot, value: Any) -> None:
        """Publish the owner's result and wake every waiter."""
        with racecheck.guard("ShardDedup._cv", self._cv):
            racecheck.write("ShardDedup._slots")
            slot.value = value
            slot.done = True
            self._cv.notify_all()

    def wait(self, slot: _DedupSlot) -> Any:
        """Block until the owner resolves ``slot``; returns its value.

        The waiter's LM session (if any) is parked for the duration:
        a session blocked here will issue no LM calls, so counting it
        toward the flush barrier would deadlock the owner it is
        waiting for.
        """
        parked = (
            self._lm.parked() if self._lm is not None else _NULL_PARK
        )
        with parked:
            with racecheck.guard("ShardDedup._cv", self._cv):
                while not slot.done:
                    racecheck.releasing("ShardDedup._cv")
                    self._cv.wait()
                    racecheck.reacquired("ShardDedup._cv")
                racecheck.read("ShardDedup._slots")
                return slot.value


class _NullPark:
    """No-LM stand-in for ``BatchingLM.parked()``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_PARK = _NullPark()


class ShardRowError(Exception):
    """A per-row failure inside a shard pipeline, tagged for merging.

    ``tag`` is the failing row's global row id (or the first row id of
    the failing morsel for dispatch-level errors; ``-1`` for failures
    before any row is attributable).  The exchange joins every shard,
    yields the merged rows that precede the smallest error tag, then
    re-raises that error — so the statement fails at exactly the row
    where the unsharded evaluation order first fails, at any shard
    count.
    """

    def __init__(self, tag: int, error: Exception) -> None:
        super().__init__(f"shard row {tag}: {error}")
        self.tag = tag
        self.error = error


@dataclass
class ShardContext:
    """The shard side of :class:`~repro.db.plan.MorselContext`.

    Rows carry a trailing tag (their global row id).  Cache reads come
    from the statement-start ``snapshot``, and cache effects are
    recorded as events keyed by each key's first-occurrence tag — a
    timing-independent quantity — so the post-join replay is identical
    no matter which shard claimed a key first.
    """

    tagged = True

    snapshot: dict[Hashable, Any] = field(default_factory=dict)
    dedup: ShardDedup | None = None
    #: ``(site id, key) -> [kind, first_tag, value]`` where kind is
    #: "hit" (present in the snapshot; replayed as a promoting lookup)
    #: or "new" (resolved this statement; replayed as a put).
    events: dict[tuple, list] = field(default_factory=dict)
    #: Rendezvous slots this shard claimed and has yet to fill, by key;
    #: call sites resolve one at a time, so the key alone identifies one.
    owed: dict[Hashable, _DedupSlot] = field(default_factory=dict)

    def begin(self, snapshot: dict, dedup: ShardDedup) -> None:
        """Arm the context for one execution of its shard pipeline."""
        self.snapshot = snapshot
        self.dedup = dedup
        self.events = {}
        self.owed = {}

    def lookup(
        self, site_id: tuple, key: Hashable, tag: int
    ) -> tuple[bool, Any]:
        if key in self.snapshot:
            self._record(site_id, key, tag, "hit", None)
            return True, self.snapshot[key]
        return False, None

    def claim(
        self, site_id: tuple, pending: list
    ) -> tuple[list, Iterator[tuple[Hashable, Any]]]:
        """The first shard to claim a key dispatches it; the rest wait
        (session parked) for the owner's result, so the dispatched set
        is the same at every shard count."""
        mine = []
        theirs = []
        for key in pending:
            owned, slot = self.dedup.claim((site_id, key))
            if owned:
                self.owed[key] = slot
                mine.append(key)
            else:
                theirs.append((key, slot))
        return mine, (
            (key, self.dedup.wait(slot)) for key, slot in theirs
        )

    def publish(
        self, site_id: tuple, key: Hashable, tag: int, value: Any
    ) -> None:
        if not isinstance(value, UDFCallError):
            self._record(site_id, key, tag, "new", value)
        slot = self.owed.pop(key, None)
        if slot is not None:
            self.dedup.resolve(slot, value)

    def _record(
        self,
        site_id: tuple,
        key: Hashable,
        tag: int,
        kind: str,
        value: Any,
    ) -> None:
        event_key = (site_id, key)
        event = self.events.get(event_key)
        if event is None:
            self.events[event_key] = [kind, tag, value]
        elif tag < event[1]:
            event[1] = tag


def merge_cache_events(
    contexts: list[ShardContext],
) -> list[tuple[tuple, str, Hashable, Any]]:
    """Merge per-shard cache events into one canonical replay order.

    Events for the same ``(site id, key)`` across shards keep the
    minimum first-occurrence tag (several shards may have seen the key;
    they all recorded the same kind and value).  The result is sorted
    by ``(site id, tag)`` — i.e. by call site in plan order, then by
    global first occurrence — which is exactly the order the unsharded
    path touches the cache in, modulo morsel batching.
    """
    merged: dict[tuple, list] = {}
    for context in contexts:
        for event_key, (kind, tag, value) in context.events.items():
            event = merged.get(event_key)
            if event is None:
                merged[event_key] = [kind, tag, value]
            elif tag < event[1]:
                event[1] = tag
    ordered = sorted(
        merged.items(), key=lambda item: (item[0][0], item[1][1])
    )
    return [
        (site_id, kind, key, value)
        for (site_id, key), (kind, tag, value) in ordered
    ]
