"""The least-recently-used map behind every cache, and the statement cache.

:class:`LRUCache` is the one LRU map in the repo.  It serves the
serving layer's prompt cache (:class:`~repro.serve.BatchingLM`), each
:class:`~repro.db.Database`'s cross-statement memo of expensive-UDF
results (``Database.udf_cache``, keyed by ``(FUNCTION_NAME, args)``),
the semantic result cache's entries
(:class:`~repro.serve.SemanticResultCache`) and, as its subclass, the
statement cache.  Every method runs under its one lock, because the
memo and the statement cache are shared by every ``TagServer`` worker.
That lock is always acquired last: nothing else is taken while it is
held, so it adds no edge a lock-order cycle could close.  The cache
never meters: a caller that counts hits and misses does so at exactly
one seam of its own.

One :class:`StatementCache` lives on each :class:`~repro.db.Database`
and is keyed by SQL text.  :meth:`~repro.db.Database.execute` admits a
SELECT only after it has succeeded: first its parsed AST and whether the
analyzer accepted it, and — from the entry's first hit on, so a text
that never repeats costs an AST and not a plan — the physical plan it
ran, with its output names and optimizer report.  A :class:`Prepared`
entry is immutable; admitting the plan replaces the entry.  Whether an
entry still stands (see :class:`Prepared`) is asked by the database,
outside the lock; two workers racing on a first sight at worst both
plan and one entry survives.  The counts are plain ints for tests and
experiments, not ``Usage`` fields: a racing first sight would make
those depend on timing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple

from repro.obs import racecheck

#: Entries kept per database; least recently used go first.
CAPACITY = 512

_MISSING = object()


class LRUCache:
    """Least-recently-used map with a fixed capacity.

    ``capacity == 0`` disables the cache: every ``get`` misses and
    ``put`` is a no-op, so callers need no special case.  Only
    :meth:`get` and :meth:`put` are uses that promote an entry to most
    recently used; ``key in cache``, ``len(cache)`` and
    :meth:`snapshot` leave the eviction order alone.  The race checker
    names the entries after the class, so a subclass's are told apart.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock_name = f"{type(self).__name__}._lock"
        self._var = f"{type(self).__name__}._entries"

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up and promote: a hit becomes most recently used."""
        with racecheck.guard(self._lock_name, self._lock):
            return self._get_locked(key, default)

    def _get_locked(self, key: Hashable, default: Any) -> Any:
        racecheck.read(self._var)
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        racecheck.write(self._var)
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> list[tuple[Hashable, Any]]:
        """Insert or refresh ``key`` as most recently used; returns the
        ``(key, value)`` pairs evicted, oldest first.  A caller that
        mirrors entries elsewhere (the semantic cache's vector index)
        uses them to tombstone its side."""
        if self.capacity == 0:
            return []
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.write(self._var)
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = []
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
            return evicted

    def snapshot(self) -> dict[Hashable, Any]:
        """A point-in-time copy of the entries, oldest first.

        The sharded executor reads UDF results from a statement-start
        snapshot, so every shard — and every shard *count* — sees the
        same memo whatever concurrent statements insert mid-scan; hits
        and inserts are replayed against the live memo after the shards
        join (see :mod:`repro.db.shard`).
        """
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return dict(self._entries)

    def clear(self) -> None:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.write(self._var)
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return key in self._entries

    def __len__(self) -> int:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return len(self._entries)


class Prepared(NamedTuple):
    """What one SELECT text was derived to, and what it was derived from.

    ``tables`` holds ``(name, table, access_version)`` for every table
    the statement names, ``functions`` the registry's version and
    ``runtime`` the shard runtime: the stamps :meth:`stands` checks.
    The plan — kept only when its run state lives entirely in the
    frames of ``execute()`` — was built under the ``(optimize,
    udf_batch_size)`` in ``options``, and ``stats`` holds ``(table,
    version)`` for every table whose statistics its planning read: what
    :meth:`serves` checks on top.
    """

    statement: Any
    analyzed: bool
    tables: tuple
    functions: int
    runtime: Any
    options: tuple | None = None
    plan: Any = None
    names: list[str] | None = None
    report: Any = None
    stats: tuple = ()

    def stands(self, catalog: dict, functions: int, runtime: Any) -> bool:
        """Whether everything here may still be used: every table named
        is the object the catalog holds (a name that had none still has
        none), with the indexes and partitioning it had, and neither
        the function registry nor the shard runtime has changed."""
        return (
            self.functions == functions
            and self.runtime is runtime
            and all(
                catalog.get(name) is table
                and getattr(table, "access_version", None) == version
                for name, table, version in self.tables
            )
        )

    def serves(self, options: tuple) -> bool:
        """Whether the plan kept was built under ``options`` and no
        table whose statistics chose it has been written since."""
        return self.options == options and all(
            table.version == version for table, version in self.stats
        )


class StatementCache(LRUCache):
    """:data:`CAPACITY` :class:`Prepared` entries keyed by SQL text."""

    def __init__(self) -> None:
        super().__init__(CAPACITY)
        #: Lookups that found the text, lookups that did not, and
        #: executions that ran a stored plan.
        self.hits = self.misses = self.plan_hits = 0

    def lookup(self, sql: str) -> Prepared | None:
        """The entry for ``sql``, promoted to most recently used."""
        with racecheck.guard(self._lock_name, self._lock):
            entry = self._get_locked(sql, None)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def count_plan_hit(self) -> None:
        """An execution ran the plan its entry stored."""
        with racecheck.guard(self._lock_name, self._lock):
            self.plan_hits += 1
