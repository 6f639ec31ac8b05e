"""Per-database cache of what a statement's text was last derived to.

One :class:`StatementCache` lives on each :class:`~repro.db.Database`
and is keyed by SQL text.  :meth:`~repro.db.Database.execute` admits a
SELECT only after it has succeeded: first its parsed AST and whether the
analyzer accepted it, and — from the entry's first hit on, so a text
that never repeats costs an AST and not a plan — the physical plan it
ran, with its output names and optimizer report.  A :class:`Prepared`
entry is immutable; admitting the plan replaces the entry.

The cache itself is a dumb LRU in :class:`~repro.db.udfcache.UDFMemoCache`'s
shape: lookup + promotion and insert + eviction each run under its one
lock, because every ``TagServer`` worker shares the one ``Database``.
Whether an entry still stands (see :class:`Prepared`) is asked by the
database, outside the lock; two workers racing on a first sight
at worst both plan and one entry survives.  The counts are plain ints
for tests and experiments, not ``Usage`` fields: a racing first sight
would make those depend on timing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, NamedTuple

from repro.obs import racecheck

#: Entries kept per database; least recently used go first.
CAPACITY = 512


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


class StatementCache:
    """LRU of :class:`Prepared` entries keyed by SQL text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Prepared] = OrderedDict()
        #: Lookups that found the text, lookups that did not, and
        #: executions that ran a stored plan.
        self.hits = self.misses = self.plan_hits = 0

    def lookup(self, sql: str) -> Prepared | None:
        """The entry for ``sql``, promoted to most recently used."""
        with racecheck.guard("StatementCache._lock", self._lock):
            racecheck.read("StatementCache._entries")
            entry = self._entries.get(sql)
            if entry is None:
                self.misses += 1
                return None
            racecheck.write("StatementCache._entries")
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry

    def count_plan_hit(self) -> None:
        """An execution ran the plan its entry stored."""
        with racecheck.guard("StatementCache._lock", self._lock):
            self.plan_hits += 1

    def put(self, sql: str, entry: Prepared) -> None:
        """Store (or replace) ``sql``'s entry as most recently used."""
        with racecheck.guard("StatementCache._lock", self._lock):
            racecheck.write("StatementCache._entries")
            self._entries[sql] = entry
            self._entries.move_to_end(sql)
            while len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with racecheck.guard("StatementCache._lock", self._lock):
            racecheck.read("StatementCache._entries")
            return len(self._entries)
