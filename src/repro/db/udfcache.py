"""Cross-statement memo cache for expensive (LM) UDF results.

One :class:`UDFMemoCache` lives on each :class:`~repro.db.Database` and
is shared by every statement the database executes: repeated ``exec``
steps over the same table, or repeated rows within one query, resolve
an already-judged ``(function, argument-tuple)`` pair without touching
the model.  Keys are ``(FUNCTION_NAME, args)`` tuples — SQL values are
all hashable — and eviction is least-recently-used over a configurable
capacity, mirroring the serving layer's prompt cache semantics
(:mod:`repro.serve.cache`): only a consuming ``lookup`` promotes an
entry.

Because the one ``Database`` is shared by every ``TagServer`` worker,
the memo is lock-guarded: ``lookup`` is a get *plus* an LRU promotion
and ``put`` is an insert plus eviction, both check-then-act sequences
that interleave incorrectly without mutual exclusion.  (The concurrency
analyzer's dynamic layer, :mod:`repro.obs.racecheck`, found exactly
this in the serve worker sweep before the lock existed.)

Error results are never cached; a failing UDF re-raises on every
evaluation exactly like the per-row oracle path.  Hit/miss *metering*
deliberately lives with the caller (the batched plan operators), which
adds one count per probed occurrence to ``Usage`` — the cache itself
stays a dumb LRU so there is exactly one meter per surface.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs import racecheck

_MISSING = object()


class UDFMemoCache:
    """LRU memo of UDF results keyed by ``(function, args)``.

    ``capacity == 0`` disables memoization entirely (every lookup
    misses, ``put`` is a no-op), which keeps the batched path's
    intra-morsel dedup measurable on its own in the ablation.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        """``(found, value)``; a hit promotes the entry to MRU."""
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.read("UDFMemoCache._entries")
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return False, None
            racecheck.write("UDFMemoCache._entries")
            self._entries.move_to_end(key)
            return True, value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.write("UDFMemoCache._entries")
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def snapshot(self) -> dict[Hashable, Any]:
        """A point-in-time copy of the entries, oldest first.

        The sharded executor reads from a statement-start snapshot so
        every shard — and every shard *count* — sees the same cache
        state regardless of what concurrent statements insert mid-scan;
        promotions and inserts are replayed against the live cache
        after the shards join (see :mod:`repro.db.shard`).  A
        ``capacity == 0`` cache snapshots empty.
        """
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.read("UDFMemoCache._entries")
            return dict(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; never promotes."""
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.read("UDFMemoCache._entries")
            return key in self._entries

    def __len__(self) -> int:
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.read("UDFMemoCache._entries")
            return len(self._entries)

    def clear(self) -> None:
        with racecheck.guard("UDFMemoCache._lock", self._lock):
            racecheck.write("UDFMemoCache._entries")
            self._entries.clear()
