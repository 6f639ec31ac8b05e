"""How a counter written above the model is emitted: once, here.

Sixteen counters — UDF-cache and cascade traffic, optimizer decisions,
``max_rows`` drops, the repair loop, the semantic cache and the
resilience middleware — are fields of a bound
:class:`~repro.lm.usage.Usage` that several layers, some on several
threads, add to.  :data:`METRIC_NAMES` lists them and :meth:`Meter.add`
is the only code that writes one, so a new counter is a ``Usage``
field, a name here and the call that emits it.  (Counters the model
itself keeps — calls, tokens, simulated seconds, prompt-cache traffic,
injected faults — have one writer each and do not come through here;
DESIGN §10 "How a counter is emitted" says why.)
"""

from __future__ import annotations

import threading

from repro.obs import racecheck

#: The Usage fields only :meth:`Meter.add` writes.
METRIC_NAMES = frozenset(
    {
        "udf_cache_hits",
        "udf_cache_misses",
        "cascade_cheap_hits",
        "cascade_escalations",
        "optimizer_decisions",
        "rows_truncated",
        "repair_attempts",
        "repair_successes",
        "repair_exhausted",
        "semcache_hits",
        "semcache_misses",
        "semcache_near_hits",
        "semcache_invalidations",
        "retries",
        "breaker_trips",
        "deadline_exceeded",
    }
)


class Meter:
    """The Usage a holder's counters go to; None counts nowhere."""

    __slots__ = ("usage",)

    #: Guards the read-modify-write of a Usage field.  On the class —
    #: one per process, not one per Meter — because several holders
    #: wrap the same Usage (five databases bound to one ``lm.usage``,
    #: every serving worker's middleware).
    _lock = threading.Lock()

    def __init__(self, usage=None) -> None:
        self.usage = usage

    def add(self, name: str, amount: int = 1) -> None:
        """Count ``amount`` events of ``name`` (one of
        :data:`METRIC_NAMES`; anything else is a ``KeyError``).  Adding
        zero touches nothing."""
        if name not in METRIC_NAMES:
            raise KeyError(name)
        usage = self.usage
        if amount == 0 or usage is None:
            return
        with racecheck.guard("Meter._lock", self._lock):
            racecheck.write("Usage.meters")
            setattr(usage, name, getattr(usage, name) + amount)
