"""How a counter with two sinks is emitted: once, here.

Some counters are kept twice — in a field of a bound
:class:`~repro.lm.usage.Usage` and in a ``*_total`` instrument of a
bound :class:`~repro.obs.metrics.MetricsRegistry`.  :data:`METRIC_NAMES`
is the only table of which field goes with which instrument, and
:meth:`Meter.add` the only code that writes either, so the two cannot
disagree and a new counter is a ``Usage`` field, a row here and the
call that emits it.  (Counters the model itself keeps — calls, tokens,
simulated seconds, prompt-cache traffic, injected faults — have one
sink and one writer each and do not come through here; DESIGN §10 "How
a counter is emitted" says why.)
"""

from __future__ import annotations

import threading

from repro.obs import racecheck

#: Usage field -> instrument; None for a counter kept on Usage alone.
METRIC_NAMES = {
    "udf_cache_hits": "repro_udf_cache_hits_total",
    "udf_cache_misses": "repro_udf_cache_misses_total",
    "cascade_cheap_hits": "repro_cascade_cheap_hits_total",
    "cascade_escalations": "repro_cascade_escalations_total",
    "optimizer_decisions": "repro_optimizer_decisions_total",
    "rows_truncated": "repro_exec_rows_truncated_total",
    "repair_attempts": "repro_repair_attempts_total",
    "repair_successes": "repro_repair_successes_total",
    "repair_exhausted": "repro_repair_exhausted_total",
    "semcache_hits": "repro_semcache_hits_total",
    "semcache_misses": "repro_semcache_misses_total",
    "semcache_near_hits": "repro_semcache_near_hits_total",
    "semcache_invalidations": "repro_semcache_invalidations_total",
    "retries": None,
    "breaker_trips": None,
    "deadline_exceeded": None,
}


class Meter:
    """A pair of sinks, either of which may be absent."""

    __slots__ = ("usage", "metrics")

    #: Guards the read-modify-write of a Usage field.  On the class —
    #: one per process, not one per Meter — because several holders
    #: wrap the same Usage (five databases bound to one ``lm.usage``,
    #: every serving worker's middleware).
    _lock = threading.Lock()

    def __init__(self, usage=None, metrics=None) -> None:
        self.usage = usage
        self.metrics = metrics

    def add(self, name: str, amount: int = 1) -> None:
        """Count ``amount`` events of ``name`` (a :data:`METRIC_NAMES`
        key; anything else is a ``KeyError``).  Adding zero touches
        nothing, so an event that never happened has no instrument."""
        metric = METRIC_NAMES[name]
        if amount == 0:
            return
        usage = self.usage
        if usage is not None:
            with racecheck.guard("Meter._lock", self._lock):
                racecheck.write("Usage.meters")
                setattr(usage, name, getattr(usage, name) + amount)
        # Outside the lock: the registry has its own.
        if metric is not None and self.metrics is not None:
            self.metrics.counter(metric).inc(amount)
