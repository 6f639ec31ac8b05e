"""Call/token/latency accounting for the simulated LM."""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.obs import racecheck


@dataclass
class Usage:
    """Cumulative usage counters; snapshot-and-subtract friendly.

    :meth:`add` is the only code that changes a field, so a new counter
    is a field here and the ``add`` call that emits it.  One line per
    group, and who emits it:

    - ``calls`` … ``context_errors``: work the model performed, emitted
      by :class:`~repro.lm.model.SimulatedLM` (under threads, every
      model call is made by the serving layer's flush, which holds
      ``BatchingLM._cv``).  A retried call that re-runs the model is
      billed again; work reused from a partially failed batch is not.
    - ``cache_hits`` / ``cache_misses``: the serving prompt cache
      (:class:`repro.serve.BatchingLM`), once per *logical* request at
      first submission — a retry is a continuation, not a new miss.
    - ``faults_injected``: :class:`repro.lm.faults.FaultyLM`, one per
      injected fault.
    - everything else — UDF cache and cascade traffic, optimizer
      decisions, dropped rows, the resilience, repair and semantic-cache
      counters — by the layer that owns the event.  What each one
      counts is documented where it is emitted (``db/plan.py``'s
      counter contract, ``serve/resilience.py``, ``core/repair.py``,
      ``serve/semantic.py``).

    A hit of either cache touches no call/token/latency counter, so
    cached work is never double-metered, and every counter outside the
    first group stays zero on a healthy, uncached, unrepaired run: its
    accounting is bit-identical with or without those layers.
    """

    #: Guards every field's read-modify-write: several holders on
    #: several threads share one Usage (five databases bound to one
    #: ``lm.usage``, every serving worker's middleware).  One per
    #: process, on the class rather than a field, so the dataclass's
    #: fields stay the counters (``snapshot``, ``since``, ``==``,
    #: ``repr`` and copies see only them).
    _lock = threading.Lock()

    calls: int = 0
    batches: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0
    simulated_seconds: float = 0.0
    context_errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    udf_cache_hits: int = 0
    udf_cache_misses: int = 0
    cascade_cheap_hits: int = 0
    cascade_escalations: int = 0
    optimizer_decisions: int = 0
    faults_injected: int = 0
    retries: int = 0
    breaker_trips: int = 0
    deadline_exceeded: int = 0
    repair_attempts: int = 0
    repair_successes: int = 0
    repair_exhausted: int = 0
    rows_truncated: int = 0
    semcache_hits: int = 0
    semcache_misses: int = 0
    semcache_near_hits: int = 0
    semcache_invalidations: int = 0

    def add(self, **amounts: float) -> None:
        """Count ``name=amount`` for each keyword: the one writer.

        An unknown name is a ``KeyError`` (before anything is counted);
        a zero amount changes nothing.
        """
        unknown = amounts.keys() - self.__dataclass_fields__.keys()
        if unknown:
            raise KeyError(min(unknown))
        counted = [(name, n) for name, n in amounts.items() if n]
        if counted:
            with racecheck.guard("Usage._lock", self._lock):
                racecheck.write("Usage.counters")
                for name, amount in counted:
                    setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> "Usage":
        return Usage(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def since(self, earlier: "Usage") -> "Usage":
        """Usage accumulated since an earlier snapshot."""
        return Usage(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )
