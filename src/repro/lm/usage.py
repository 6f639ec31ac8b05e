"""Call/token/latency accounting for the simulated LM."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Usage:
    """Cumulative usage counters; snapshot-and-subtract friendly.

    One line per group, and who writes it:

    - ``calls`` … ``context_errors``: work the model performed, written
      by :class:`~repro.lm.model.SimulatedLM` alone (under threads,
      every model call is made by the serving layer's flush, which
      holds ``BatchingLM._cv``).  A retried call that re-runs the model
      is billed again; work reused from a partially failed batch is
      not.
    - ``cache_hits`` / ``cache_misses``: the serving prompt cache
      (:class:`repro.serve.BatchingLM`), once per *logical* request at
      first submission — a retry is a continuation, not a new miss.
    - ``faults_injected``: :class:`repro.lm.faults.FaultyLM`, one per
      injected fault.
    - everything else — UDF cache and cascade traffic, optimizer
      decisions, dropped rows, the resilience, repair and semantic-cache
      counters — is emitted through :class:`repro.obs.meter.Meter`,
      whose ``METRIC_NAMES`` lists each.  What each one counts is
      documented where it is emitted (``db/plan.py``'s counter contract,
      ``serve/resilience.py``, ``core/repair.py``,
      ``serve/semantic.py``).

    A hit of either cache touches no call/token/latency counter, so
    cached work is never double-metered, and every counter outside the
    first group stays zero on a healthy, uncached, unrepaired run: its
    accounting is bit-identical with or without those layers.
    """

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
