"""Resilience middleware: retries, deadlines, and a circuit breaker.

``ResilientLM`` wraps any ``complete``/``complete_batch`` LM (typically
a :class:`~repro.serve.batching.BatchingLM`) and gives its caller the
client-side survival kit of production LM serving:

- **retry with exponential backoff** on
  :class:`~repro.errors.TransientLMError` (rate limits, timeouts,
  transient failures, malformed outputs) — backoff sleeps advance the
  :class:`~repro.serve.clock.VirtualClock`, so retries cost *simulated*
  seconds, never wall time, and every measured number stays
  machine-independent;
- **deterministic jitter** — the jitter multiplier is a pure hash of
  ``(seed, attempt, prompt)``, not a shared RNG, so backoff schedules
  are identical across runs and worker counts;
- **per-request deadlines** — a budget of simulated seconds (attempt
  latencies plus backoffs); when the next backoff would overrun it, the
  request dies with :class:`~repro.errors.DeadlineExceededError`;
- **a circuit breaker** — trips open after N consecutive transient
  failures, rejects calls instantly (zero simulated LM latency) while
  open, and half-opens after a cooldown measured on a virtual clock.

Policy time vs. makespan time.  The breaker's cooldown runs on the
``timeline`` clock — by default a private clock advanced only by the
costs *this* wrapper observes (its attempts' latencies and backoffs).
The shared makespan clock would be wrong here: concurrent workers
advance it at OS-schedule-dependent instants, so reading it for policy
decisions would make breaker transitions racy run-to-run.  A private
timeline is a pure function of this caller's own call sequence, which
keeps every report byte-identical across runs.  In single-threaded use
you may pass the shared clock as the timeline; the two coincide.

All policy events are counted with :meth:`~repro.lm.usage.Usage.add`:
``retries`` one per backoff sleep, ``breaker_trips`` one per
closed→open transition, ``deadline_exceeded`` one per deadline kill.
A backoff sleep is also charged to the request open on the sleeping
thread (:func:`repro.obs.trace.scope`), so a served request's ET
includes its waits.  With no faults occurring, the wrapper makes zero
extra calls, zero clock advances, and zero counts — a strict no-op.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    TransientLMError,
)
from repro.lm.model import LMConfig, LMResponse
from repro.lm.usage import Usage
from repro.obs import racecheck, trace
from repro.serve.clock import VirtualClock


def _unit_hash(*parts: object) -> float:
    """A deterministic draw in [0, 1) from the given parts."""
    digest = hashlib.sha256(
        "|".join(str(part) for part in parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter."""

    #: Total attempts, the first one included; 1 disables retries.
    max_attempts: int = 4
    base_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 8.0
    #: Jitter fraction j: the sleep is uniform in [base*(1-j), base*(1+j)].
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_seconds(self, prompt: str, attempt: int) -> float:
        """Sleep before retrying ``prompt`` after failed ``attempt``.

        Pure in its arguments: jitter comes from a hash, not an RNG
        stream, so the schedule never depends on call interleaving.
        """
        base = min(
            self.base_backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter == 0.0:
            return base
        unit = _unit_hash(self.seed, "backoff", attempt, prompt)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * unit)


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker thresholds (virtual seconds)."""

    #: Consecutive transient failures that trip the breaker open.
    failure_threshold: int = 5
    #: Simulated seconds an open breaker waits before half-opening.
    reset_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be > 0, got {self.reset_timeout_s}"
            )


class CircuitBreaker:
    """closed → open → half-open → closed, timed on a virtual clock.

    Closed counts consecutive transient failures; at the threshold the
    breaker opens and rejects calls instantly.  Once the clock passes
    ``opened_at + reset_timeout_s`` it half-opens: the next call is a
    probe — success closes the breaker, failure re-opens it (a fresh
    trip, cooldown restarted).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy, clock: VirtualClock) -> None:
        self.policy = policy
        self.clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def _sync_locked(self) -> None:
        if (
            self._state == self.OPEN
            and self.clock.now()
            >= self._opened_at + self.policy.reset_timeout_s
        ):
            self._state = self.HALF_OPEN

    @property
    def state(self) -> str:
        with racecheck.guard("CircuitBreaker._lock", self._lock):
            racecheck.write("CircuitBreaker.state")
            self._sync_locked()
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open allows the probe.)"""
        with racecheck.guard("CircuitBreaker._lock", self._lock):
            racecheck.write("CircuitBreaker.state")
            self._sync_locked()
            return self._state != self.OPEN

    def cooldown_remaining(self) -> float:
        with racecheck.guard("CircuitBreaker._lock", self._lock):
            racecheck.write("CircuitBreaker.state")
            self._sync_locked()
            if self._state != self.OPEN:
                return 0.0
            return (
                self._opened_at
                + self.policy.reset_timeout_s
                - self.clock.now()
            )

    def record_success(self) -> None:
        with racecheck.guard("CircuitBreaker._lock", self._lock):
            racecheck.write("CircuitBreaker.state")
            self._sync_locked()
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count a transient failure; True iff this one tripped it open."""
        with racecheck.guard("CircuitBreaker._lock", self._lock):
            racecheck.write("CircuitBreaker.state")
            self._sync_locked()
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self.clock.now()
                self._consecutive_failures = 0
                return True
            self._consecutive_failures += 1
            if (
                self._state == self.CLOSED
                and self._consecutive_failures
                >= self.policy.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self.clock.now()
                self._consecutive_failures = 0
                return True
            return False


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a :class:`ResilientLM` enforces."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-request budget of simulated seconds; None disables deadlines.
    deadline_s: float | None = None
    #: None disables the circuit breaker.
    breaker: BreakerPolicy | None = None

    @classmethod
    def no_retry(cls, **overrides) -> "ResiliencePolicy":
        """The baseline policy: one attempt, nothing else."""
        return cls(retry=RetryPolicy(max_attempts=1), **overrides)


class ResilientLM:
    """Retry/deadline/breaker middleware with the SimulatedLM surface."""

    def __init__(
        self,
        inner,
        policy: ResiliencePolicy | None = None,
        clock: VirtualClock | None = None,
        timeline: VirtualClock | None = None,
    ) -> None:
        self._inner = inner
        self.policy = policy or ResiliencePolicy()
        #: Shared makespan clock billed for backoff sleeps (optional).
        self._clock = clock
        #: Policy timeline: this caller's own consumed simulated time.
        self._timeline = timeline or VirtualClock()
        self.breaker = (
            CircuitBreaker(self.policy.breaker, self._timeline)
            if self.policy.breaker is not None
            else None
        )

    # ------------------------------------------------------------------
    # SimulatedLM-compatible surface
    # ------------------------------------------------------------------

    @property
    def usage(self) -> Usage:
        return self._inner.usage

    @property
    def config(self) -> LMConfig:
        return self._inner.config

    def complete(
        self, prompt: str, max_tokens: int | None = None
    ) -> LMResponse:
        return self._drive(prompt, max_tokens, None)

    def complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ) -> list[LMResponse]:
        """Healthy batches pass through untouched (identical batch
        composition and cost to no middleware at all).

        The inner model is a :class:`~repro.serve.batching.BatchingLM`
        (``TagServer`` builds it so), whose ``try_complete_batch``
        reports each prompt's outcome: a partially failed batch keeps
        its successful responses and re-drives *only* the failed
        prompts — already-billed work is never re-executed, so
        ``calls`` and token counters stay honest under retry.
        """
        if not prompts:
            return []
        self._check_breaker()
        outcomes = self._inner.try_complete_batch(prompts, max_tokens)
        results: list[LMResponse] = []
        for prompt, outcome in zip(prompts, outcomes):
            if isinstance(outcome, LMResponse):
                self._timeline.advance(outcome.latency_s)
                if self.breaker is not None:
                    self.breaker.record_success()
                results.append(outcome)
            elif isinstance(outcome, TransientLMError):
                results.append(self._drive(prompt, max_tokens, outcome))
            else:
                raise outcome
        return results

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _drive(
        self,
        prompt: str,
        max_tokens: int | None,
        failure: TransientLMError | None,
    ) -> LMResponse:
        """The retry loop for one prompt.

        ``failure`` optionally seeds the loop with a transient error
        that already happened (a failed slot of a batch): attempt 1 is
        charged for it and the loop proceeds straight to
        backoff-and-retry, exactly as if this wrapper had made the
        failing call itself.
        """
        retry = self.policy.retry
        deadline = self.policy.deadline_s
        spent = 0.0
        attempt = 1
        while True:
            if failure is None:
                self._check_breaker()
                try:
                    response = self._inner.complete(prompt, max_tokens)
                except TransientLMError as exc:
                    failure = exc
                else:
                    self._timeline.advance(response.latency_s)
                    if self.breaker is not None:
                        self.breaker.record_success()
                    return response
            error, failure = failure, None
            cost = error.latency_s
            spent += cost
            self._timeline.advance(cost)
            if self.breaker is not None and self.breaker.record_failure():
                self.usage.add(breaker_trips=1)
                trace.event("breaker.trip")
            if attempt >= retry.max_attempts:
                raise error
            backoff = retry.backoff_seconds(prompt, attempt)
            if deadline is not None and spent + backoff > deadline:
                self.usage.add(deadline_exceeded=1)
                trace.event(
                    "deadline.exceeded", deadline=deadline, spent=spent
                )
                raise DeadlineExceededError(deadline, spent) from error
            trace.leaf("retry.backoff", backoff, attempt=attempt)
            self._sleep(backoff)
            spent += backoff
            attempt += 1

    def _check_breaker(self) -> None:
        if self.breaker is not None and not self.breaker.allow():
            # Fail fast: no simulated LM latency, no clock advance.
            cooldown = self.breaker.cooldown_remaining()
            trace.event("breaker.open", cooldown=cooldown)
            raise CircuitOpenError(cooldown)

    def _sleep(self, seconds: float) -> None:
        """A backoff sleep in simulated time.

        Advances the policy timeline, bills the shared makespan clock
        (retries cost simulated seconds, not wall time), and charges
        the wait to the request open on this thread.
        """
        self._timeline.advance(seconds)
        if self._clock is not None and self._clock is not self._timeline:
            self._clock.advance(seconds)
        scope = trace.scope()
        if scope is not None:
            scope.charge(et_seconds=seconds)
        self.usage.add(retries=1)
