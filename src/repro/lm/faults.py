"""Deterministic fault injection for the simulated LM serving stack.

Production LM serving treats rate limits, timeouts, transient backend
failures, and garbled outputs as routine events; a serving layer that is
only ever exercised on a healthy model is untested where it matters.
:class:`FaultyLM` wraps any LM with the ``complete``/``complete_batch``
surface (:class:`~repro.lm.model.SimulatedLM`,
:class:`~repro.serve.batching.BatchingLM`) and injects faults from a
:class:`FaultPlan` — *deterministically*, so every faulty run is
reproducible bit-for-bit.

Determinism.  Rate-based faults are not drawn from a shared RNG stream
(that would make the schedule depend on call arrival order, i.e. on
thread scheduling and worker count).  Instead the draw for a call is a
pure function of ``(plan.seed, prompt, max_tokens, attempt)``, where
``attempt`` counts how many times this exact request has been evaluated
by this wrapper.  Two consequences:

- the fault schedule is identical across runs *and* across server
  worker counts — batch composition may change, the faults do not;
- a retry of the same request is a fresh draw (attempt advanced), so
  retries can succeed, while re-raising without re-evaluating cannot
  consume luck.

Scripted faults (``plan.script``) are consumed in call-arrival order
instead — precise per-call control for tests (e.g. "fail the next five
calls") under a serialized, deterministic call schedule.

Batch contract.  ``complete_batch`` *peeks*: if any prompt in the batch
would draw an *error* fault, the batch raises that fault without
consuming any attempt or billing anything — "the batch was rejected".
Callers that need per-prompt outcomes (``BatchingLM``'s chunk replay,
``ResilientLM``'s batch fallback) then replay prompts individually
through ``complete``, which is where faults are actually consumed and
metered.  Response-mutating kinds (``malformed_sql``, ``latency_spike``)
never reject a batch: the affected responses are returned mutated.

Accounting.  Every injected fault increments ``usage.faults_injected``;
fault errors carry ``latency_s`` (simulated seconds burned before the
failure) which is billed to ``usage.simulated_seconds`` — a timeout
costs the full timeout, a rate-limit rejection almost nothing, a
malformed output a full call (the compute ran; the payload is garbage).
Latency spikes return a real response with its latency inflated.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, replace

from repro.errors import (
    LMTimeoutError,
    MalformedOutputError,
    RateLimitError,
    TransientLMError,
)
from repro.lm.model import LMConfig, LMResponse, SimulatedLM
from repro.lm.usage import Usage

#: Injectable fault kinds, in cumulative-draw order.
ERROR_KINDS = ("rate_limit", "timeout", "transient", "malformed")
#: Generation-level fault kinds: the call *succeeds* but the payload is
#: wrong.  ``malformed_sql`` silently garbles the returned SQL text (a
#: plausible-but-broken generation — the dominant text-to-SQL failure
#: mode), so the failure only surfaces later, at parse/analysis/exec
#: time; ``latency_spike`` inflates the response's latency.
RESPONSE_KINDS = ("malformed_sql", "latency_spike")
FAULT_KINDS = ERROR_KINDS + RESPONSE_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, how often, and at what simulated cost.

    Rates are per-evaluation probabilities drawn independently per
    ``(prompt, attempt)``; their sum must not exceed 1.  ``script``
    overrides rates for the first ``len(script)`` evaluations (in call
    order): each entry is a kind from :data:`FAULT_KINDS` or ``None``
    for a healthy call.
    """

    seed: int = 0
    rate_limit_rate: float = 0.0
    timeout_rate: float = 0.0
    transient_rate: float = 0.0
    malformed_rate: float = 0.0
    #: Probability the call returns *garbled SQL text* instead of
    #: erroring — the generation-level fault the repair loop exists
    #: for.  Shares the error draw with the four error kinds (their
    #: rates plus this one must sum to <= 1).
    malformed_sql_rate: float = 0.0
    latency_spike_rate: float = 0.0
    script: tuple[str | None, ...] = ()
    #: Simulated seconds a timed-out call burns before failing.
    timeout_s: float = 30.0
    #: Simulated seconds an admission-rejected call burns.
    rate_limit_latency_s: float = 0.05
    #: Simulated seconds a transient backend failure burns.
    transient_latency_s: float = 0.2
    #: Multiplier applied to a spiked response's latency.
    latency_spike_factor: float = 10.0

    def __post_init__(self) -> None:
        rates = {
            "rate_limit_rate": self.rate_limit_rate,
            "timeout_rate": self.timeout_rate,
            "transient_rate": self.transient_rate,
            "malformed_rate": self.malformed_rate,
            "malformed_sql_rate": self.malformed_sql_rate,
            "latency_spike_rate": self.latency_spike_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        error_mass = sum(
            rate for name, rate in rates.items()
            if name != "latency_spike_rate"
        )
        if error_mass > 1.0:
            raise ValueError(
                f"error rates sum to {error_mass}, must be <= 1"
            )
        for entry in self.script:
            if entry is not None and entry not in FAULT_KINDS:
                raise ValueError(
                    f"unknown scripted fault {entry!r}; "
                    f"expected one of {FAULT_KINDS} or None"
                )
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.latency_spike_factor < 1.0:
            raise ValueError(
                "latency_spike_factor must be >= 1, got "
                f"{self.latency_spike_factor}"
            )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """A plan injecting ``rate`` total errors, split evenly across
        the four error kinds — the single-knob sweep axis of E14."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        return cls(
            seed=seed,
            rate_limit_rate=rate / 4,
            timeout_rate=rate / 4,
            transient_rate=rate / 4,
            malformed_rate=rate / 4,
            **overrides,
        )

    @property
    def is_healthy(self) -> bool:
        """True when the plan can never inject anything."""
        return not self.script and (
            self.rate_limit_rate
            == self.timeout_rate
            == self.transient_rate
            == self.malformed_rate
            == self.malformed_sql_rate
            == self.latency_spike_rate
            == 0.0
        )

    def draw(
        self, prompt: str, max_tokens: int | None, attempt: int
    ) -> str | None:
        """The rate-based fault for one evaluation; pure and seeded.

        Hash-derived (not ``random.Random``) so the result is a pure
        function of the arguments — independent of call order, worker
        count, and ``PYTHONHASHSEED``.
        """
        digest = hashlib.sha256(
            f"{self.seed}|{attempt}|{max_tokens}|{prompt}".encode()
        ).digest()
        error_draw = int.from_bytes(digest[:8], "big") / 2**64
        spike_draw = int.from_bytes(digest[8:16], "big") / 2**64
        cumulative = 0.0
        for kind, rate in zip(
            ERROR_KINDS + ("malformed_sql",),
            (
                self.rate_limit_rate,
                self.timeout_rate,
                self.transient_rate,
                self.malformed_rate,
                self.malformed_sql_rate,
            ),
        ):
            cumulative += rate
            if error_draw < cumulative:
                return kind
        if spike_draw < self.latency_spike_rate:
            return "latency_spike"
        return None


class FaultyLM:
    """Inject a :class:`FaultPlan` into any ``complete``-shaped LM."""

    def __init__(self, inner: SimulatedLM, plan: FaultPlan) -> None:
        self._inner = inner
        self.plan = plan
        self._lock = threading.Lock()
        #: (prompt, max_tokens) -> evaluations consumed so far.
        self._attempts: dict[tuple[str, int | None], int] = {}
        #: Next plan.script slot to consume.
        self._cursor = 0

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
        if self.plan.is_healthy:
            return self._inner.complete(prompt, max_tokens)
        kind = self._consume(prompt, max_tokens)
        if kind in ("rate_limit", "timeout", "transient"):
            raise self._cheap_fault(kind)
        response = self._inner.complete(prompt, max_tokens)
        if kind == "malformed":
            with self._lock:
                self.usage.add(faults_injected=1)
            raise MalformedOutputError(
                _garble(response.text), latency_s=response.latency_s
            )
        if kind == "malformed_sql":
            response = self._garble_sql(response)
        if kind == "latency_spike":
            response = self._spike(response)
        return response

    def complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ) -> list[LMResponse]:
        """All-or-nothing: a batch containing a would-fault prompt is
        rejected up front (nothing consumed or billed) — callers replay
        per-prompt via :meth:`complete` for per-request outcomes."""
        if self.plan.is_healthy or not prompts:
            return self._inner.complete_batch(prompts, max_tokens)
        with self._lock:
            kinds = [
                self._peek_locked(offset, prompt, max_tokens)
                for offset, prompt in enumerate(prompts)
            ]
        for kind in kinds:
            if kind in ("rate_limit", "timeout", "transient"):
                raise self._build_error(kind)
            if kind == "malformed":
                raise MalformedOutputError("<batch rejected>", latency_s=0.0)
        responses = self._inner.complete_batch(prompts, max_tokens)
        with self._lock:
            mutated = []
            for prompt, response in zip(prompts, responses):
                kind = self._consume_locked(prompt, max_tokens)
                if kind == "latency_spike":
                    response = self._spike_locked(response)
                elif kind == "malformed_sql":
                    response = self._garble_sql_locked(response)
                mutated.append(response)
        return mutated

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _fault_for(
        self,
        cursor: int,
        prompt: str,
        max_tokens: int | None,
        attempt: int,
    ) -> str | None:
        if cursor < len(self.plan.script):
            return self.plan.script[cursor]
        return self.plan.draw(prompt, max_tokens, attempt)

    def _peek_locked(
        self, offset: int, prompt: str, max_tokens: int | None
    ) -> str | None:
        key = (prompt, max_tokens)
        return self._fault_for(
            self._cursor + offset, prompt, max_tokens,
            self._attempts.get(key, 0),
        )

    def _consume_locked(
        self, prompt: str, max_tokens: int | None
    ) -> str | None:
        key = (prompt, max_tokens)
        attempt = self._attempts.get(key, 0)
        kind = self._fault_for(self._cursor, prompt, max_tokens, attempt)
        self._attempts[key] = attempt + 1
        self._cursor += 1
        return kind

    def _consume(self, prompt: str, max_tokens: int | None) -> str | None:
        with self._lock:
            return self._consume_locked(prompt, max_tokens)

    def _build_error(self, kind: str) -> TransientLMError:
        if kind == "rate_limit":
            return RateLimitError(
                "rate limited: deployment shed this request",
                latency_s=self.plan.rate_limit_latency_s,
            )
        if kind == "timeout":
            return LMTimeoutError(self.plan.timeout_s)
        return TransientLMError(
            "transient backend failure",
            latency_s=self.plan.transient_latency_s,
        )

    def _cheap_fault(self, kind: str) -> TransientLMError:
        """Build, meter, and bill a fault that never ran the model."""
        error = self._build_error(kind)
        with self._lock:
            self.usage.add(
                faults_injected=1, simulated_seconds=error.latency_s
            )
        return error

    def _spike_locked(self, response: LMResponse) -> LMResponse:
        extra = response.latency_s * (self.plan.latency_spike_factor - 1.0)
        self.usage.add(faults_injected=1, simulated_seconds=extra)
        return replace(response, latency_s=response.latency_s + extra)

    def _spike(self, response: LMResponse) -> LMResponse:
        with self._lock:
            return self._spike_locked(response)

    def _garble_sql_locked(self, response: LMResponse) -> LMResponse:
        self.usage.add(faults_injected=1)
        return replace(response, text=_garble_sql(response.text))

    def _garble_sql(self, response: LMResponse) -> LMResponse:
        with self._lock:
            return self._garble_sql_locked(response)


def _garble(text: str) -> str:
    """A deterministic 'truncated/corrupted decode' of a response."""
    cut = max(1, len(text) // 3)
    return text[:cut][::-1] + "�"


def _garble_sql(sql: str) -> str:
    """A deterministically-broken generation of a SQL response.

    Two variants, chosen by a pure hash of the text so the choice is
    run- and worker-invariant: a *hallucinated column* prepended to the
    SELECT list (parses, then fails binding — ANA003 territory), or a
    corrupted-decode prefix (fails to parse at all).  Both surface only
    when the caller tries to use the SQL, exactly like a real bad
    generation.
    """
    digest = hashlib.sha256(sql.encode()).digest()
    if digest[0] % 2:
        hallucinated = re.sub(
            r"^(\s*SELECT\s+)",
            r"\1hallucinated_col, ",
            sql,
            count=1,
            flags=re.IGNORECASE,
        )
        if hallucinated != sql:
            return hallucinated
    cut = max(1, len(sql) // 3)
    return sql[:cut][::-1] + sql[cut:]
