"""Exception hierarchy for the TAG reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.  Subsystems define
narrower classes here rather than in their own modules so that error
handling does not require importing engine internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Relational engine errors
# --------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for relational-engine failures."""


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so Text2SQL failure diagnostics can
    report *where* a generated query broke.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class PlanningError(DatabaseError):
    """The query parsed but could not be bound to the catalog.

    Raised for unknown tables/columns, ambiguous references, misplaced
    aggregates, and similar semantic errors.  A name that binds to
    nothing carries its ``span``: the half-open ``(start, end)`` source
    range the analyzer's diagnostic for it points at, or None.
    """

    def __init__(
        self, message: str, span: tuple[int, int] | None = None
    ) -> None:
        super().__init__(message)
        self.span = span


class ExecutionError(DatabaseError):
    """A runtime failure while executing a query plan."""


class SchemaError(DatabaseError):
    """Invalid schema definition or a constraint violation on write."""


class AnalysisError(DatabaseError):
    """Static analysis rejected the query before planning.

    Carries the full :class:`repro.analysis.QueryReport` so callers can
    surface individual diagnostics (and their source spans) instead of
    one flattened message.  Raised by ``Database.execute(analyze=True)``
    and mapped to a ``TAGError`` of kind ``"analysis"`` at step 0 by the
    TAG pipeline.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


# --------------------------------------------------------------------------
# Repair loop errors (repro.core.repair)
# --------------------------------------------------------------------------


class RepairExhaustedError(ReproError):
    """The validate→repair→retry loop ran out of repair budget.

    Carries the full attempt history (a list of
    :class:`repro.core.repair.RepairAttempt`, original synthesis first)
    so the structured ``TAGError`` built from this exception — and any
    fallback tier that inspects it — can show every SQL candidate that
    was tried and why each one failed.  The last attempt's underlying
    engine error is chained as ``__cause__``.
    """

    def __init__(self, attempts: list) -> None:
        repairs = max(len(attempts) - 1, 0)
        super().__init__(
            f"repair budget exhausted after {repairs} "
            f"repair{'s' if repairs != 1 else ''} "
            f"({len(attempts)} failed attempts)"
        )
        self.attempts = list(attempts)


# --------------------------------------------------------------------------
# Simulated language model errors
# --------------------------------------------------------------------------


class LMError(ReproError):
    """Base class for simulated-LM failures."""


class ContextLengthError(LMError):
    """The prompt (plus requested generation) exceeds the context window.

    The paper's Text2SQL+LM baseline hits exactly this failure when it
    serializes too many retrieved rows into the generation prompt; the
    benchmark counts such queries as incorrect.
    """

    def __init__(self, prompt_tokens: int, context_window: int) -> None:
        super().__init__(
            f"prompt of {prompt_tokens} tokens exceeds the "
            f"{context_window}-token context window"
        )
        self.prompt_tokens = prompt_tokens
        self.context_window = context_window


class PromptRoutingError(LMError):
    """No registered handler recognised the prompt format."""


class TransientLMError(LMError):
    """A retryable serving-side failure (backend hiccup, shed load).

    Base class of every *injectable* fault: production LM serving sees
    rate limits, timeouts, and garbled outputs as routine events, and a
    client distinguishes them from permanent errors (bad prompt, context
    overflow) by whether a retry can succeed.  ``latency_s`` is the
    simulated seconds the failed call burned before erroring, so fault
    handling costs virtual time exactly like successful calls do.
    """

    retryable = True

    def __init__(self, message: str, latency_s: float = 0.0) -> None:
        super().__init__(message)
        self.latency_s = latency_s


class RateLimitError(TransientLMError):
    """The deployment shed this request (HTTP 429 analogue).

    Rejected at admission, so it burns almost no simulated compute.
    """


class LMTimeoutError(TransientLMError):
    """The call exceeded the serving timeout and was cancelled.

    The most expensive fault: the requester paid the full timeout in
    simulated seconds and got nothing back.
    """

    def __init__(self, timeout_s: float) -> None:
        super().__init__(
            f"LM call timed out after {timeout_s:g} simulated seconds",
            latency_s=timeout_s,
        )
        self.timeout_s = timeout_s


class MalformedOutputError(TransientLMError):
    """The model produced undecodable output (truncated/garbled text).

    The compute ran to completion — ``latency_s`` is a full call's worth
    — but the payload is unusable.  ``text`` carries the garbled output
    for diagnostics.
    """

    def __init__(self, text: str, latency_s: float = 0.0) -> None:
        super().__init__(
            f"malformed LM output: {text[:60]!r}", latency_s=latency_s
        )
        self.text = text


# --------------------------------------------------------------------------
# Resilience middleware errors (repro.serve.resilience)
# --------------------------------------------------------------------------


class DeadlineExceededError(LMError):
    """The request's simulated-seconds budget ran out before success.

    Raised by the resilience middleware when retries (attempt latencies
    plus backoff sleeps) would push a request past its deadline; the
    last underlying failure is chained as ``__cause__``.
    """

    def __init__(self, deadline_s: float, elapsed_s: float) -> None:
        super().__init__(
            f"deadline of {deadline_s:g}s exceeded after "
            f"{elapsed_s:g} simulated seconds"
        )
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class CircuitOpenError(LMError):
    """The circuit breaker is open: the call was rejected client-side.

    Fails fast by design — ``latency_s`` is always 0.0; no simulated LM
    compute is spent while the backend is known-bad.
    """

    latency_s = 0.0

    def __init__(self, cooldown_remaining_s: float) -> None:
        super().__init__(
            "circuit breaker open; half-opens in "
            f"{cooldown_remaining_s:g} simulated seconds"
        )
        self.cooldown_remaining_s = cooldown_remaining_s


# --------------------------------------------------------------------------
# Dataframe / semantic operator errors
# --------------------------------------------------------------------------


class FrameError(ReproError):
    """Invalid dataframe operation (unknown column, length mismatch, ...)."""


class SemanticOperatorError(ReproError):
    """A semantic operator received an invalid instruction or inputs."""


# --------------------------------------------------------------------------
# Benchmark errors
# --------------------------------------------------------------------------


class BenchmarkError(ReproError):
    """Benchmark configuration or evaluation failure."""
