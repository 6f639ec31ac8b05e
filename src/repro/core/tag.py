"""TAGPipeline: the composed syn -> exec -> gen loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.errors import ReproError
from repro.obs import trace

#: Pipeline step names, indexed by the order they run.
STEP_NAMES = ("synthesis", "execution", "generation")


@dataclass
class TAGError:
    """A structured failure record: what broke, where, and why.

    Degradation decisions (fallback chains, serving reports, tests)
    match on ``kind`` and ``step`` rather than parsing strings; the
    original exception rides along for re-raising and diagnostics but
    is excluded from equality, so two runs that fail identically
    compare equal.

    ``sql`` preserves the SQL text that was being executed (or that
    analysis rejected) and ``step_input`` the failing step's input
    (the request for syn, the query for exec, the table for gen) — so
    error reports and repair prompts can show *what* was run, not just
    that it broke.  ``repairs`` carries the full repair-attempt history
    when the failure came through the self-correcting pipeline's
    exhausted budget (:mod:`repro.core.repair`).
    """

    #: Exception class name, e.g. ``"SQLSyntaxError"``.
    kind: str
    message: str
    #: Index into :data:`STEP_NAMES` of the failing step; None when the
    #: failure happened outside the pipeline (e.g. in a serving worker).
    step: int | None = None
    exception: Exception | None = field(
        default=None, repr=False, compare=False
    )
    #: The SQL text whose execution (or analysis) failed, when known.
    sql: str | None = None
    #: The failing step's input; excluded from equality and repr like
    #: the exception (it may be a large table or non-comparable object).
    step_input: Any = field(default=None, repr=False, compare=False)
    #: Repair attempts (:class:`repro.core.repair.RepairAttempt`) that
    #: preceded this failure, original synthesis first; empty unless the
    #: self-correcting pipeline exhausted its budget.
    repairs: list = field(default_factory=list)

    @classmethod
    def from_exception(
        cls,
        exception: Exception,
        step: int | None = None,
        sql: str | None = None,
        step_input: Any = None,
    ) -> "TAGError":
        from repro.errors import AnalysisError, RepairExhaustedError

        # The record outlives the frames that failed, and usually lands
        # in a result one of those frames holds: keeping the traceback
        # would tie every such result into a reference cycle.
        exception.__traceback__ = None
        if isinstance(exception, RepairExhaustedError):
            # The repair loop ran dry: surface the budget exhaustion as
            # its own kind with the whole attempt history attached, so
            # fallback tiers and reports can show every candidate tried.
            attempts = exception.attempts
            return cls(
                kind="repair_exhausted",
                message=str(exception),
                step=1,
                exception=exception,
                sql=attempts[-1].sql if attempts else sql,
                step_input=step_input,
                repairs=list(attempts),
            )
        if isinstance(exception, AnalysisError):
            # Static analysis rejects the *synthesized* SQL, so the
            # fault is pinned on step 0 (synthesis) regardless of where
            # the pre-flight ran: the LM produced a query the catalog
            # cannot satisfy.
            return cls(
                kind="analysis",
                message=str(exception),
                step=0,
                exception=exception,
                sql=sql,
                step_input=step_input,
            )
        return cls(
            kind=type(exception).__name__,
            message=str(exception),
            step=step,
            exception=exception,
            sql=sql,
            step_input=step_input,
        )

    @property
    def step_name(self) -> str | None:
        return STEP_NAMES[self.step] if self.step is not None else None

    def to_exception(self) -> Exception:
        """The original exception, or a reconstruction if detached."""
        if self.exception is not None:
            return self.exception
        return ReproError(str(self))

    def __str__(self) -> str:
        where = f" (during {self.step_name})" if self.step is not None else ""
        return f"{self.kind}: {self.message}{where}"


@dataclass
class FallbackAttempt:
    """One failed tier of a fallback chain: who tried, how it failed."""

    method: str
    error: TAGError


@dataclass
class TAGResult:
    """Outcome of one TAG run.

    ``query`` is whatever ``syn`` produced (SQL text, an embedding
    request, ...); ``table`` is the data ``exec`` computed (a list of
    records); ``answer`` is the final natural-language answer or value
    list.  ``error`` carries the failure as a structured
    :class:`TAGError` when a step raised — the benchmark counts errored
    queries as incorrect, as the paper does for invalid generated SQL
    and context-length failures.

    When the result came through a :class:`FallbackPipeline`,
    ``method`` names the tier that produced it, ``degraded`` is True if
    any earlier tier failed first, and ``fallbacks`` records those
    failures in order — a served request's full degradation history.
    """

    request: str
    query: Any = None
    table: list[dict[str, Any]] = field(default_factory=list)
    answer: Any = None
    error: TAGError | None = None
    #: Name of the fallback tier that produced this result, if any.
    method: str | None = None
    #: True when at least one higher-preference tier failed first.
    degraded: bool = False
    #: Failed tiers that preceded this result, in attempt order.
    fallbacks: list[FallbackAttempt] = field(default_factory=list)
    #: Repair-attempt transcript (:class:`repro.core.repair
    #: .RepairAttempt`) when a self-correcting pipeline ran the repair
    #: loop for this request — present whether the loop succeeded or
    #: exhausted its budget; empty when no repair fired.
    repairs: list = field(default_factory=list)
    #: Root :class:`repro.obs.trace.Span` of this run, when the server
    #: traced it.  Excluded from equality: two identically-failing runs
    #: still compare equal whether or not one was traced.
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None


class SynthesisStep(Protocol):
    """syn(R) -> Q (paper Eq. 1)."""

    def synthesize(self, request: str) -> Any: ...  # noqa: E704


class ExecutionStep(Protocol):
    """exec(Q) -> T (paper Eq. 2)."""

    def execute(self, query: Any) -> list[dict[str, Any]]: ...  # noqa: E704


class GenerationStep(Protocol):
    """gen(R, T) -> A (paper Eq. 3)."""

    def generate(
        self, request: str, table: list[dict[str, Any]]
    ) -> Any: ...  # noqa: E704


class TAGPipeline:
    """One iteration of the TAG model (the paper's tractable definition).

    Exceptions from any step are captured on the result rather than
    propagated: a TAG *system* must report an answer (or lack of one)
    for every request, and the benchmark scores failures as incorrect.
    This deliberately covers *all* exceptions, not just
    :class:`~repro.errors.ReproError` — a buggy step (bad UDF, broken
    custom generator) must fail one request, not kill the serving
    worker running it.  ``KeyboardInterrupt``/``SystemExit`` still
    propagate, so operator interrupts are never swallowed.
    """

    def __init__(
        self,
        synthesis: SynthesisStep,
        execution: ExecutionStep,
        generation: GenerationStep,
    ) -> None:
        self.synthesis = synthesis
        self.execution = execution
        self.generation = generation

    def run(self, request: str) -> TAGResult:
        result = TAGResult(request=request)
        step = 0
        try:
            with trace.span("step:synthesis"):
                result.query = self.synthesis.synthesize(request)
            step = 1
            result.table = self._execute_step(request, result)
            step = 2
            with trace.span("step:generation"):
                result.answer = self.generation.generate(
                    request, result.table
                )
        except Exception as error:  # noqa: BLE001 - see class docstring
            step_input = (request, result.query, result.table)[step]
            result.error = TAGError.from_exception(
                error,
                step=step,
                sql=(
                    result.query
                    if isinstance(result.query, str)
                    else None
                ),
                step_input=step_input,
            )
            trace.event(
                "step.error", step=STEP_NAMES[step], kind=result.error.kind
            )
        return result

    def _execute_step(
        self, request: str, result: TAGResult
    ) -> list[dict[str, Any]]:
        """Run exec for one request; the self-correcting pipeline's
        repair loop overrides exactly this seam."""
        with trace.span("step:execution"):
            return self.execution.execute(result.query)


class FallbackPipeline:
    """Graceful degradation: try tiers in preference order.

    A served request should degrade, not error: if the primary pipeline
    fails (a tripped breaker, an exhausted retry budget, broken SQL),
    the next tier answers instead — e.g. hand-written TAG falling back
    to Text2SQL-only, falling back to a refusal.  Each tier is a
    ``(name, pipeline)`` pair where the pipeline has ``run(request) ->
    TAGResult`` (a :class:`TAGPipeline`, another chain, anything
    duck-compatible).

    The returned result records its provenance: ``method`` is the tier
    that answered, ``degraded`` marks non-primary answers, and
    ``fallbacks`` lists every failed attempt's structured error.  When
    all tiers fail, the last tier's errored result is returned (the
    structured refusal) with the full failure history attached — the
    caller always gets exactly one result and never an exception.
    """

    def __init__(self, tiers: list[tuple[str, Any]]) -> None:
        if not tiers:
            raise ValueError("FallbackPipeline needs at least one tier")
        names = [name for name, _ in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = list(tiers)

    def run(self, request: str) -> TAGResult:
        attempts: list[FallbackAttempt] = []
        result = None
        for name, pipeline in self.tiers:
            with trace.span(f"tier:{name}"):
                result = pipeline.run(request)
            result.method = name
            result.degraded = bool(attempts)
            result.fallbacks = list(attempts)
            if result.ok:
                return result
            attempts.append(FallbackAttempt(method=name, error=result.error))
        # Every tier failed: the last result is the structured refusal.
        result.fallbacks = attempts[:-1]
        return result
