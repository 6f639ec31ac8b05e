"""The self-correcting pipeline: deterministic validate→repair→retry.

One bad generation should not be a terminal failure.  The analyzer
pre-flight and the engine already say *exactly* why a synthesized query
is broken (span-level ANA diagnostics, syntax positions, planning
errors); feedback-driven self-correction feeds that evidence back to
the model and retries — the loop SQL-repair studies show recovers a
large fraction of invalid/hallucinated text-to-SQL generations.

:class:`SelfCorrectingPipeline` is a :class:`~repro.core.tag
.TAGPipeline` whose exec step wraps a bounded repair loop:

1. run exec as usual (the analyzer pre-flight runs inside the executor
   when enabled);
2. on an engine failure (:class:`~repro.errors.DatabaseError`), build a
   repair prompt from the schema, the failed SQL, and the structured
   diagnostics (:func:`describe_failure`), ask the LM for a corrected
   query, and re-execute;
3. repeat up to ``policy.max_repairs`` times; when the budget runs dry,
   raise :class:`~repro.errors.RepairExhaustedError` carrying the full
   attempt history — the pipeline's normal error capture turns it into
   a structured ``TAGError`` (kind ``"repair_exhausted"``), so a
   :class:`~repro.core.tag.FallbackPipeline` degrades to its next tier
   exactly as for any other failure.

Every attempt is recorded as a :class:`RepairAttempt` on
``TAGResult.repairs`` (success or not) and on the per-request
transcript (:func:`render_transcript`), and counted in the LM's
:class:`~repro.lm.usage.Usage`: ``repair_attempts`` one
per repair prompt issued, ``repair_successes`` one per request whose
repaired SQL executed cleanly, ``repair_exhausted`` one per request
that spent the whole ``max_repairs`` budget and degraded.

Determinism.  With ``max_repairs=0`` the pipeline takes *exactly* the
base class's code path — byte-identical traces, usage, and answers.
With repairs enabled, every input to the loop (failed SQL, rendered
diagnostics, prompt text, LM response) is a pure function of the
request and the catalog, so repair schedules are identical across runs
and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.tag import TAGError, TAGPipeline, TAGResult
from repro.errors import (
    AnalysisError,
    DatabaseError,
    RepairExhaustedError,
    SQLSyntaxError,
)
from repro.lm.prompts import repair_prompt
from repro.obs import trace


@dataclass(frozen=True)
class RepairPolicy:
    """How much repair a pipeline may spend on one request."""

    #: Repair prompts allowed per request; 0 disables the loop (the
    #: pipeline then behaves byte-identically to a plain TAGPipeline).
    max_repairs: int = 2
    #: Generation budget for each repair completion.
    max_tokens: int = 256

    def __post_init__(self) -> None:
        if self.max_repairs < 0:
            raise ValueError(
                f"max_repairs must be >= 0, got {self.max_repairs}"
            )
        if self.max_tokens <= 0:
            raise ValueError(
                f"max_tokens must be > 0, got {self.max_tokens}"
            )


@dataclass
class RepairAttempt:
    """One entry of a request's repair transcript.

    ``attempt`` 0 is the original synthesis; 1..N are repairs.  A
    successful attempt has ``error is None`` and empty ``diagnostics``;
    a failed one carries the structured error plus the flattened
    diagnostics text that was fed into the next repair prompt.
    """

    attempt: int
    sql: str
    error: TAGError | None = None
    diagnostics: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


def describe_failure(error: BaseException) -> str:
    """Structured diagnostics text for a failed SQL attempt.

    Analyzer rejections render every error-severity diagnostic with its
    span; syntax errors carry their position; other engine failures
    fall back to the exception's class and message.  This is the text a
    repair prompt grounds its correction on, so it must name the
    offending identifiers the way the handlers expect.
    """
    report = getattr(error, "report", None)
    if isinstance(error, AnalysisError) and report is not None:
        return "; ".join(
            diagnostic.render() for diagnostic in report.errors
        )
    if isinstance(error, SQLSyntaxError) and error.position is not None:
        return f"syntax error at position {error.position}: {error}"
    return f"{type(error).__name__}: {error}"


def render_transcript(attempts: list[RepairAttempt]) -> str:
    """Human-readable repair transcript (used by reports and tests)."""
    if not attempts:
        return "repair transcript: no attempts"
    outcome = "repaired" if attempts[-1].ok else "exhausted"
    lines = [
        f"repair transcript: {len(attempts)} attempts, {outcome}"
    ]
    for entry in attempts:
        stage = "synthesis" if entry.attempt == 0 else "repair"
        status = "ok" if entry.ok else "failed"
        lines.append(f"attempt {entry.attempt} ({stage}): {status}")
        lines.append(f"  sql: {' '.join(entry.sql.split())}")
        if entry.error is not None:
            lines.append(f"  error: {entry.error}")
        if entry.diagnostics:
            lines.append(f"  diagnostics: {entry.diagnostics}")
    return "\n".join(lines)


class SelfCorrectingPipeline(TAGPipeline):
    """A TAGPipeline whose exec step runs the bounded repair loop.

    ``lm`` is any ``complete``-shaped model (the same object the
    synthesis step uses, so repair tokens land in the same
    :class:`~repro.lm.usage.Usage`); ``schema_sql`` is the BIRD schema
    encoding of the catalog the queries run against (normally
    ``dataset.prompt_schema()``).  ``external_knowledge`` is forwarded
    into repair prompts so a repaired generation sees the same evidence
    the original one did.
    """

    def __init__(
        self,
        synthesis,
        execution,
        generation,
        lm,
        schema_sql: str,
        policy: RepairPolicy | None = None,
        external_knowledge: str | None = None,
    ) -> None:
        super().__init__(synthesis, execution, generation)
        self.lm = lm
        self.schema_sql = schema_sql
        self.policy = policy if policy is not None else RepairPolicy()
        self.external_knowledge = external_knowledge

    def _execute_step(
        self, request: str, result: TAGResult
    ) -> list[dict[str, Any]]:
        try:
            return super()._execute_step(request, result)
        except DatabaseError as error:
            if self.policy.max_repairs < 1 or not isinstance(
                result.query, str
            ):
                raise
            return self._repair(request, result, error)

    # ------------------------------------------------------------------
    # the repair loop
    # ------------------------------------------------------------------

    def _repair(
        self, request: str, result: TAGResult, error: DatabaseError
    ) -> list[dict[str, Any]]:
        attempts = [self._failed_attempt(0, result.query, error)]
        usage = getattr(self.lm, "usage", None)
        result.repairs = attempts
        for attempt in range(1, self.policy.max_repairs + 1):
            failed = attempts[-1]
            trace.count(usage, repair_attempts=1)
            with trace.span(
                "repair", attempt=attempt, kind=failed.error.kind
            ):
                sql = self._resynthesize(request, failed, attempt)
                result.query = sql
                try:
                    with trace.span("step:execution"):
                        table = self.execution.execute(sql)
                except DatabaseError as retry_error:
                    attempts.append(
                        self._failed_attempt(attempt, sql, retry_error)
                    )
                    trace.event(
                        "repair.failed",
                        attempt=attempt,
                        kind=attempts[-1].error.kind,
                    )
                    continue
                attempts.append(RepairAttempt(attempt=attempt, sql=sql))
                trace.count(usage, repair_successes=1)
                trace.event("repair.succeeded", attempt=attempt)
                return table
        trace.count(usage, repair_exhausted=1)
        raise RepairExhaustedError(attempts) from error

    def _resynthesize(
        self, request: str, failed: RepairAttempt, attempt: int
    ) -> str:
        prompt = repair_prompt(
            self.schema_sql,
            request,
            failed.sql,
            failed.diagnostics,
            self.external_knowledge,
            attempt=attempt,
        )
        return self.lm.complete(
            prompt, max_tokens=self.policy.max_tokens
        ).text

    def _failed_attempt(
        self, attempt: int, sql: str, error: DatabaseError
    ) -> RepairAttempt:
        return RepairAttempt(
            attempt=attempt,
            sql=sql,
            error=TAGError.from_exception(error, step=1, sql=sql),
            diagnostics=describe_failure(error),
        )

