"""Structured diagnostics for the static-analysis layer.

A :class:`Diagnostic` is one finding: a stable machine-readable code, a
human message, a severity, and (when the AST carried one) a source
:class:`Span` into the analyzed SQL text.  A :class:`QueryReport`
bundles every diagnostic for one statement together with the
:class:`CostEstimate` the admission controller consumes.

The diagnostic taxonomy (codes are stable API, tests pin them):

====== ======== ==========================================================
code   severity meaning
====== ======== ==========================================================
ANA001 error    SQL could not be parsed (syntax error)
ANA002 error    unknown table in FROM
ANA003 error    unknown column reference
ANA004 error    ambiguous unqualified column reference
ANA005 error    unknown function (not a builtin, aggregate, or UDF)
ANA006 error    aggregate misuse (in WHERE/GROUP BY, nested, or HAVING
                without grouping context)
ANA007 error    wrong number of arguments for a function
ANA008 error    operand type mismatch (arithmetic/function over TEXT, ...)
ANA009 error    ``*`` outside SELECT items / COUNT(*)
ANA010 warning  bare non-grouped column under GROUP BY (engine serves it
                via a hidden FIRST() — SQLite-style leniency)
ANA011 error    LIMIT/OFFSET is not an integer literal
ANA012 error    unknown type name in CAST
ANA013 error    subquery used as a value must produce exactly one column
ANA014 error    GROUP BY / ORDER BY ordinal out of range
====== ======== ==========================================================

Errors are *sound for admission*: a query with no error-severity
diagnostics is guaranteed (and property-tested) to plan and execute
without an engine error on any catalog-conforming data.  Warnings flag
constructs the engine tolerates but that usually indicate LM confusion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is; only ERROR blocks admission."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Span:
    """Half-open character range ``[start, end)`` into the source SQL."""

    start: int
    end: int

    @classmethod
    def at(cls, position: int | None, length: int = 1) -> "Span | None":
        """Span starting at a (possibly absent) AST position."""
        if position is None:
            return None
        return cls(position, position + max(length, 1))

    def caret_line(self, sql: str) -> str:
        """Two-line ``source\\n   ^^^`` rendering for CLI output."""
        line_start = sql.rfind("\n", 0, self.start) + 1
        line_end = sql.find("\n", self.start)
        if line_end == -1:
            line_end = len(sql)
        line = sql[line_start:line_end]
        offset = self.start - line_start
        width = max(1, min(self.end, line_end) - self.start)
        return f"{line}\n{' ' * offset}{'^' * width}"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    span: Span | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self, sql: str | None = None) -> str:
        where = (
            f" at {self.span.start}..{self.span.end}"
            if self.span is not None
            else ""
        )
        head = f"{self.severity.value} {self.code}{where}: {self.message}"
        if sql is not None and self.span is not None:
            return head + "\n  " + self.span.caret_line(sql).replace(
                "\n", "\n  "
            )
        return head

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class CostEstimate:
    """Deterministic upper bounds for one SELECT, from catalog stats.

    ``lm_calls`` bounds per-row invocations of *expensive* registered
    functions (LM UDFs); token counts apply the cost model's per-call
    constants.  All numbers are worst-case bounds, not expectations —
    admission control needs "can never exceed", not "probably around".
    """

    #: Upper bound on rows flowing out of the FROM tree (before WHERE).
    rows_scanned: int
    #: Upper bound on result rows (LIMIT applied when constant).
    result_rows: int
    #: Upper bound on expensive-UDF (LM) invocations, subqueries included.
    lm_calls: int
    #: ``lm_calls`` x per-call prompt-token constant.
    lm_prompt_tokens: int
    #: ``lm_calls`` x per-call output-token constant.
    lm_output_tokens: int
    #: Upper bound on invocations under the *batched* execution path
    #: (``udf_batch_size=...``), which deduplicates argument tuples:
    #: at most one invocation per distinct combination of argument
    #: column values (catalog distinct counts), capped by ``lm_calls``.
    lm_calls_batched: int = 0
    #: *Expected* result rows after WHERE, from the shared selectivity
    #: estimator (:func:`repro.db.cost.predicate_selectivity`).
    #: Unlike every other field this is an expectation, not a bound —
    #: the query optimizer uses it to rank plans; admission control
    #: must keep using the worst-case fields above.  None when the
    #: statement has no WHERE clause.
    expected_result_rows: int | None = None

    @property
    def lm_tokens(self) -> int:
        """Total estimated LM tokens (prompt + output)."""
        return self.lm_prompt_tokens + self.lm_output_tokens


@dataclass
class QueryReport:
    """Everything the analyzer learned about one statement."""

    sql: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: None when analysis stopped before costing (syntax/binding errors).
    cost: CostEstimate | None = None

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def render(self) -> str:
        """Multi-line human-readable report (the CLI's output)."""
        lines = [f"analyze: {'ok' if self.ok else 'rejected'}"]
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render(self.sql))
        if self.cost is not None:
            lines.append(
                "estimated rows scanned  "
                f"{self.cost.rows_scanned}"
            )
            lines.append(
                f"estimated result rows   {self.cost.result_rows}"
            )
            lines.append(f"estimated LM calls      {self.cost.lm_calls}")
            if self.cost.lm_calls:
                lines.append(
                    "estimated LM calls (batched path) "
                    f"{self.cost.lm_calls_batched}"
                )
            lines.append(
                "estimated LM tokens     "
                f"{self.cost.lm_tokens} "
                f"({self.cost.lm_prompt_tokens} prompt + "
                f"{self.cost.lm_output_tokens} output)"
            )
        return "\n".join(lines)
