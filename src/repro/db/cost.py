"""Cost-model constants and the predicate-selectivity estimator.

The analyzer multiplies its bound on expensive-UDF call sites by the
per-call token constants below to turn "at most N LM invocations" into
an estimated token budget, and the query optimizer prices its routes
with them.  They match the simulated LM's typical TAG-UDF shape (a
short per-row classification prompt and a one-phrase answer).

:func:`predicate_selectivity` is the shared estimator behind the query
optimizer's predicate-reorder and pushdown decisions and the analyzer's
expected-row figures.  It is deliberately classical (System R-style
magic numbers refined by catalog statistics) and deliberately *not* a
bound: selectivities are expectations used to choose among plans, while
the analyzer's ``CostEstimate`` call/token fields stay
worst-case bounds for admission control.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.db.sql import ast

#: Fallback selectivity for predicates the estimator has no rule or no
#: statistics for (System R's classic 1/3).
DEFAULT_SELECTIVITY = 1 / 3

#: Magic selectivities for shapes where only the operator is known.
RANGE_SELECTIVITY = 1 / 3
BETWEEN_SELECTIVITY = 1 / 4
LIKE_SELECTIVITY = 1 / 10

#: Prompt and output tokens charged per estimated LM-UDF invocation.
PROMPT_TOKENS_PER_CALL = 48
OUTPUT_TOKENS_PER_CALL = 8
TOKENS_PER_CALL = PROMPT_TOKENS_PER_CALL + OUTPUT_TOKENS_PER_CALL

#: Tokens charged per *cheap-tier* (cascade) invocation: 12 prompt, 2
#: output.
CHEAP_TOKENS_PER_CALL = 12 + 2

#: Expected fraction of cheap-tier calls that escalate to the expensive
#: tier (the cheap classifier answers None).  Used only to *price* the
#: cascade route; the executor meters the real rate.
CASCADE_ESCALATION_RATE = 0.5


@dataclass(frozen=True)
class ColumnStats:
    """Catalog statistics for one stored column."""

    rows: int
    #: Distinct values, NULL counted as one of them.
    distinct: int
    nulls: int

    @property
    def null_fraction(self) -> float:
        return self.nulls / self.rows if self.rows else 0.0


#: Resolves a column reference ``(name, table_or_None)`` to stats, or
#: None when the column is computed / unresolvable; a statement's is
#: :meth:`repro.db.resolve.Scope.stats`, which reads the statistics of
#: the stored column the reference binds to.
StatsLookup = Callable[[str, "str | None"], "ColumnStats | None"]


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _column_stats(
    expression: ast.Expression, stats: StatsLookup
) -> ColumnStats | None:
    if isinstance(expression, ast.ColumnRef):
        return stats(expression.name, expression.table)
    return None


def _comparison_selectivity(
    node: ast.BinaryOp, stats: StatsLookup, default: float
) -> float:
    """``col <op> literal`` (either side), from distinct counts."""
    for ref, other in ((node.left, node.right), (node.right, node.left)):
        column = _column_stats(ref, stats)
        if column is None or not isinstance(other, ast.Literal):
            continue
        distinct = max(column.distinct, 1)
        if node.op == "=":
            return _clamp(1.0 / distinct)
        if node.op == "<>":
            # Complement of equality — NOT the blanket default.  (This
            # is the negated-predicate estimate the equivalence harness
            # pinned down; see tests/analysis/test_selectivity.py.)
            return _clamp(1.0 - 1.0 / distinct)
        return RANGE_SELECTIVITY
    if node.op in ("<", "<=", ">", ">="):
        return RANGE_SELECTIVITY
    return default


def predicate_selectivity(
    expression: ast.Expression,
    stats: StatsLookup,
    default: float = DEFAULT_SELECTIVITY,
) -> float:
    """Expected fraction of rows satisfying ``expression``.

    Catalog-driven where possible (equality via distinct counts,
    IS [NOT] NULL via null fractions), complement-correct for negation
    (``NOT p`` is ``1 - sel(p)``, ``col <> lit`` is the complement of
    ``col = lit``), and composable over AND (product, assuming
    independence) and OR (inclusion-exclusion).  Always in [0, 1].
    """
    node = expression
    if isinstance(node, ast.UnaryOp) and node.op == "NOT":
        return _clamp(
            1.0 - predicate_selectivity(node.operand, stats, default)
        )
    if isinstance(node, ast.BinaryOp):
        if node.op == "AND":
            return _clamp(
                predicate_selectivity(node.left, stats, default)
                * predicate_selectivity(node.right, stats, default)
            )
        if node.op == "OR":
            left = predicate_selectivity(node.left, stats, default)
            right = predicate_selectivity(node.right, stats, default)
            return _clamp(left + right - left * right)
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison_selectivity(node, stats, default)
        return default
    if isinstance(node, ast.IsNullExpression):
        column = _column_stats(node.operand, stats)
        if column is None or column.rows == 0:
            fraction = default
        else:
            fraction = column.null_fraction
        return _clamp(1.0 - fraction if node.negated else fraction)
    if isinstance(node, ast.BetweenExpression):
        fraction = BETWEEN_SELECTIVITY
        return _clamp(1.0 - fraction if node.negated else fraction)
    if isinstance(node, ast.LikeExpression):
        fraction = LIKE_SELECTIVITY
        return _clamp(1.0 - fraction if node.negated else fraction)
    if isinstance(node, ast.InList):
        column = _column_stats(node.operand, stats)
        if column is not None:
            fraction = _clamp(
                len(node.items) / max(column.distinct, 1)
            )
        else:
            fraction = _clamp(len(node.items) * default)
        return _clamp(1.0 - fraction if node.negated else fraction)
    if isinstance(node, ast.Literal):
        if node.value is None:
            return 0.0
        if isinstance(node.value, bool) or isinstance(node.value, int):
            return 1.0 if node.value else 0.0
        return default
    return default
