"""SQL semantic analyzer: typecheck and cost a SELECT statically.

The analyzer walks a parsed :class:`~repro.db.sql.ast.Select` against a
:class:`~repro.db.Database` catalog *before* any plan is built.  Names
are bound, and calls checked, once, by :func:`repro.db.resolve.resolve`,
the same pass the planner plans from: the analyzer reports each
failure resolution records where its walk meets the node, and adds the
type rules.  Its error-severity diagnostics are **sound for
admission**: a query the analyzer accepts is guaranteed to plan and
execute without an engine error.  For names and calls the contract goes
both ways: the engine raises a :class:`~repro.errors.PlanningError`
for a name (ANA002/003/004/014) or a call (ANA005/006/007/009/012/013)
exactly when the analyzer reports one, and raises the analyzer's first,
at its span (property-tested in ``tests/analysis``).  Past that, the
analyzer keeps a *stricter admission*: ANA008's operand-kind rules and
ANA011's literal LIMIT reject what the engine tolerates or meets only
per row, because admission control wants cheap certainty over
completeness.

Alongside diagnostics it reports a :class:`CostEstimate`: catalog
cardinalities bound the rows each expression site can see, and every
call site of an *expensive* registered function (an LM UDF) adds
``rows_at_site`` potential invocations (the resolver records the
sites).  That bound is what :class:`repro.serve.TagServer` uses for
deterministic admission control.

See :mod:`repro.analysis.diagnostics` for the diagnostic taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.diagnostics import (
    CostEstimate,
    Diagnostic,
    QueryReport,
    Severity,
    Span,
)
from repro.db import Database
from repro.db.cost import OUTPUT_TOKENS_PER_CALL, PROMPT_TOKENS_PER_CALL
from repro.db.functions import Aggregate, Signature
from repro.db.resolve import Resolved, literal_limit, resolve
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.db.types import DataType, infer_type
from repro.errors import SQLSyntaxError

#: Internal expression type: a DataType, or None for the NULL literal
#: (NULL propagates through every operator without erroring).
ExprType = DataType | None

_NUMERIC = (DataType.INTEGER, DataType.REAL, DataType.BOOLEAN, DataType.ANY)
_TEXTUAL = (DataType.TEXT, DataType.ANY)


def _numeric_ok(t: ExprType) -> bool:
    return t is None or t in _NUMERIC


def _textual_ok(t: ExprType) -> bool:
    return t is None or t in _TEXTUAL


def _unify(*types: ExprType) -> ExprType:
    """Join of expression types: equal -> itself, mixed numeric -> REAL,
    anything else -> ANY; NULLs are transparent."""
    concrete = [t for t in types if t is not None]
    if not concrete:
        return None
    first = concrete[0]
    if all(t is first for t in concrete):
        return first
    if all(t in _NUMERIC and t is not DataType.ANY for t in concrete):
        return DataType.REAL
    return DataType.ANY


# ---------------------------------------------------------------------------
# Per-SELECT state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Context:
    """Where an expression sits, for the grouping warning."""

    #: The FROM named an unknown table (see :class:`repro.db.resolve.Scope`).
    open: bool = False
    group_expressions: tuple[ast.Expression, ...] = ()
    #: ``id`` of each column reference an aggregate query reads outside
    #: aggregate calls (items, HAVING, ORDER BY): ANA010 candidates.
    bare: frozenset[int] = frozenset()
    #: The SELECT items' types, for references to an output alias.
    item_types: tuple[ExprType, ...] = ()


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class SQLAnalyzer:
    """Static typechecker and cost estimator for one catalog.

    Stateless across calls; :meth:`analyze` may be invoked repeatedly
    and concurrently (each run keeps its state on a private ``_Run``).
    """

    def __init__(self, db: Database) -> None:
        self.db = db

    # -- entry points ----------------------------------------------------

    def analyze(self, sql: str | ast.Select, source: str = "") -> QueryReport:
        """Analyze SQL text (or a pre-parsed SELECT) into a QueryReport.

        ``source`` supplies the original SQL text when a pre-parsed AST
        is passed, so diagnostics can render caret excerpts.
        """
        if isinstance(sql, str):
            try:
                statement = parse_statement(sql)
            except SQLSyntaxError as error:
                return QueryReport(
                    sql=sql,
                    diagnostics=[
                        Diagnostic(
                            "ANA001",
                            str(error),
                            Severity.ERROR,
                            Span.at(error.position),
                        )
                    ],
                )
            source_text = sql
        else:
            statement = sql
            source_text = source
        if not isinstance(statement, ast.Select):
            # Only SELECT is analyzed; DDL/DML validate on execution.
            return QueryReport(sql=source_text)
        return self.report(resolve(self.db, statement), source_text)

    def report(self, resolved: Resolved, source: str) -> QueryReport:
        """The QueryReport of a SELECT already resolved against this
        catalog; ``source`` is its SQL text."""
        run = _Run(self.db, resolved)
        run.select(resolved.select)
        lm_calls = resolved.lm_calls
        cost = CostEstimate(
            rows_scanned=resolved.scope.rows,
            result_rows=resolved.result_rows,
            lm_calls=lm_calls,
            lm_prompt_tokens=lm_calls * PROMPT_TOKENS_PER_CALL,
            lm_output_tokens=lm_calls * OUTPUT_TOKENS_PER_CALL,
            lm_calls_batched=resolved.lm_calls_batched,
            expected_result_rows=resolved.expected_rows,
        )
        return QueryReport(sql=source, diagnostics=run.diagnostics, cost=cost)


class _Run:
    """One analysis pass over a resolved statement: accumulates
    diagnostics."""

    def __init__(self, db: Database, resolved: Resolved) -> None:
        self.functions = db.functions
        self.resolved = resolved
        self.failures = resolved.failures
        self.diagnostics: list[Diagnostic] = []
        #: The type of each column the FROM subqueries of the SELECT
        #: being checked expose, by the column's key and position.
        self.source_types: dict[tuple, ExprType] = {}

    # -- diagnostics -----------------------------------------------------

    def _diag(
        self,
        code: str,
        message: str,
        position: int | None = None,
        length: int = 1,
        severity: Severity = Severity.ERROR,
    ) -> None:
        diagnostic = Diagnostic(
            code, message, severity, Span.at(position, length)
        )
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def _report_at(self, node: object) -> bool:
        """Report the failure resolution keyed by ``node``, if any: a
        name it could not bind, an ordinal out of range or a bad call."""
        failure = self.failures.get(id(node))
        if failure is not None:
            self._diag(
                failure.code, failure.message, failure.position, failure.length
            )
        return failure is not None

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> list[ExprType]:
        """Check one SELECT; returns its items' types."""
        resolved = self.resolved.of(select)
        outer, self.source_types = self.source_types, {}
        self._walk_from(select.source)
        for item in select.items:
            if type(item.expression) is ast.Star:
                self._report_at(item.expression)  # a bad ``t.*``
        for term in select.group_by:
            if ast.output_position(term) is not None:
                self._report_at(term)  # an ordinal out of range
        group_by = resolved.group_by
        plain = _Context(open=resolved.scope.open)
        for expression in group_by:
            self._check(expression, plain)
        context = replace(
            plain,
            group_expressions=tuple(group_by),
            bare=frozenset(map(id, resolved.columns))
            if group_by or resolved.has_aggregate
            else frozenset(),
        )
        item_types = [
            self._check(item.expression, context) for item in resolved.items
        ]
        context = replace(context, item_types=tuple(item_types))
        if select.where is not None:
            self._check(select.where, plain)
        # A HAVING without grouping is an error, never evaluated.
        if select.having is not None and not self._report_at(select):
            self._check(select.having, context)
        # ORDER BY: an output column, or an expression over the source.
        for order, ordering in zip(select.order_by, resolved.order_by):
            self._report_at(order)  # an ordinal out of range
            if ordering.target is None:
                self._check(order.expression, context)

        # LIMIT / OFFSET must be integer literals.
        self._check_limit(select.limit, "LIMIT")
        self._check_limit(select.offset, "OFFSET")
        self.source_types = outer
        return item_types

    def _check_limit(
        self, expression: ast.Expression | None, what: str
    ) -> None:
        """LIMIT/OFFSET: accept (possibly signed) integer literals only.

        The engine tolerates any constant-foldable integer expression;
        the analyzer accepts the literal subset and rejects the rest —
        over-rejection is the safe direction for admission soundness.
        """
        if expression is not None and literal_limit(expression) is None:
            self._diag("ANA011", f"{what} must be an integer literal")
            self._check(expression, _Context())

    # -- FROM ------------------------------------------------------------

    def _walk_from(self, source: ast.FromSource | None) -> bool:
        """Unknown tables, FROM subqueries and ON conditions, in order;
        whether an unknown table leaves ``source``'s scope open."""
        if isinstance(source, ast.TableSource):
            return self._report_at(source)
        if isinstance(source, ast.SubquerySource):
            types = self.select(source.query)
            names = self.resolved.of(source.query).names  # type: ignore
            alias = source.alias.lower()
            for index, (name, kind) in enumerate(zip(names, types)):
                self.source_types[(alias, name.lower()), index] = kind
            return False
        if isinstance(source, ast.Join):
            opened = self._walk_from(source.left)
            opened |= self._walk_from(source.right)
            if source.condition is not None:
                self._check(source.condition, _Context(open=opened))
            return opened
        return False

    # -- expressions -----------------------------------------------------

    def _check(
        self,
        expression: ast.Expression,
        context: _Context,
    ) -> ExprType:
        """Typecheck one expression; returns its inferred type."""
        if isinstance(expression, ast.Literal):
            return (
                None
                if expression.value is None
                else infer_type(expression.value)
            )
        if isinstance(expression, ast.ColumnRef):
            return self._check_column(expression, context)
        if isinstance(expression, ast.Star):
            self._report_at(expression)
            return DataType.ANY
        if isinstance(expression, ast.UnaryOp):
            operand = self._check(expression.operand, context)
            if expression.op == "NOT":
                return DataType.BOOLEAN
            if not _numeric_ok(operand):
                self._diag(
                    "ANA008",
                    f"cannot apply unary {expression.op!r} to a "
                    f"{_type_name(operand)} operand",
                )
            return operand if operand is not None else None
        if isinstance(expression, ast.BinaryOp):
            return self._check_binary(expression, context)
        if isinstance(expression, ast.FunctionCall):
            return self._check_call(expression, context)
        if isinstance(expression, ast.CaseExpression):
            if expression.operand is not None:
                self._check(expression.operand, context)
            results: list[ExprType] = []
            for condition, result in expression.branches:
                self._check(condition, context)
                results.append(self._check(result, context))
            if expression.default is not None:
                results.append(self._check(expression.default, context))
            return _unify(*results)
        if isinstance(expression, ast.CastExpression):
            self._check(expression.operand, context)
            if self._report_at(expression):
                return DataType.ANY
            return DataType.from_sql(expression.type_name)
        if isinstance(expression, ast.InList):
            self._check(expression.operand, context)
            for item in expression.items:
                self._check(item, context)
            return DataType.BOOLEAN
        if isinstance(expression, ast.InSubquery):
            self._check(expression.operand, context)
            self.select(expression.subquery)
            self._report_at(expression)
            return DataType.BOOLEAN
        if isinstance(expression, ast.ExistsSubquery):
            self.select(expression.subquery)
            return DataType.BOOLEAN
        if isinstance(expression, ast.ScalarSubquery):
            types = self.select(expression.subquery)
            self._report_at(expression)
            return types[0] if len(types) == 1 else DataType.ANY
        if isinstance(expression, ast.BetweenExpression):
            self._check(expression.operand, context)
            self._check(expression.lower, context)
            self._check(expression.upper, context)
            return DataType.BOOLEAN
        if isinstance(expression, ast.LikeExpression):
            self._check(expression.operand, context)
            self._check(expression.pattern, context)
            return DataType.BOOLEAN
        if isinstance(expression, ast.IsNullExpression):
            self._check(expression.operand, context)
            return DataType.BOOLEAN
        raise AssertionError(  # pragma: no cover - AST is exhaustive
            f"unexpected expression {type(expression).__name__}"
        )

    def _check_column(
        self,
        node: ast.ColumnRef,
        context: _Context,
    ) -> ExprType:
        owner = node.owner
        if type(owner) is int:  # an output alias (HAVING, ORDER BY)
            return context.item_types[owner]
        if context.open:
            return DataType.ANY
        if self._report_at(node):
            return DataType.ANY
        if id(node) in context.bare and not self._grouped(node, context):
            self._diag(
                "ANA010",
                f"column {node.display()!r} is neither grouped nor "
                "aggregated; the engine serves an arbitrary group "
                "member (hidden FIRST())",
                node.position,
                ast.extent(node),
                severity=Severity.WARNING,
            )
        if owner.dtype is not None:
            return owner.dtype
        inferred = self.source_types[owner.key, owner.index]
        return DataType.ANY if inferred is None else inferred

    def _grouped(self, node: ast.ColumnRef, context: _Context) -> bool:
        """Whether a GROUP BY term names ``node``'s column, spelled
        another way (resolution leaves out a column under a subtree
        equal to a term)."""
        owner = node.owner
        return any(
            term.owner is owner
            for term in context.group_expressions
            if isinstance(term, ast.ColumnRef)
        )

    def _check_binary(
        self,
        node: ast.BinaryOp,
        context: _Context,
    ) -> ExprType:
        left = self._check(node.left, context)
        right = self._check(node.right, context)
        if node.op in ("AND", "OR"):
            return DataType.BOOLEAN
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return DataType.BOOLEAN
        if node.op == "||":
            return DataType.TEXT
        # Arithmetic: the engine raises on non-numeric operands.
        for operand_type, operand in ((left, node.left), (right, node.right)):
            if not _numeric_ok(operand_type):
                self._diag(
                    "ANA008",
                    f"arithmetic {node.op!r} over a "
                    f"{_type_name(operand_type)} operand",
                    getattr(operand, "position", None),
                )
        if node.op == "/":
            return DataType.ANY  # int/int may stay int, else float
        if left is DataType.REAL or right is DataType.REAL:
            return DataType.REAL
        if left is DataType.ANY or right is DataType.ANY:
            return DataType.ANY
        if left is None and right is None:
            return None
        return DataType.INTEGER

    # -- function calls --------------------------------------------------

    def _check_call(
        self,
        node: ast.FunctionCall,
        context: _Context,
    ) -> ExprType:
        aggregate = self.functions.aggregate_call(node)
        if aggregate is not None:
            return self._check_aggregate_call(node, aggregate, context)
        scalar = self.functions.scalar(node.name)
        if scalar is None or node.star:
            # Unknown, FOO(*), or an aggregate's name misused: reported
            # before the arguments.
            self._report_at(node)
            for argument in node.args:
                self._check(argument, context)
            return DataType.ANY
        argument_types = [
            self._check(argument, context) for argument in node.args
        ]
        signature = scalar.signature
        if signature is None:
            return DataType.ANY
        # A wrong arity is reported after the arguments; the kinds are
        # read only when the arity holds.
        if not self._report_at(node):
            self._check_kinds(node, signature, argument_types)
        return signature.returns

    def _check_aggregate_call(
        self,
        node: ast.FunctionCall,
        aggregate: Aggregate,
        context: _Context,
    ) -> ExprType:
        self._report_at(node)
        signature = aggregate.signature
        if node.star:
            return signature.returns if node.name == "COUNT" else DataType.ANY
        argument_type = self._check(node.args[0], context)
        if signature.kind_at(0) == "num" and not _numeric_ok(argument_type):
            self._diag(
                "ANA008",
                f"{node.name}() over a {_type_name(argument_type)} argument",
                node.position,
                ast.extent(node),
            )
        if signature.returns is None:
            return argument_type
        return signature.returns

    def _check_kinds(
        self,
        node: ast.FunctionCall,
        signature: Signature,
        argument_types: list[ExprType],
    ) -> None:
        for position, argument_type in enumerate(argument_types):
            kind = signature.kind_at(position)
            if kind == "num" and not _numeric_ok(argument_type):
                wanted = "numeric"
            elif kind == "text" and not _textual_ok(argument_type):
                wanted = "text"
            else:
                continue
            self._diag(
                "ANA008",
                f"argument {position + 1} of {node.name}() must be "
                f"{wanted}, got {_type_name(argument_type)}",
                node.position,
                ast.extent(node),
            )


def _type_name(expression_type: ExprType) -> str:
    return "NULL" if expression_type is None else expression_type.value
