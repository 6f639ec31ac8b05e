"""SQL semantic analyzer: typecheck and cost a SELECT statically.

The analyzer walks a parsed :class:`~repro.db.sql.ast.Select` against a
:class:`~repro.db.Database` catalog *before* any plan is built.  Names
are bound once, by :func:`repro.db.resolve.resolve`, the same pass the
planner plans from; the analyzer adds the type rules, the signatures
and the legality checks.  Its error-severity diagnostics are **sound
for admission**: a query the analyzer accepts is guaranteed to plan and
execute without an engine error.  For binding errors the contract goes
both ways: when the engine rejects a name (unknown table or column,
ambiguous column, bad ``t.*``, ordinal out of range), the analyzer
reports ANA002/003/004/014 at the span the engine's
:class:`~repro.errors.PlanningError` carries (both property-tested in
``tests/analysis``).  Past binding, the analyzer may still reject a few
exotic constructs the engine would tolerate (e.g. a computed LIMIT),
because admission control wants cheap certainty over completeness.

Alongside diagnostics it reports a :class:`CostEstimate`: catalog
cardinalities bound the rows each expression site can see, and every
call site of an *expensive* registered function (an LM UDF) adds
``rows_at_site`` potential invocations (the resolver records the
sites).  That bound is what :class:`repro.serve.TagServer` uses for
deterministic admission control.

See :mod:`repro.analysis.diagnostics` for the diagnostic taxonomy.
"""

from __future__ import annotations

import inspect
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
from repro.db.resolve import Failure, Resolved, literal_limit, resolve
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.db.types import DataType, infer_type
from repro.errors import SchemaError, SQLSyntaxError

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
# Builtin signatures
# ---------------------------------------------------------------------------

#: Argument kinds: "num" rejects TEXT operands, "text" rejects numeric
#: ones, "any" accepts everything (matching what the builtin's Python
#: body tolerates, not what ANSI SQL would say).
@dataclass(frozen=True)
class _Signature:
    min_args: int
    max_args: int | None  # None = variadic
    kinds: tuple[str, ...] = ()  # per-position; last kind repeats
    returns: ExprType = DataType.ANY

    def kind_at(self, position: int) -> str:
        if not self.kinds:
            return "any"
        if position < len(self.kinds):
            return self.kinds[position]
        return self.kinds[-1]


_SCALAR_SIGNATURES: dict[str, _Signature] = {
    "ABS": _Signature(1, 1, ("num",)),
    "ROUND": _Signature(1, 2, ("num", "num"), DataType.REAL),
    "LENGTH": _Signature(1, 1, ("any",), DataType.INTEGER),
    "UPPER": _Signature(1, 1, ("any",), DataType.TEXT),
    "LOWER": _Signature(1, 1, ("any",), DataType.TEXT),
    "TRIM": _Signature(1, 1, ("any",), DataType.TEXT),
    "LTRIM": _Signature(1, 1, ("any",), DataType.TEXT),
    "RTRIM": _Signature(1, 1, ("any",), DataType.TEXT),
    "REPLACE": _Signature(3, 3, ("any", "text", "text"), DataType.TEXT),
    "SUBSTR": _Signature(2, 3, ("text", "num", "num"), DataType.TEXT),
    "SUBSTRING": _Signature(2, 3, ("text", "num", "num"), DataType.TEXT),
    "INSTR": _Signature(2, 2, ("text", "text"), DataType.INTEGER),
    "COALESCE": _Signature(1, None),
    "IFNULL": _Signature(2, 2),
    "NULLIF": _Signature(2, 2),
    "IIF": _Signature(3, 3),
    "SQRT": _Signature(1, 1, ("num",), DataType.REAL),
    "FLOOR": _Signature(1, 1, ("num",), DataType.REAL),
    "CEIL": _Signature(1, 1, ("num",), DataType.REAL),
    "SIGN": _Signature(1, 1, ("num",), DataType.INTEGER),
    # Multi-argument scalar MIN/MAX (single-argument is the aggregate).
    "MIN": _Signature(2, None),
    "MAX": _Signature(2, None),
}

_AGGREGATE_SIGNATURES: dict[str, _Signature] = {
    "COUNT": _Signature(1, 1, ("any",), DataType.INTEGER),
    "SUM": _Signature(1, 1, ("num",)),
    "TOTAL": _Signature(1, 1, ("num",), DataType.REAL),
    "AVG": _Signature(1, 1, ("num",), DataType.REAL),
    "MIN": _Signature(1, 1),
    "MAX": _Signature(1, 1),
    "GROUP_CONCAT": _Signature(1, 1, ("any",), DataType.TEXT),
}


def _callable_arity(function) -> tuple[int, int | None] | None:
    """(min, max) positional arity of a UDF, or None if unknowable."""
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):
        return None
    minimum = 0
    maximum: int | None = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            if maximum is not None:
                maximum += 1
            if parameter.default is inspect.Parameter.empty:
                minimum += 1
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            maximum = None
        elif (
            parameter.kind is inspect.Parameter.KEYWORD_ONLY
            and parameter.default is inspect.Parameter.empty
        ):
            return None  # not callable positionally; skip the check
    return minimum, maximum


# ---------------------------------------------------------------------------
# Per-SELECT state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Context:
    """Where an expression sits, for aggregate/star legality."""

    #: The FROM named an unknown table (see :class:`repro.db.resolve.Scope`).
    open: bool = False
    aggregates_allowed: bool = False
    inside_aggregate: bool = False
    is_aggregate_query: bool = False
    group_expressions: tuple[ast.Expression, ...] = ()
    clause: str = "expression"
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
        resolved = resolve(self.db, statement)
        run = _Run(self.db, resolved)
        run.select(statement)
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
        return QueryReport(
            sql=source_text, diagnostics=run.diagnostics, cost=cost
        )


class _Run:
    """One analysis pass over a resolved statement: accumulates
    diagnostics."""

    def __init__(self, db: Database, resolved: Resolved) -> None:
        self.functions = db.functions
        self.resolved = resolved
        self.owners = resolved.owners
        self.diagnostics: list[Diagnostic] = []
        #: ``id`` of each FROM subquery -> its items' types.
        self.source_types: dict[int, list[ExprType]] = {}

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

    def _report(self, failure: Failure) -> None:
        """A name the resolver could not bind."""
        self._diag(
            failure.code, failure.message, failure.position, failure.length
        )

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> list[ExprType]:
        """Check one SELECT; returns its items' types."""
        top = self.resolved
        resolved = top if select is top.select else top.selects[id(select)]
        self._walk_from(select.source)
        for failure in resolved.star_failures + resolved.group_failures:
            self._report(failure)
        group_by = resolved.group_by
        is_aggregate_query = bool(group_by) or resolved.has_aggregate
        context = _Context(
            open=resolved.scope.open,
            aggregates_allowed=True,
            is_aggregate_query=is_aggregate_query,
            group_expressions=tuple(group_by),
        )

        # GROUP BY expressions: plain column expressions, no aggregates.
        grouping = replace(
            context, aggregates_allowed=False, clause="GROUP BY"
        )
        for expression in group_by:
            self._check(expression, grouping)

        # SELECT items.
        item_types = [
            self._check(item.expression, replace(context, clause="SELECT"))
            for item in resolved.items
        ]
        context = replace(context, item_types=tuple(item_types))

        # WHERE: aggregates are illegal here.
        if select.where is not None:
            self._check(
                select.where,
                replace(
                    context,
                    aggregates_allowed=False,
                    is_aggregate_query=False,
                    clause="WHERE",
                ),
            )

        # HAVING needs a grouping context.
        if select.having is not None:
            if not is_aggregate_query:
                self._diag(
                    "ANA006",
                    "HAVING requires GROUP BY or aggregates",
                )
            else:
                self._check(select.having, replace(context, clause="HAVING"))

        # ORDER BY: an output column, or an expression over the source.
        for order, ordering in zip(select.order_by, resolved.order_by):
            if ordering.failure is not None:
                self._report(ordering.failure)
            elif ordering.target is None:
                self._check(
                    order.expression, replace(context, clause="ORDER BY")
                )

        # LIMIT / OFFSET must be integer literals.
        self._check_limit(select.limit, "LIMIT")
        self._check_limit(select.offset, "OFFSET")
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

    # -- FROM ------------------------------------------------------------

    def _walk_from(self, source: ast.FromSource | None) -> None:
        """Unknown tables, FROM subqueries and ON conditions, in order."""
        if isinstance(source, ast.TableSource):
            failure = self.owners.get(id(source))
            if failure is not None:
                self._report(failure)  # type: ignore[arg-type]
        elif isinstance(source, ast.SubquerySource):
            self.source_types[id(source)] = self.select(source.query)
        elif isinstance(source, ast.Join):
            self._walk_from(source.left)
            self._walk_from(source.right)
            if source.condition is not None:
                scope = self.resolved.joins[id(source)]
                self._check(
                    source.condition,
                    _Context(open=scope.open, clause="JOIN ON"),
                )

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
            self._diag(
                "ANA009",
                "'*' is only valid in SELECT items or COUNT(*)",
                expression.position,
            )
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
            try:
                return DataType.from_sql(expression.type_name)
            except SchemaError:
                self._diag(
                    "ANA012",
                    f"unknown type {expression.type_name!r} in CAST",
                )
                return DataType.ANY
        if isinstance(expression, ast.InList):
            self._check(expression.operand, context)
            for item in expression.items:
                self._check(item, context)
            return DataType.BOOLEAN
        if isinstance(expression, ast.InSubquery):
            self._check(expression.operand, context)
            self._value_subquery(expression.subquery, "IN subquery")
            return DataType.BOOLEAN
        if isinstance(expression, ast.ExistsSubquery):
            self.select(expression.subquery)
            return DataType.BOOLEAN
        if isinstance(expression, ast.ScalarSubquery):
            types = self._value_subquery(
                expression.subquery, "scalar subquery"
            )
            return DataType.ANY if types is None else types[0]
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

    def _value_subquery(
        self, subquery: ast.Select, what: str
    ) -> list[ExprType] | None:
        """A subquery used as a value must expose exactly one column."""
        types = self.select(subquery)
        if len(types) != 1:
            self._diag(
                "ANA013",
                f"{what} must return exactly one column, got {len(types)}",
            )
            return None
        return types

    def _check_column(
        self,
        node: ast.ColumnRef,
        context: _Context,
    ) -> ExprType:
        owner = self.owners[id(node)]
        if type(owner) is int:  # an output alias (HAVING, ORDER BY)
            return context.item_types[owner]
        if context.open:
            return DataType.ANY
        if isinstance(owner, Failure):
            self._report(owner)
            return DataType.ANY
        if (
            context.is_aggregate_query
            and not context.inside_aggregate
            and context.clause in ("SELECT", "HAVING", "ORDER BY")
            and not self._grouped(node, context)
        ):
            self._diag(
                "ANA010",
                f"column {node.display()!r} is neither grouped nor "
                "aggregated; the engine serves an arbitrary group "
                "member (hidden FIRST())",
                node.position,
                len(node.display()),
                severity=Severity.WARNING,
            )
        if owner.dtype is not None:
            return owner.dtype
        inferred = self.source_types[id(owner.source)][owner.index]
        return DataType.ANY if inferred is None else inferred

    def _grouped(self, node: ast.ColumnRef, context: _Context) -> bool:
        """Whether a GROUP BY term names ``node``'s column, however
        either is spelled."""
        owner = self.owners[id(node)]
        return node in context.group_expressions or any(
            self.owners.get(id(term)) is owner
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
        name = node.name
        is_aggregate_call = self.functions.is_aggregate(name) and (
            node.star or len(node.args) == 1
        )
        if is_aggregate_call:
            return self._check_aggregate_call(node, context)
        if node.star:
            # FOO(*) for a non-aggregate FOO calls FOO() at runtime.
            self._diag(
                "ANA007",
                f"'*' argument is only valid for aggregates, not "
                f"{name}()",
                node.position,
                len(name),
            )
            return DataType.ANY
        if self.functions.is_aggregate(name) and not (
            self.functions.has_scalar(name)
        ):
            # COUNT(), SUM(a, b): aggregate name with non-aggregate shape.
            self._diag(
                "ANA007",
                f"aggregate {name}() takes exactly one argument "
                f"(or '*'), got {len(node.args)}",
                node.position,
                len(name),
            )
            for argument in node.args:
                self._check(argument, context)
            return DataType.ANY
        if not self.functions.has_scalar(name):
            self._diag(
                "ANA005",
                f"unknown function {name!r}",
                node.position,
                len(name),
            )
            for argument in node.args:
                self._check(argument, context)
            return DataType.ANY
        argument_types = [
            self._check(argument, context)
            for argument in node.args
        ]
        signature = _SCALAR_SIGNATURES.get(name)
        if signature is None:
            self._check_udf_arity(node)
            return DataType.ANY
        self._check_signature(node, signature, argument_types)
        return signature.returns

    def _check_aggregate_call(
        self,
        node: ast.FunctionCall,
        context: _Context,
    ) -> ExprType:
        name = node.name
        if not context.aggregates_allowed or context.inside_aggregate:
            where = (
                "inside another aggregate"
                if context.inside_aggregate
                else f"in {context.clause}"
            )
            self._diag(
                "ANA006",
                f"aggregate {name}() is not allowed {where}",
                node.position,
                len(name),
            )
        if node.star:
            return _AGGREGATE_SIGNATURES.get(
                name, _Signature(1, 1)
            ).returns if name == "COUNT" else DataType.ANY
        inner = replace(context, inside_aggregate=True)
        argument_type = self._check(node.args[0], inner)
        signature = _AGGREGATE_SIGNATURES.get(name)
        if signature is None:  # registered custom aggregate
            return DataType.ANY
        if signature.kind_at(0) == "num" and not _numeric_ok(argument_type):
            self._diag(
                "ANA008",
                f"{name}() over a {_type_name(argument_type)} argument",
                node.position,
                len(name),
            )
        if name in ("MIN", "MAX", "SUM") and signature.returns is (
            DataType.ANY
        ):
            return argument_type
        return signature.returns

    def _check_signature(
        self,
        node: ast.FunctionCall,
        signature: _Signature,
        argument_types: list[ExprType],
    ) -> None:
        count = len(node.args)
        if count < signature.min_args or (
            signature.max_args is not None and count > signature.max_args
        ):
            if signature.max_args is None:
                expected = f"at least {signature.min_args}"
            elif signature.min_args == signature.max_args:
                expected = str(signature.min_args)
            else:
                expected = f"{signature.min_args}..{signature.max_args}"
            self._diag(
                "ANA007",
                f"{node.name}() expects {expected} argument(s), "
                f"got {count}",
                node.position,
                len(node.name),
            )
            return
        for position, argument_type in enumerate(argument_types):
            kind = signature.kind_at(position)
            if kind == "num" and not _numeric_ok(argument_type):
                self._diag(
                    "ANA008",
                    f"argument {position + 1} of {node.name}() must be "
                    f"numeric, got {_type_name(argument_type)}",
                    node.position,
                    len(node.name),
                )
            elif kind == "text" and not _textual_ok(argument_type):
                self._diag(
                    "ANA008",
                    f"argument {position + 1} of {node.name}() must be "
                    f"text, got {_type_name(argument_type)}",
                    node.position,
                    len(node.name),
                )

    def _check_udf_arity(self, node: ast.FunctionCall) -> None:
        arity = _callable_arity(self.functions.scalar(node.name))
        if arity is None:
            return
        minimum, maximum = arity
        count = len(node.args)
        if count < minimum or (maximum is not None and count > maximum):
            if maximum is None:
                expected = f"at least {minimum}"
            elif minimum == maximum:
                expected = str(minimum)
            else:
                expected = f"{minimum}..{maximum}"
            self._diag(
                "ANA007",
                f"{node.name}() expects {expected} argument(s), "
                f"got {count}",
                node.position,
                len(node.name),
            )


def _type_name(expression_type: ExprType) -> str:
    return "NULL" if expression_type is None else expression_type.value
