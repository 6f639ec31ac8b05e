"""SQL semantic analyzer: resolve, typecheck, and cost a SELECT statically.

The analyzer walks a parsed :class:`~repro.db.sql.ast.Select` against a
:class:`~repro.db.Database` catalog *before* any plan is built, mirroring
the planner/executor's semantics exactly so that its error-severity
diagnostics are **sound for admission**: a query the analyzer accepts is
guaranteed to plan and execute without an engine error (property-tested
in ``tests/analysis``).  The converse is deliberately not promised — the
analyzer may reject a few exotic constructs the engine would tolerate
(e.g. a computed LIMIT), because admission control wants cheap certainty
over completeness.

Alongside diagnostics the walk accumulates a :class:`CostEstimate`:
catalog cardinalities bound the rows each expression site can see, and
every call site of an *expensive* registered function (an LM UDF) adds
``rows_at_site`` potential invocations.  That bound is what
:class:`repro.serve.TagServer` uses for deterministic admission control.

See :mod:`repro.analysis.diagnostics` for the diagnostic taxonomy.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace

from repro.analysis.cost import (
    OUTPUT_TOKENS_PER_CALL,
    PROMPT_TOKENS_PER_CALL,
    ColumnStats,
    predicate_selectivity,
    table_stats,
)
from repro.analysis.diagnostics import (
    CostEstimate,
    Diagnostic,
    QueryReport,
    Severity,
    Span,
)
from repro.db import Database, Table
from repro.db.functions import FunctionRegistry
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
# Scopes
# ---------------------------------------------------------------------------


@dataclass
class _Scope:
    """Column bindings visible to expressions of one SELECT."""

    #: (binding, column name, declared type) triples, in layout order.
    entries: list[tuple[str | None, str, DataType]] = field(
        default_factory=list
    )
    #: True when a FROM source failed to resolve; suppresses cascading
    #: unknown-column diagnostics inside this scope.
    open: bool = False
    #: Stored tables by lower-cased binding: the source of catalog
    #: statistics for batched LM-cost pricing and the shared
    #: selectivity estimator.  Subquery sources do not appear, so
    #: their columns fall back to the per-row bound.
    tables: dict[str, Table] = field(default_factory=dict)

    def column_stats(
        self, name: str, table: str | None
    ) -> ColumnStats | None:
        """StatsLookup for :func:`predicate_selectivity`."""
        return table_stats(self.tables, name, table)

    def resolve(
        self, name: str, table: str | None
    ) -> DataType | str:
        """The column's type, or the failing diagnostic code."""
        lowered = name.lower()
        if table is not None:
            key = table.lower()
            for binding, entry_name, dtype in self.entries:
                if (
                    binding is not None
                    and binding.lower() == key
                    and entry_name.lower() == lowered
                ):
                    return dtype
            return "ANA003"
        matches = [
            (binding, dtype)
            for binding, entry_name, dtype in self.entries
            if entry_name.lower() == lowered
        ]
        if not matches:
            return "ANA003"
        bindings = {binding for binding, _ in matches}
        if len(matches) > 1 and len(bindings) > 1:
            return "ANA004"
        return matches[0][1]

    def bindings(self) -> set[str]:
        return {
            binding.lower()
            for binding, _, _ in self.entries
            if binding is not None
        }


@dataclass
class _SelectInfo:
    """What one analyzed SELECT exposes to its parent."""

    names: list[str]
    types: list[ExprType]
    #: Upper bound on rows out of the FROM tree.
    rows_scanned: int
    #: Upper bound on result rows (grouping and LIMIT applied).
    result_rows: int
    #: Expected rows after WHERE (selectivity estimate); None without
    #: a WHERE clause.  An expectation, not a bound — see
    #: :attr:`repro.analysis.CostEstimate.expected_result_rows`.
    expected_rows: int | None = None


@dataclass(frozen=True)
class _Context:
    """Where an expression sits, for aggregate/star legality."""

    rows: int
    aggregates_allowed: bool = False
    inside_aggregate: bool = False
    is_aggregate_query: bool = False
    group_expressions: tuple[ast.Expression, ...] = ()
    clause: str = "expression"


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class SQLAnalyzer:
    """Static resolver/typechecker/cost-estimator for one catalog.

    Stateless across calls; :meth:`analyze` may be invoked repeatedly
    and concurrently (each run keeps its state on a private ``_Run``).
    """

    def __init__(self, db: Database) -> None:
        self.db = db

    # -- entry points ----------------------------------------------------

    def analyze(
        self, sql: str | ast.Select, source: str = ""
    ) -> QueryReport:
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
        run = _Run(self.db, self.db.functions)
        info = run.select(statement)
        cost = CostEstimate(
            rows_scanned=info.rows_scanned,
            result_rows=info.result_rows,
            lm_calls=run.lm_calls,
            lm_prompt_tokens=run.lm_calls * PROMPT_TOKENS_PER_CALL,
            lm_output_tokens=run.lm_calls * OUTPUT_TOKENS_PER_CALL,
            lm_calls_batched=run.lm_calls_batched,
            expected_result_rows=info.expected_rows,
        )
        return QueryReport(
            sql=source_text, diagnostics=run.diagnostics, cost=cost
        )


class _Run:
    """One analysis pass: accumulates diagnostics and LM-call bounds."""

    def __init__(
        self,
        db: Database,
        functions: FunctionRegistry,
    ) -> None:
        self.db = db
        self.functions = functions
        self.diagnostics: list[Diagnostic] = []
        self.lm_calls = 0
        self.lm_calls_batched = 0

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

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> _SelectInfo:
        scope, from_rows = self._scope_for(select.source)
        items = self._expand_stars(select.items, scope)

        contains_aggregate = self.functions.contains_aggregate
        has_aggregate = any(
            contains_aggregate(item.expression) for item in items
        )
        if select.having is not None:
            has_aggregate = has_aggregate or contains_aggregate(
                select.having
            )
        has_aggregate = has_aggregate or any(
            contains_aggregate(order.expression)
            for order in select.order_by
        )

        group_by = [
            self._resolve_positional(expression, items)
            for expression in select.group_by
        ]
        is_aggregate_query = bool(group_by) or has_aggregate

        context = _Context(
            rows=from_rows,
            aggregates_allowed=True,
            is_aggregate_query=is_aggregate_query,
            group_expressions=tuple(group_by),
        )

        # GROUP BY expressions: plain column expressions, no aggregates.
        for expression in group_by:
            self._check(
                expression,
                scope,
                replace(
                    context,
                    aggregates_allowed=False,
                    clause="GROUP BY",
                ),
            )

        # SELECT items.
        item_types: list[ExprType] = []
        for item in items:
            item_types.append(
                self._check(
                    item.expression,
                    scope,
                    replace(context, clause="SELECT"),
                )
            )

        # WHERE: aggregates are illegal here.
        if select.where is not None:
            self._check(
                select.where,
                scope,
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
                self._check_output_expression(
                    select.having, scope, items, item_types, context,
                    "HAVING",
                )

        # ORDER BY: ordinals, output aliases, or source expressions.
        names = [
            (item.alias or ast.expression_name(item.expression)).lower()
            for item in items
        ]
        for order in select.order_by:
            expression = order.expression
            position = ast.output_position(expression)
            if position is not None:
                if not 1 <= position <= len(items):
                    self._diag(
                        "ANA014",
                        f"ORDER BY position {position} is out of "
                        f"range (1..{len(items)})",
                    )
                continue
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.name.lower() in names
            ):
                continue  # resolves to an output column
            self._check_output_expression(
                expression, scope, items, item_types, context, "ORDER BY"
            )

        # LIMIT / OFFSET must be integer literals.
        limit_value = self._check_limit(select.limit, "LIMIT")
        self._check_limit(select.offset, "OFFSET")

        # Result-shape bookkeeping for parents and the cost estimate.
        # result_rows stays a worst-case bound (WHERE may drop
        # nothing); expected_rows applies the shared selectivity
        # estimator, for the optimizer's plan ranking only.
        result_rows = from_rows
        expected_rows: int | None = None
        if select.where is not None:
            expected_rows = round(
                from_rows
                * predicate_selectivity(
                    select.where, scope.column_stats
                )
            )
        if is_aggregate_query and not group_by:
            result_rows = 1
            if expected_rows is not None:
                expected_rows = 1
        if limit_value is not None:
            result_rows = max(0, min(result_rows, limit_value))
            if expected_rows is not None:
                expected_rows = max(0, min(expected_rows, limit_value))
        return _SelectInfo(
            names=[
                item.alias or ast.expression_name(item.expression)
                for item in items
            ],
            types=item_types,
            rows_scanned=from_rows,
            result_rows=result_rows,
            expected_rows=expected_rows,
        )

    def _check_output_expression(
        self,
        expression: ast.Expression,
        scope: _Scope,
        items: list[ast.SelectItem],
        item_types: list[ExprType],
        context: _Context,
        clause: str,
    ) -> None:
        """Check a HAVING/ORDER BY expression with output aliases visible.

        The planner substitutes ``item.alias`` references with the
        aliased expression before compiling, so an unqualified name
        matching an alias is legal even when no source column has it;
        the aliased expression itself was already checked as an item.
        """
        aliases = {
            item.alias.lower(): item_types[position]
            for position, item in enumerate(items)
            if item.alias
        }
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.name.lower() in aliases
        ):
            return
        self._check(
            expression,
            scope,
            replace(context, clause=clause),
            output_aliases=aliases,
        )

    def _check_limit(
        self, expression: ast.Expression | None, what: str
    ) -> int | None:
        """LIMIT/OFFSET: accept (possibly signed) integer literals only.

        The engine tolerates any constant-foldable integer expression;
        the analyzer accepts the literal subset and rejects the rest —
        over-rejection is the safe direction for admission soundness.
        """
        if expression is None:
            return None
        node = expression
        negate = False
        while isinstance(node, ast.UnaryOp) and node.op in ("-", "+"):
            if node.op == "-":
                negate = not negate
            node = node.operand
        if isinstance(node, ast.Literal) and isinstance(
            node.value, int
        ) and not isinstance(node.value, bool):
            return -node.value if negate else node.value
        self._diag("ANA011", f"{what} must be an integer literal")
        return None

    # -- FROM ------------------------------------------------------------

    def _scope_for(
        self, source: ast.FromSource | None
    ) -> tuple[_Scope, int]:
        if source is None:
            return _Scope(), 1
        if isinstance(source, ast.TableSource):
            if not self.db.has_table(source.name):
                self._diag(
                    "ANA002",
                    f"unknown table {source.name!r}",
                    source.position,
                    len(source.name),
                )
                return _Scope(open=True), 1
            table = self.db.table(source.name)
            entries = [
                (source.binding, column.name, column.dtype)
                for column in table.schema.columns
            ]
            return (
                _Scope(
                    entries=entries,
                    tables={source.binding.lower(): table},
                ),
                max(len(table), 1),
            )
        if isinstance(source, ast.SubquerySource):
            info = self.select(source.query)
            entries = [
                (
                    source.alias,
                    name,
                    dtype if dtype is not None else DataType.ANY,
                )
                for name, dtype in zip(info.names, info.types)
            ]
            return _Scope(entries=entries), max(info.result_rows, 1)
        if isinstance(source, ast.Join):
            left, left_rows = self._scope_for(source.left)
            right, right_rows = self._scope_for(source.right)
            scope = _Scope(
                entries=left.entries + right.entries,
                open=left.open or right.open,
                tables={**left.tables, **right.tables},
            )
            if source.condition is not None:
                self._check(
                    source.condition,
                    scope,
                    _Context(
                        rows=left_rows * right_rows, clause="JOIN ON"
                    ),
                )
            return scope, left_rows * right_rows
        raise AssertionError(  # pragma: no cover - parser is exhaustive
            f"unexpected FROM source {type(source).__name__}"
        )

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], scope: _Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expression, ast.Star):
                expanded.append(item)
                continue
            star = item.expression
            if star.table is not None and not scope.open:
                if star.table.lower() not in scope.bindings():
                    self._diag(
                        "ANA002",
                        f"unknown table {star.table!r} in "
                        f"{star.table}.*",
                        star.position,
                        len(star.table),
                    )
                    continue
            for binding, name, _ in scope.entries:
                if star.table is not None and (
                    binding is None
                    or binding.lower() != star.table.lower()
                ):
                    continue
                expanded.append(
                    ast.SelectItem(ast.ColumnRef(name, binding), name)
                )
        return expanded

    # -- expressions -----------------------------------------------------

    def _check(
        self,
        expression: ast.Expression,
        scope: _Scope,
        context: _Context,
        output_aliases: dict[str, ExprType] | None = None,
    ) -> ExprType:
        """Typecheck one expression; returns its inferred type."""
        if isinstance(expression, ast.Literal):
            return (
                None
                if expression.value is None
                else infer_type(expression.value)
            )
        if isinstance(expression, ast.ColumnRef):
            return self._check_column(expression, scope, context,
                                      output_aliases)
        if isinstance(expression, ast.Star):
            self._diag(
                "ANA009",
                "'*' is only valid in SELECT items or COUNT(*)",
                expression.position,
            )
            return DataType.ANY
        if isinstance(expression, ast.UnaryOp):
            operand = self._check(
                expression.operand, scope, context, output_aliases
            )
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
            return self._check_binary(
                expression, scope, context, output_aliases
            )
        if isinstance(expression, ast.FunctionCall):
            return self._check_call(
                expression, scope, context, output_aliases
            )
        if isinstance(expression, ast.CaseExpression):
            if expression.operand is not None:
                self._check(
                    expression.operand, scope, context, output_aliases
                )
            results: list[ExprType] = []
            for condition, result in expression.branches:
                self._check(condition, scope, context, output_aliases)
                results.append(
                    self._check(result, scope, context, output_aliases)
                )
            if expression.default is not None:
                results.append(
                    self._check(
                        expression.default, scope, context, output_aliases
                    )
                )
            return _unify(*results)
        if isinstance(expression, ast.CastExpression):
            self._check(expression.operand, scope, context, output_aliases)
            try:
                return DataType.from_sql(expression.type_name)
            except SchemaError:
                self._diag(
                    "ANA012",
                    f"unknown type {expression.type_name!r} in CAST",
                )
                return DataType.ANY
        if isinstance(expression, ast.InList):
            self._check(expression.operand, scope, context, output_aliases)
            for item in expression.items:
                self._check(item, scope, context, output_aliases)
            return DataType.BOOLEAN
        if isinstance(expression, ast.InSubquery):
            self._check(expression.operand, scope, context, output_aliases)
            self._value_subquery(expression.subquery, "IN subquery")
            return DataType.BOOLEAN
        if isinstance(expression, ast.ExistsSubquery):
            self.select(expression.subquery)
            return DataType.BOOLEAN
        if isinstance(expression, ast.ScalarSubquery):
            info = self._value_subquery(
                expression.subquery, "scalar subquery"
            )
            if info is not None and len(info.types) == 1:
                return info.types[0]
            return DataType.ANY
        if isinstance(expression, ast.BetweenExpression):
            self._check(expression.operand, scope, context, output_aliases)
            self._check(expression.lower, scope, context, output_aliases)
            self._check(expression.upper, scope, context, output_aliases)
            return DataType.BOOLEAN
        if isinstance(expression, ast.LikeExpression):
            self._check(expression.operand, scope, context, output_aliases)
            self._check(expression.pattern, scope, context, output_aliases)
            return DataType.BOOLEAN
        if isinstance(expression, ast.IsNullExpression):
            self._check(expression.operand, scope, context, output_aliases)
            return DataType.BOOLEAN
        raise AssertionError(  # pragma: no cover - AST is exhaustive
            f"unexpected expression {type(expression).__name__}"
        )

    def _value_subquery(
        self, subquery: ast.Select, what: str
    ) -> _SelectInfo | None:
        """A subquery used as a value must expose exactly one column."""
        info = self.select(subquery)
        if len(info.names) != 1:
            self._diag(
                "ANA013",
                f"{what} must return exactly one column, "
                f"got {len(info.names)}",
            )
            return None
        return info

    def _check_column(
        self,
        node: ast.ColumnRef,
        scope: _Scope,
        context: _Context,
        output_aliases: dict[str, ExprType] | None,
    ) -> ExprType:
        if (
            output_aliases is not None
            and node.table is None
            and node.name.lower() in output_aliases
        ):
            return output_aliases[node.name.lower()]
        if scope.open:
            return DataType.ANY
        resolved = scope.resolve(node.name, node.table)
        if resolved == "ANA003":
            self._diag(
                "ANA003",
                f"unknown column {node.display()!r}",
                node.position,
                len(node.display()),
            )
            return DataType.ANY
        if resolved == "ANA004":
            self._diag(
                "ANA004",
                f"ambiguous column {node.name!r} (qualify it with a "
                "table name)",
                node.position,
                len(node.name),
            )
            return DataType.ANY
        if (
            context.is_aggregate_query
            and not context.inside_aggregate
            and context.clause in ("SELECT", "HAVING", "ORDER BY")
            and node not in context.group_expressions
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
        assert isinstance(resolved, DataType)
        return resolved

    def _check_binary(
        self,
        node: ast.BinaryOp,
        scope: _Scope,
        context: _Context,
        output_aliases: dict[str, ExprType] | None,
    ) -> ExprType:
        left = self._check(node.left, scope, context, output_aliases)
        right = self._check(node.right, scope, context, output_aliases)
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
        scope: _Scope,
        context: _Context,
        output_aliases: dict[str, ExprType] | None,
    ) -> ExprType:
        name = node.name
        is_aggregate_call = self.functions.is_aggregate(name) and (
            node.star or len(node.args) == 1
        )
        if is_aggregate_call:
            return self._check_aggregate_call(
                node, scope, context, output_aliases
            )
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
                self._check(argument, scope, context, output_aliases)
            return DataType.ANY
        if not self.functions.has_scalar(name):
            self._diag(
                "ANA005",
                f"unknown function {name!r}",
                node.position,
                len(name),
            )
            for argument in node.args:
                self._check(argument, scope, context, output_aliases)
            return DataType.ANY
        if self.functions.is_expensive(name):
            self.lm_calls += context.rows
            self.lm_calls_batched += self._batched_bound(node, scope,
                                                         context)
        argument_types = [
            self._check(argument, scope, context, output_aliases)
            for argument in node.args
        ]
        signature = _SCALAR_SIGNATURES.get(name)
        if signature is None:
            self._check_udf_arity(node)
            return DataType.ANY
        self._check_signature(node, signature, argument_types)
        return signature.returns

    def _batched_bound(
        self,
        node: ast.FunctionCall,
        scope: _Scope,
        context: _Context,
    ) -> int:
        """Invocation bound for one call site under the batched path.

        The batched operators invoke the UDF at most once per distinct
        argument *tuple*, so the bound is the product of each
        argument's distinct-value count: literals contribute 1, stored
        columns their catalog distinct count, anything else (computed
        expressions, subquery columns) falls back to the per-row
        bound.  Always capped by ``context.rows`` — dedup can never
        cost more than per-row execution.
        """
        bound = 1
        for argument in node.args:
            if isinstance(argument, ast.Literal):
                continue
            if isinstance(argument, ast.ColumnRef):
                stats = scope.column_stats(
                    argument.name, argument.table
                )
                if stats is not None:
                    bound *= max(stats.distinct, 1)
                    if bound >= context.rows:
                        return context.rows
                    continue
            return context.rows
        return min(bound, context.rows)

    def _check_aggregate_call(
        self,
        node: ast.FunctionCall,
        scope: _Scope,
        context: _Context,
        output_aliases: dict[str, ExprType] | None,
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
        argument_type = self._check(
            node.args[0], scope, inner, output_aliases
        )
        signature = _AGGREGATE_SIGNATURES.get(name)
        if signature is None:  # registered custom aggregate
            return DataType.ANY
        if signature.kind_at(0) == "num" and not _numeric_ok(
            argument_type
        ):
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

    # -- aggregate discovery / positional resolution ---------------------

    def _resolve_positional(
        self,
        expression: ast.Expression,
        items: list[ast.SelectItem],
    ) -> ast.Expression:
        """GROUP BY ordinals / output aliases, as the planner resolves
        them."""
        position = ast.output_position(expression)
        if position is not None:
            if 1 <= position <= len(items):
                return items[position - 1].expression
            self._diag(
                "ANA014",
                f"GROUP BY position {position} is out of range "
                f"(1..{len(items)})",
            )
            return ast.Literal(1)  # placeholder; error already recorded
        if isinstance(expression, ast.ColumnRef) and (
            expression.table is None
        ):
            for item in items:
                if item.alias and item.alias.lower() == (
                    expression.name.lower()
                ):
                    return item.expression
        return expression


def _type_name(expression_type: ExprType) -> str:
    return "NULL" if expression_type is None else expression_type.value
