"""Expression compilation: AST expression -> kernel over a morsel of rows.

Expressions are compiled once at plan time, bottom-up, into *kernels*:
a kernel takes a morsel (a list of row tuples) and answers one value
per row, in order, so the type decisions an expression needs are taken
once per morsel, not once per row.  SQL three-valued logic is
implemented throughout: comparisons involving NULL yield NULL, AND/OR
short-circuit per Kleene logic, and WHERE treats NULL as false (the
executor keeps a row when its predicate value is truthy, and NULL is
not).

A column read is one ``itemgetter`` pass.  A test of one side against
literals -- ``<op> literal``, ``[NOT] BETWEEN`` or ``[NOT] IN`` over
literals of one type family, ``[NOT] LIKE 'pattern'`` -- asks once per
morsel whether every value is of the literal's family as it is, and if
so maps the operator over the column; any other morsel takes
``compare`` value by value.  The right side of AND/OR, later CASE
branches and later IN items run only on the rows a row-at-a-time
evaluation reaches, so a UDF there is called, and fails, on exactly
those rows.  A WHERE predicate (:meth:`ExpressionCompiler.predicate`)
narrows the morsel conjunct by conjunct instead of building the AND's
values.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import and_, is_, is_not, itemgetter, le, ne, not_, truth
from typing import TYPE_CHECKING

from repro.db import types as dbtypes
from repro.db.resolve import Owner, slot
from repro.db.result import RowLayout
from repro.db.sql import ast
from repro.db.types import TEXT, SQLValue, compare, values_equal
from repro.errors import ExecutionError, PlanningError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.functions import FunctionRegistry, Scalar
    from repro.db.planner import Planner

Row = tuple[SQLValue, ...]
#: One row's value of an expression: what constants and tests ask for.
Evaluator = Callable[[Row], SQLValue]
#: An expression over a morsel: one value per row, in row order.
Kernel = Callable[[list[Row]], list[SQLValue]]
#: A WHERE predicate over a morsel: the rows it is TRUE for, in order.
Predicate = Callable[[list[Row]], list[Row]]
#: One conjunct of a predicate: the rows it is TRUE for, and, when the
#: flag asks, the rows it is NULL for (a later conjunct still runs there).
_Select = Callable[[list[Row], bool], tuple[list[Row], list[Row]]]


class ExpressionCompiler:
    """Compiles expressions against one row layout.

    ``subquery_planner`` is consulted lazily for subquery expressions;
    subquery results are computed on first use and cached, so an
    uncorrelated ``IN (SELECT ...)`` executes its inner query once.

    ``sites`` maps :class:`~repro.db.sql.ast.FunctionCall` nodes (by
    structural equality) to batched :class:`UDFCallSite`\\ s; the batched
    UDF path uses it to splice memo lookups in place of expensive calls
    while the rest of the expression compiles normally.

    A kernel or predicate that calls an expensive function no site
    resolves is marked (see :func:`reads_row_by_row`): the operator
    holding it reads its input one row at a time, so no LM call is made
    that a row-at-a-time plan would not make.
    """

    def __init__(
        self,
        layout: RowLayout,
        functions: "FunctionRegistry",
        subquery_planner: "Planner | None" = None,
        sites: "dict[ast.FunctionCall, UDFCallSite] | None" = None,
        owners: "dict[int, Owner] | None" = None,
    ) -> None:
        self._layout = layout
        self._functions = functions
        self._subquery_planner = subquery_planner
        self._sites = sites
        #: Each column reference's owner (see :mod:`repro.db.resolve`).
        self._owners = owners if owners is not None else {}
        #: Whether what is being compiled makes an unbatched LM call.
        self._unbatched = False

    def kernel(self, expression: ast.Expression) -> Kernel:
        """``expression``'s values over a morsel."""
        self._unbatched = False
        kernel = self._compile(expression)
        if self._unbatched:
            kernel = partial(kernel)  # a copy that can carry the mark
            kernel.serial = True  # type: ignore[attr-defined]
        return kernel

    def predicate(self, expression: ast.Expression) -> Predicate:
        """The WHERE form of ``expression``: the rows it is TRUE for.

        The conjuncts of a top-level AND narrow the morsel one after
        another.  A row a conjunct leaves NULL is kept aside and still
        meets the later conjuncts, as Kleene AND evaluates them there,
        then is dropped at the end.
        """
        self._unbatched = False
        keep = _narrowing([self._select(c) for c in _conjuncts(expression)])
        if self._unbatched:
            keep.serial = True  # type: ignore[attr-defined]
        return keep

    def compile(self, expression: ast.Expression) -> Evaluator:
        """``expression``'s value for one row: its kernel on a one-row
        morsel (for constants, and for tests that ask row by row)."""
        kernel = self.kernel(expression)
        return lambda row: kernel([row])[0]

    def _compile(self, expression: ast.Expression) -> Kernel:
        method_name = "_compile_" + type(expression).__name__.lower()
        method = getattr(self, method_name, None)
        if method is None:
            raise PlanningError(
                f"unsupported expression node {type(expression).__name__}"
            )
        return method(expression)

    def _select(self, node: ast.Expression) -> _Select:
        test = self._test(node)
        if test is None:
            return _select_truthy(self._compile(node))
        return test.select

    # -- leaves ------------------------------------------------------------

    def _compile_literal(self, node: ast.Literal) -> Kernel:
        value = node.value
        return lambda rows: [value] * len(rows)

    def _compile_columnref(self, node: ast.ColumnRef) -> Kernel:
        owner = self._owners.get(id(node))
        return read_column(slot(self._layout, node, owner))

    # -- operators ----------------------------------------------------------

    def _compile_unaryop(self, node: ast.UnaryOp) -> Kernel:
        operand = self._compile(node.operand)
        if node.op == "NOT":
            return lambda rows: [
                None if value is None else not value
                for value in operand(rows)
            ]
        if node.op == "-":
            return lambda rows: list(map(_negative, operand(rows)))
        if node.op == "+":
            return operand
        raise PlanningError(f"unknown unary operator {node.op!r}")

    def _compile_binaryop(self, node: ast.BinaryOp) -> Kernel:
        if node.op in ("AND", "OR"):
            return _logical(
                node.op, self._compile(node.left), self._compile(node.right)
            )
        if node.op in _COMPARISONS:
            test = self._test(node)
            if test is not None:
                return test.values
            function = partial(_compared, _COMPARISONS[node.op])
        elif node.op in ("+", "-", "*", "/", "%"):
            function = partial(_arithmetic, node.op)
        elif node.op == "||":
            function = _concat
        else:
            raise PlanningError(f"unknown binary operator {node.op!r}")
        return _pairwise(
            function, self._compile(node.left), self._compile(node.right)
        )

    # -- functions -----------------------------------------------------------

    def _compile_functioncall(self, node: ast.FunctionCall) -> Kernel:
        site = self._sites.get(node) if self._sites is not None else None
        if site is not None:
            self._unbatched |= site.serial
            return site.evaluate
        name = node.name
        # Resolution has refused every call but a scalar's of its arity.
        scalar = self._functions.scalar(name)
        function = scalar.function  # type: ignore[union-attr]
        self._unbatched |= scalar.expensive  # type: ignore[union-attr]
        arguments = [self._compile(arg) for arg in node.args]

        def call(rows: list[Row]) -> list[SQLValue]:
            columns = [argument(rows) for argument in arguments]
            try:
                if not columns:
                    return [function() for _ in rows]
                return list(map(function, *columns))
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"error in function {name}: {exc}"
                ) from exc

        return call

    # -- conditionals ----------------------------------------------------------

    def _compile_caseexpression(self, node: ast.CaseExpression) -> Kernel:
        operand = self._compile(node.operand) if node.operand else None
        branches = [
            (self._compile(condition), self._compile(result))
            for condition, result in node.branches
        ]
        default = self._compile(node.default) if node.default else None

        def evaluate(rows: list[Row]) -> list[SQLValue]:
            out: list[SQLValue] = [None] * len(rows)
            #: Positions of the rows no branch has taken yet.
            pending = list(range(len(rows)))
            subjects = operand(rows) if operand is not None else None
            for condition, result in branches:
                if not pending:
                    break
                tested = condition([rows[i] for i in pending])
                if subjects is not None:
                    tested = [
                        values_equal(subjects[i], value)
                        for i, value in zip(pending, tested)
                    ]
                taken = list(compress(pending, tested))
                if taken:
                    _scatter(out, taken, result([rows[i] for i in taken]))
                    pending = [i for i, hit in zip(pending, tested) if not hit]
            if default is not None and pending:
                _scatter(out, pending, default([rows[i] for i in pending]))
            return out

        return evaluate

    def _compile_castexpression(self, node: ast.CastExpression) -> Kernel:
        operand = self._compile(node.operand)
        target = dbtypes.DataType.from_sql(node.type_name)
        return lambda rows: [_cast(value, target) for value in operand(rows)]

    # -- predicates ---------------------------------------------------------

    def _test(self, node: ast.Expression) -> "_Test | None":
        found = _literal_test(node)
        if found is None:
            return None
        operand, *how = found
        negated = getattr(node, "negated", False)
        return _Test(self._compile(operand), *how, negated)

    def _compile_inlist(self, node: ast.InList) -> Kernel:
        test = self._test(node)
        if test is not None:
            return test.values
        operand = self._compile(node.operand)
        items = [self._compile(item) for item in node.items]
        negated = node.negated
        # An item is read only up to a row's first match, and not at all
        # for a NULL subject: row by row, lazily.
        return lambda rows: [
            _in_values(subject, (item([row])[0] for item in items), negated)
            for row, subject in zip(rows, operand(rows))
        ]

    def _compile_betweenexpression(
        self, node: ast.BetweenExpression
    ) -> Kernel:
        test = self._test(node)
        if test is not None:
            return test.values
        operand = self._compile(node.operand)
        low, high = self._compile(node.lower), self._compile(node.upper)
        negated = repeat(node.negated)
        return lambda rows: list(
            map(_between, operand(rows), low(rows), high(rows), negated)
        )

    def _compile_likeexpression(self, node: ast.LikeExpression) -> Kernel:
        test = self._test(node)
        if test is not None:
            return test.values
        cache: dict[str, re.Pattern[str]] = {}
        negated = node.negated

        def like(subject: SQLValue, pattern_text: SQLValue) -> SQLValue:
            if subject is None or pattern_text is None:
                return None
            compiled = cache.get(pattern_text)  # type: ignore[arg-type]
            if compiled is None:
                compiled = _like_to_regex(str(pattern_text))
                cache[pattern_text] = compiled  # type: ignore[index]
            return (compiled.match(_to_text(subject)) is not None) != negated

        return _pairwise(
            like, self._compile(node.operand), self._compile(node.pattern)
        )

    def _compile_isnullexpression(
        self, node: ast.IsNullExpression
    ) -> Kernel:
        operand = self._compile(node.operand)
        test = is_not if node.negated else is_
        return lambda rows: list(map(test, operand(rows), repeat(None)))

    # -- subqueries ---------------------------------------------------------

    def _subquery_values(self, select: ast.Select) -> Callable[[], list]:
        if self._subquery_planner is None:
            raise PlanningError("subqueries are not allowed here")
        planner = self._subquery_planner
        # The closure below answers once: a plan holding it runs once.
        planner.reusable = False
        cache: list = []

        def fetch() -> list[Row]:
            # A failure is kept too: a morsel run again row by row meets
            # it again without running the subquery (and its UDFs) twice.
            if not cache:
                try:
                    cache.append(planner.run_select(select).rows)
                except Exception as exc:
                    cache.append(exc)
            if isinstance(cache[0], Exception):
                raise cache[0]
            return cache[0]

        return fetch

    def _compile_insubquery(self, node: ast.InSubquery) -> Kernel:
        operand = self._compile(node.operand)
        fetch = self._subquery_values(node.subquery)
        hit = not node.negated
        members: list[tuple[set, SQLValue]] = []

        def evaluate(rows: list[Row]) -> list[SQLValue]:
            subjects = operand(rows)
            if subjects.count(None) == len(subjects):
                # The subquery runs at the first non-NULL subject.
                return [None] * len(subjects)
            if not members:
                values = {row[0] for row in fetch()}
                miss = None if None in values else node.negated
                members.append((values - {None}, miss))
            values, miss = members[0]
            return [
                None if subject is None else hit if subject in values else miss
                for subject in subjects
            ]

        return evaluate

    def _compile_existssubquery(
        self, node: ast.ExistsSubquery
    ) -> Kernel:
        fetch = self._subquery_values(node.subquery)
        negated = node.negated
        return lambda rows: (
            [bool(fetch()) != negated] * len(rows) if rows else []
        )

    def _compile_scalarsubquery(self, node: ast.ScalarSubquery) -> Kernel:
        fetch = self._subquery_values(node.subquery)

        def evaluate(rows: list[Row]) -> list[SQLValue]:
            fetched = fetch() if rows else None
            return [fetched[0][0] if fetched else None] * len(rows)

        return evaluate


def read_column(position: int) -> Kernel:
    """The kernel of a bare column read: one ``itemgetter`` pass."""
    read = itemgetter(position)
    return lambda rows: list(map(read, rows))


def reads_row_by_row(*compiled: Callable | None) -> bool:
    """Whether any of ``compiled`` makes an LM call no batched site
    resolves, so that the operator holding it must read row by row."""
    return any(getattr(each, "serial", False) for each in compiled)


def _conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    """The conjuncts of a top-level AND, in evaluation order."""
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _narrowing(selects: list[_Select]) -> Predicate:
    last = len(selects) - 1

    def keep(rows: list[Row]) -> list[Row]:
        #: Rows no conjunct was FALSE for but some was NULL for.
        undecided: list[Row] = []
        for index, select in enumerate(selects):
            if undecided:
                kept, nulls = select(undecided, True)
                undecided = kept + nulls
            if rows:
                rows, nulls = select(rows, index < last)
                undecided += nulls
        return rows

    return keep


def _select_truthy(kernel: Kernel) -> _Select:
    def select(rows: list[Row], undecided: bool) -> tuple[list, list]:
        values = kernel(rows)
        nulls: list[Row] = []
        if undecided and None in values:
            nulls = list(compress(rows, map(is_, values, repeat(None))))
        return list(compress(rows, values)), nulls

    return select


_NULL = type(None)


@dataclass(slots=True)
class _Test:
    """One side tested against literals of one type family.

    ``fast(values)`` answers, with anything truthy for TRUE, for values
    that are all of ``family`` as they are -- with no NaN where
    ``nan_decides`` (``compare`` calls NaN a tie, which decides ``=``,
    ``<>``, ``<=``, ``>=``, BETWEEN and IN but not ``<`` or ``>``).
    ``slow(value)`` answers any one value, NULL included, in
    three-valued logic.  Both answer before ``negated``.
    """

    operand: Kernel
    family: frozenset
    nan_decides: bool
    fast: Callable[[list[SQLValue]], Iterable[object]]
    slow: Callable[[SQLValue], SQLValue]
    negated: bool = False

    def _fits(self, values: list[SQLValue], kinds: set[type]) -> bool:
        return kinds <= self.family and not (
            self.nan_decides
            and float in kinds
            and any(map(ne, values, values))  # a NaN
        )

    def _answer(self, value: SQLValue) -> SQLValue:
        answer = self.slow(value)
        return None if answer is None else answer != self.negated

    def values(self, rows: list[Row]) -> list[SQLValue]:
        values = self.operand(rows)
        if not self._fits(values, set(map(type, values))):
            return list(map(self._answer, values))
        flags = self.fast(values)
        return list(map(not_ if self.negated else truth, flags))

    def select(
        self, rows: list[Row], undecided: bool
    ) -> tuple[list[Row], list[Row]]:
        values = self.operand(rows)
        kinds = set(map(type, values))
        nulls: list[Row] = []
        if _NULL in kinds:  # the test is NULL there
            kinds.discard(_NULL)
            present = list(map(is_not, values, repeat(None)))
            if undecided:
                nulls = list(compress(rows, map(not_, present)))
            rows = list(compress(rows, present))
            values = list(compress(values, present))
        if not self._fits(values, kinds):
            return list(compress(rows, map(self._answer, values))), nulls
        flags = self.fast(values)
        if self.negated:  # NOT of a two-valued answer: nothing is NULL
            flags = map(not_, flags)
        return list(compress(rows, flags)), nulls


def _literal_test(node: ast.Expression) -> tuple | None:
    """``node`` as a test of one side against literals of one family:
    ``(side, family, nan_decides, fast, slow)`` of a :class:`_Test`,
    or None."""
    if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
        for side, other, op in (
            (node.left, node.right, node.op),
            (node.right, node.left, FLIPPED.get(node.op, node.op)),
        ):
            family, (literal,) = _family(other)
            if family is not None:
                test = _COMPARISONS[op]
                fast = lambda values: map(test, values, repeat(literal))
                slow = partial(_compared, test, right=literal)
                return side, family, op not in ("<", ">"), fast, slow
        return None
    if isinstance(node, ast.BetweenExpression):
        family, (low, high) = _family(node.lower, node.upper)
        fast = lambda values: map(
            and_, map(le, repeat(low), values), map(le, values, repeat(high))
        )
        slow = partial(_between, low=low, high=high, negated=False)
    elif isinstance(node, ast.InList):
        family, literals = _family(*node.items)
        # Numbers that are equal hash alike, so ``1`` finds ``1.0`` and
        # ``-0.0`` finds ``0``, as ``compare`` says.
        fast = partial(map, frozenset(literals).__contains__)
        slow = partial(_in_values, values=literals, negated=False)
    elif (
        isinstance(node, ast.LikeExpression)
        and isinstance(node.pattern, ast.Literal)
        and node.pattern.value is not None
    ):
        match = _like_to_regex(str(node.pattern.value)).match
        family, fast, slow = TEXT, partial(map, match), partial(_like, match)
    else:
        return None
    if family is None:
        return None
    # BETWEEN and IN see NaN's tie; a text family never holds a NaN.
    return node.operand, family, family is not TEXT, fast, slow


def _family(*nodes: ast.Expression) -> tuple[frozenset | None, list]:
    """The values of ``nodes`` when all are literals of one family that
    order as they are (not NULL, a boolean or NaN), with that family;
    else ``(None, [])``."""
    values = [node.value for node in nodes if isinstance(node, ast.Literal)]
    families = {_RAW_COMPARABLE.get(type(value)) for value in values}
    if len(values) != len(nodes) or len(families) != 1 or None in families:
        return None, [None] * len(nodes)
    if any(value != value for value in values):  # NaN
        return None, [None] * len(nodes)
    return families.pop(), values


def _logical(op: str, left: Kernel, right: Kernel) -> Kernel:
    """AND / OR: the right side runs on the rows the left leaves
    undecided (not FALSE for AND, not TRUE for OR)."""
    decides = op == "OR"  # the left value that decides it alone

    def evaluate(rows: list[Row]) -> list[SQLValue]:
        lhs = left(rows)
        reached = [value is None or bool(value) != decides for value in lhs]
        rhs = iter(right(list(compress(rows, reached))))
        return [
            _kleene(decides, value, next(rhs)) if reach else decides
            for value, reach in zip(lhs, reached)
        ]

    return evaluate


def _kleene(decides: bool, lhs: SQLValue, rhs: SQLValue) -> SQLValue:
    """AND (``decides`` False) / OR (True) of a left value that did not
    decide it alone and a right one."""
    if rhs is not None and bool(rhs) == decides:
        return decides
    if lhs is None or rhs is None:
        return None
    return not decides


def _scatter(out: list, positions: list[int], values: list) -> None:
    for position, value in zip(positions, values):
        out[position] = value


def _pairwise(
    function: Callable[[SQLValue, SQLValue], SQLValue],
    left: Kernel,
    right: Kernel,
) -> Kernel:
    return lambda rows: list(map(function, left(rows), right(rows)))


# ---------------------------------------------------------------------------
# Batched UDF call sites
# ---------------------------------------------------------------------------

#: Memo key of one resolved UDF invocation: ``(Scalar, argument tuple)``.
#: The record, not its name: a name registered again is a new record,
#: so no cache serves a value the replaced function computed.
MemoKey = tuple["Scalar", tuple[SQLValue, ...]]

_UNRESOLVED = object()


class UDFCallError:
    """A memoized *failure*: re-raised whenever a row reads the slot.

    The batched path resolves distinct argument tuples ahead of row
    evaluation, so a failing call must be parked rather than raised at
    dispatch time — the per-row oracle path only raises when the first
    row carrying the failing arguments is actually evaluated, and the
    batched path must surface the identical error at the identical row.
    Failures are never written to the cross-statement cache.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error


class UDFCallSite:
    """One strict expensive-call site, compiled for batched execution.

    Holds the registered function's record, the argument kernels (cheap
    expressions) and a statement-local memo of resolved keys.
    ``evaluate`` is the residual-phase kernel spliced into the
    surrounding expression in place of the call: it recomputes the keys
    (argument evaluation is deterministic, so they match the collect
    phase) and reads the memo.  Argument errors deliberately re-raise
    *here*, at their row, exactly as the per-row path would.  ``serial``
    says an argument makes an unbatched LM call.  ``cascade`` says the
    record's cheap tier answers first (``repro.db.plan._dispatch``); it
    never memoizes errors, never changes results.
    """

    __slots__ = ("record", "arguments", "cascade", "serial", "memo")

    def __init__(
        self, record: "Scalar", arguments: list[Kernel], cascade: bool
    ) -> None:
        self.record = record
        self.arguments = arguments
        self.cascade = cascade and record.cheap is not None
        self.serial = reads_row_by_row(*arguments)
        self.memo: dict[MemoKey, object] = {}

    def keys(self, rows: list[Row]) -> list[MemoKey]:
        """Each row's memo key (raising where an argument fails)."""
        if not self.arguments:
            return [(self.record, ())] * len(rows)
        columns = [argument(rows) for argument in self.arguments]
        return list(zip(repeat(self.record), zip(*columns)))

    def evaluate(self, rows: list[Row]) -> list[SQLValue]:
        values = list(map(self.memo.get, self.keys(rows), repeat(_UNRESOLVED)))
        for value in values:
            if value is _UNRESOLVED:
                raise ExecutionError(
                    "internal: uncollected batched call to "
                    f"{self.record.name}"
                )
            if type(value) is UDFCallError:
                raise value.error
        return values

    def call_scalar(self, args: tuple[SQLValue, ...]) -> object:
        """Invoke the scalar form, parking errors per the oracle contract."""
        try:
            return self.record.function(*args)
        except ExecutionError as exc:
            return UDFCallError(exc)
        except Exception as exc:
            return UDFCallError(
                ExecutionError(f"error in function {self.record.name}: {exc}")
            )


def strict_expensive_calls(
    expression: ast.Expression, functions: "FunctionRegistry"
) -> list[ast.FunctionCall]:
    """Expensive calls evaluated *unconditionally* for every row.

    Walks only the edges the compiled kernels traverse on every row, so a
    call the per-row path might skip (the right side of AND/OR, CASE
    branches past the first WHEN, IN-list items) is never pre-executed
    by the batched path — pre-executing it could change results, error
    behaviour, or LM accounting.  Returned in post-order (inner calls
    before the calls that consume them) with structural duplicates
    removed, which is exactly the dispatch order the batched operators
    need for nested LM UDFs.
    """
    found: list[ast.FunctionCall] = []

    def visit(node: ast.Expression) -> None:
        if isinstance(node, ast.FunctionCall):
            for arg in node.args:
                visit(arg)
            if functions.is_expensive(node.name) and node not in found:
                found.append(node)
        elif isinstance(node, ast.BinaryOp):
            visit(node.left)
            if node.op not in ("AND", "OR"):  # right side short-circuits
                visit(node.right)
        elif isinstance(node, ast.UnaryOp):
            visit(node.operand)
        elif isinstance(node, ast.CaseExpression):
            # The operand and the first WHEN condition always run; later
            # conditions, THEN results, and ELSE are conditional.
            if node.operand is not None:
                visit(node.operand)
            if node.branches:
                visit(node.branches[0][0])
        elif isinstance(node, ast.CastExpression):
            visit(node.operand)
        elif isinstance(node, ast.BetweenExpression):
            visit(node.operand)
            visit(node.lower)
            visit(node.upper)
        elif isinstance(node, ast.LikeExpression):
            visit(node.operand)
            visit(node.pattern)
        elif isinstance(node, ast.IsNullExpression):
            visit(node.operand)
        elif isinstance(node, (ast.InList, ast.InSubquery)):
            visit(node.operand)  # items short-circuit on a NULL subject
        # Literal / ColumnRef / Star / EXISTS / scalar subquery: no
        # strict expression children.

    visit(expression)
    return found


def plan_batched_expressions(
    expressions: list[ast.Expression],
    layout: RowLayout,
    functions: "FunctionRegistry",
    subquery_planner: "Planner | None" = None,
    cascade: bool = False,
    owners: "dict[int, Owner] | None" = None,
) -> tuple[list[UDFCallSite], ExpressionCompiler]:
    """The batched call sites of ``expressions``, and a compiler that
    splices them in.

    Extracts every strict expensive call across all expressions (so a
    ``LLM(...)`` repeated between SELECT items resolves once) and builds
    a :class:`UDFCallSite` per distinct call; the compiler returned
    compiles the residual expressions with the sites spliced in.  Site
    order is inner-before-outer, so a site's argument kernels may read
    earlier sites' memoized results (nested LM UDFs batch in waves).

    With ``cascade=True``, sites whose function has a registered cheap
    tier route each distinct argument tuple through it first; only
    tuples the cheap tier declines (returns None for) reach the
    expensive form.
    """
    calls: list[ast.FunctionCall] = []
    for expression in expressions:
        for call in strict_expensive_calls(expression, functions):
            if call not in calls:
                calls.append(call)
    sites: dict[ast.FunctionCall, UDFCallSite] = {}
    for call in calls:
        compiler = ExpressionCompiler(
            layout, functions, subquery_planner, dict(sites), owners
        )
        sites[call] = UDFCallSite(
            functions.scalar(call.name),  # type: ignore[arg-type]
            [compiler.kernel(arg) for arg in call.args],
            cascade,
        )
    compiler = ExpressionCompiler(
        layout, functions, subquery_planner, sites, owners
    )
    return list(sites.values()), compiler


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _to_text(value: SQLValue) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _negative(value: SQLValue) -> SQLValue:
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"cannot negate {value!r}")
    return -value


def _concat(lhs: SQLValue, rhs: SQLValue) -> SQLValue:
    if lhs is None or rhs is None:
        return None
    return _to_text(lhs) + _to_text(rhs)


def _arithmetic(op: str, lhs: SQLValue, rhs: SQLValue) -> SQLValue:
    if lhs is None or rhs is None:
        return None
    if not isinstance(lhs, (int, float)) or not isinstance(rhs, (int, float)):
        raise ExecutionError(
            f"arithmetic on non-numeric values {lhs!r} {op} {rhs!r}"
        )
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            return None  # SQLite: division by zero yields NULL
        if isinstance(lhs, int) and isinstance(rhs, int):
            quotient = lhs / rhs
            return int(quotient) if quotient == int(quotient) else quotient
        return lhs / rhs
    return _remainder(lhs, rhs)


def _cast(value: SQLValue, target: dbtypes.DataType) -> SQLValue:
    """SQLite's lenient CAST: a REAL becomes an INTEGER by truncating
    toward zero, and what will not convert becomes 0 (0.0 as REAL)."""
    if target is dbtypes.DataType.INTEGER and type(value) is float:
        if math.isfinite(value):
            return int(value)
    try:
        return dbtypes.coerce(value, target)
    except Exception:
        if target is dbtypes.DataType.INTEGER:
            return 0
        if target is dbtypes.DataType.REAL:
            return 0.0
        return _to_text(value) if value is not None else None


def _remainder(lhs: int | float, rhs: int | float) -> SQLValue:
    """SQLite's ``%``: both operands truncated to integers, the sign of
    the dividend, REAL if either operand is, NULL for a zero divisor
    (and, as SQLite has no NaN or infinity to give, for those)."""
    try:
        dividend, divisor = int(lhs), int(rhs)
    except (OverflowError, ValueError):  # infinity, NaN
        return None
    if divisor == 0:
        return None
    remainder = abs(dividend) % abs(divisor)
    if dividend < 0:
        remainder = -remainder
    if type(lhs) is float or type(rhs) is float:
        return float(remainder)
    return remainder


#: What a comparison operator asks, of two values that order as they
#: are or of a three-way ordering and 0.
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``literal op col`` read as ``col op' literal``.
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: By literal type, the column value types that order against it as
#: they are (so not ``bool``, which is left to ``compare``).
_RAW_COMPARABLE = {
    int: dbtypes.NUMBERS,
    float: dbtypes.NUMBERS,
    str: dbtypes.TEXT,
}


def _compared(
    test: Callable[[int, int], bool], left: SQLValue, right: SQLValue
) -> SQLValue:
    ordering = compare(left, right)
    return None if ordering is None else test(ordering, 0)


def _like(match: Callable, value: SQLValue) -> SQLValue:
    return None if value is None else match(_to_text(value)) is not None


def _in_values(
    subject: SQLValue, values: Iterable[SQLValue], negated: bool
) -> SQLValue:
    """``subject [NOT] IN (values)`` in three-valued logic, reading
    ``values`` only up to the first match: a match decides it, and
    otherwise a NULL among them makes it NULL."""
    if subject is None:
        return None
    saw_null = False
    for value in values:
        if value is None:
            saw_null = True
        elif dbtypes.values_equal(subject, value):
            return not negated
    if saw_null:
        return None
    return negated


def _between(
    value: SQLValue, low: SQLValue, high: SQLValue, negated: bool
) -> SQLValue:
    """``value >= low AND value <= high`` in three-valued logic: one
    false side decides it even when the other is NULL."""
    above = dbtypes.compare(value, low)
    below = dbtypes.compare(value, high)
    if (above is not None and above < 0) or (below is not None and below > 0):
        return negated
    if above is None or below is None:
        return None
    return not negated


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    pieces: list[str] = []
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    # \Z, not $: a pattern must not match before a final newline.
    return re.compile("".join(pieces) + r"\Z", re.IGNORECASE | re.DOTALL)
