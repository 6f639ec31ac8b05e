"""Builtin scalar/aggregate functions and the UDF registry.

The registry is the extension point that lets a language model run inside
SQL: registering a callable under a name such as ``LLM`` makes
``WHERE LLM('is a classic', movie_title) = 'yes'`` executable, the design
the paper's Figure 1 illustrates.  UDFs may be marked *expensive*, which
the optimizer uses to evaluate cheap relational predicates first so the
expensive LM predicate sees as few rows as possible.

Each name holds one record, a :class:`Scalar` or an :class:`Aggregate`,
carrying everything a call reads, its :class:`Signature` included: the
planner, the batched executor and the static analyzer all read that
one definition, and registering a name again replaces all of it.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any

from repro.db.sql import ast
from repro.db.types import (
    NUMBERS,
    TEXT,
    DataType,
    SQLValue,
    compare,
    sort_key,
)
from repro.errors import ExecutionError

ScalarFunction = Callable[..., SQLValue]

#: Vectorised form of a scalar UDF: one call over many argument tuples,
#: returning one result per tuple *in order*.  Must agree value-for-value
#: with the scalar form — the batched executor treats the scalar form as
#: the oracle and property tests enforce the equivalence.
BatchFunction = Callable[[Sequence[tuple[SQLValue, ...]]], Sequence[SQLValue]]


@dataclass
class AggregateSpec:
    """An aggregate as an initial state + fold + finalizer triple.

    ``fold(state, values)`` folds a list of argument values -- one per
    row of a group's share of a morsel, in row order, NULLs included --
    into the state and returns the new state.  It decides each type
    question once per list where it can, and must fold exactly as one
    value at a time would: same result, same float bits, and on a bad
    value the error the first bad value raises.
    """

    make_state: Callable[[], Any]
    fold: Callable[[Any, list[SQLValue]], Any]
    finish: Callable[[Any], SQLValue]


@dataclass(frozen=True)
class Signature:
    """What a function takes and gives, as the static analyzer checks it.

    Argument kinds: "num" rejects TEXT operands, "text" rejects numeric
    ones, "any" accepts everything (matching what the builtin's Python
    body tolerates, not what ANSI SQL would say).  ``returns`` None is
    the type of the first argument (aggregate MIN, MAX and SUM).
    """

    min_args: int
    max_args: int | None  # None = variadic
    kinds: tuple[str, ...] = ()  # per-position; last kind repeats
    returns: DataType | None = DataType.ANY

    def kind_at(self, position: int) -> str:
        if not self.kinds:
            return "any"
        return self.kinds[min(position, len(self.kinds) - 1)]

    def takes(self, count: int) -> bool:
        """Whether ``count`` arguments are within the arity."""
        return self.min_args <= count and (
            self.max_args is None or count <= self.max_args
        )

    @property
    def arity(self) -> str:
        """The argument counts it takes, as a diagnostic says them."""
        if self.max_args is None:
            return f"at least {self.min_args}"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args}..{self.max_args}"


@dataclass(frozen=True, eq=False)
class Scalar:
    """One registered scalar function: everything a call of it reads.

    ``signature`` is None when the callable's arity cannot be read.
    Compared by identity: a memo key holds the record, so a value one
    registration computed is never served for the next.
    """

    name: str
    function: ScalarFunction
    signature: Signature | None
    expensive: bool = False
    batch: BatchFunction | None = None
    cheap: ScalarFunction | None = None


@dataclass(frozen=True, eq=False)
class Aggregate:
    """One registered aggregate: its fold and its signature."""

    name: str
    spec: AggregateSpec
    signature: Signature


class FunctionRegistry:
    """Named scalar and aggregate functions, plus user-defined functions.

    One record per name and kind; registering a name replaces its whole
    record.
    """

    def __init__(self) -> None:
        self._scalars: dict[str, Scalar] = {}
        self._aggregates: dict[str, Aggregate] = {}
        #: Bumped by every registration: anything compiled or checked
        #: against the registry (closures bind the function object)
        #: stands while this number does.
        self.version = 0
        _register_builtin_scalars(self)
        _register_builtin_aggregates(self)

    # -- registration ----------------------------------------------------

    def register_scalar(
        self,
        name: str,
        function: ScalarFunction,
        expensive: bool = False,
        batch: BatchFunction | None = None,
        cheap: ScalarFunction | None = None,
    ) -> None:
        """Register a scalar function (UDF) under ``name``, replacing
        whatever was registered under it.

        ``expensive=True`` tags it for optimizer deferral (used for LM
        UDFs, whose per-row cost dwarfs relational predicates).

        ``batch`` optionally supplies a vectorised form: called with a
        list of argument tuples, it returns one result per tuple in
        order, and must agree value-for-value with ``function``.  The
        batched execution path (a :class:`repro.db.plan.Filter` or
        ``Project`` with call sites) dispatches one ``batch`` call per
        morsel of distinct argument tuples — for an LM UDF this is where
        per-row ``complete()`` turns into one ``complete_batch()``.  Without
        ``batch``, the batched path still deduplicates and memoizes but
        invokes ``function`` once per distinct tuple.

        ``cheap`` supplies a *cheap classifier tier* for the cascade
        route: called with the same arguments as ``function``, it must
        return either the exact value ``function`` would return or
        ``None`` to escalate to the expensive tier.  Soundness is the
        registrant's contract — a cheap tier that disagrees with the
        expensive form changes query results.  Cheap-tier exceptions
        are treated as escalations, so a flaky cheap tier degrades
        cost, never correctness.

        The analyzer checks calls against the callable's positional
        arity, read here once.
        """
        self._define(
            Scalar(
                name.upper(),
                function,
                _callable_signature(function),
                expensive,
                batch,
                cheap,
            )
        )

    def _define(self, record: Scalar | Aggregate) -> None:
        table = self._scalars if type(record) is Scalar else self._aggregates
        table[record.name] = record  # type: ignore[assignment]
        self.version += 1

    # -- lookup ----------------------------------------------------------

    def scalar(self, name: str) -> Scalar | None:
        """The scalar registered under ``name``, if any."""
        return self._scalars.get(name.upper())

    def aggregate(self, name: str) -> Aggregate | None:
        """The aggregate registered under ``name``, if any."""
        return self._aggregates.get(name.upper())

    def aggregate_call(self, node: ast.FunctionCall) -> Aggregate | None:
        """The aggregate ``node`` computes, or None for any other call.

        An aggregate is called with ``*`` or one argument.  Any other
        shape under an aggregate's name calls the scalar of that name
        (multi-argument MIN/MAX, as in SQLite);
        :func:`repro.db.resolve.resolve` refuses it when there is none
        or it does not take that many arguments.
        """
        single = node.star or len(node.args) == 1
        return self.aggregate(node.name) if single else None

    def is_expensive(self, name: str) -> bool:
        scalar = self._scalars.get(name.upper())
        return scalar is not None and scalar.expensive

    def contains_expensive(self, expression: ast.Expression) -> bool:
        """True when any expensive call appears anywhere in ``expression``.

        Walks the full tree — including CASE branches, COALESCE/IIF
        arguments, IN lists, and LIKE/BETWEEN operands — so a conjunct
        like ``COALESCE(LLM(x), 'no') = 'yes'`` is correctly deferred
        behind cheap relational predicates.  This is the single source
        of truth for expensive-conjunct detection; the planner defers
        to it.
        """
        return any(
            isinstance(node, ast.FunctionCall)
            and self.is_expensive(node.name)
            for node in ast.walk(expression)
        )


def _callable_signature(function: ScalarFunction) -> Signature | None:
    """A UDF's positional arity as a signature, or None if unknowable."""
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
    return Signature(minimum, maximum)


# ---------------------------------------------------------------------------
# Scalar builtins
# ---------------------------------------------------------------------------


def _null_if_any_null(function: ScalarFunction) -> ScalarFunction:
    def wrapped(*args: SQLValue) -> SQLValue:
        if any(arg is None for arg in args):
            return None
        return function(*args)

    return wrapped


def _substr(text: str, start: int, length: int | None = None) -> str:
    # SQL SUBSTR is 1-based; negative start counts from the end.
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = max(len(text) + start, 0)
    else:
        begin = 0
    if length is None:
        return text[begin:]
    if length < 0:
        return ""
    return text[begin : begin + length]


def _round(value: float, digits: int = 0) -> float:
    # SQLite ROUND uses round-half-away-from-zero, not banker's rounding.
    factor = 10**digits
    scaled = value * factor
    rounded = math.floor(abs(scaled) + 0.5) * (1 if scaled >= 0 else -1)
    result = rounded / factor
    return float(result)


def _instr(haystack: str, needle: str) -> int:
    return haystack.find(needle) + 1


def _coalesce(*args: SQLValue) -> SQLValue:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(left: SQLValue, right: SQLValue) -> SQLValue:
    return None if left == right else left


def _iif(condition: SQLValue, then: SQLValue, otherwise: SQLValue) -> SQLValue:
    return then if condition else otherwise


def _scalar_min(*args: SQLValue) -> SQLValue:
    if any(arg is None for arg in args):
        return None
    return min(args, key=sort_key)


def _scalar_max(*args: SQLValue) -> SQLValue:
    if any(arg is None for arg in args):
        return None
    return max(args, key=sort_key)


def _register_builtin_scalars(registry: FunctionRegistry) -> None:
    def register(name, function, *signature) -> None:
        registry._define(Scalar(name, function, Signature(*signature)))

    num, real = ("num",), DataType.REAL
    integer, text = DataType.INTEGER, DataType.TEXT
    register("ABS", _null_if_any_null(abs), 1, 1, num)
    register("ROUND", _null_if_any_null(_round), 1, 2, num, real)
    length = _null_if_any_null(lambda s: len(str(s)))
    register("LENGTH", length, 1, 1, (), integer)
    upper = _null_if_any_null(lambda s: str(s).upper())
    register("UPPER", upper, 1, 1, (), text)
    lower = _null_if_any_null(lambda s: str(s).lower())
    register("LOWER", lower, 1, 1, (), text)
    trim = _null_if_any_null(lambda s: str(s).strip())
    register("TRIM", trim, 1, 1, (), text)
    ltrim = _null_if_any_null(lambda s: str(s).lstrip())
    register("LTRIM", ltrim, 1, 1, (), text)
    rtrim = _null_if_any_null(lambda s: str(s).rstrip())
    register("RTRIM", rtrim, 1, 1, (), text)
    replace = _null_if_any_null(lambda s, old, new: str(s).replace(old, new))
    register("REPLACE", replace, 3, 3, ("any", "text"), text)
    substr = _null_if_any_null(_substr)
    register("SUBSTR", substr, 2, 3, ("text", "num"), text)
    register("SUBSTRING", substr, 2, 3, ("text", "num"), text)
    register("INSTR", _null_if_any_null(_instr), 2, 2, ("text",), integer)
    register("COALESCE", _coalesce, 1, None)
    register("IFNULL", _coalesce, 2, 2)
    register("NULLIF", _nullif, 2, 2)
    register("IIF", _iif, 3, 3)
    register("SQRT", _null_if_any_null(math.sqrt), 1, 1, num, real)
    floor = _null_if_any_null(lambda v: float(math.floor(v)))
    register("FLOOR", floor, 1, 1, num, real)
    ceil = _null_if_any_null(lambda v: float(math.ceil(v)))
    register("CEIL", ceil, 1, 1, num, real)
    sign = _null_if_any_null(lambda v: (v > 0) - (v < 0))
    register("SIGN", sign, 1, 1, num, integer)
    # Multi-argument MIN/MAX are scalar (SQLite semantics); the planner
    # routes single-argument MIN/MAX to the aggregate implementations.
    register("MIN", _scalar_min, 2, None)
    register("MAX", _scalar_max, 2, None)


# ---------------------------------------------------------------------------
# Aggregate builtins
# ---------------------------------------------------------------------------


def _present(values: list[SQLValue]) -> list[SQLValue]:
    return [value for value in values if value is not None]


def _count(state: int, values: list[SQLValue]) -> int:
    return state + len(values) - values.count(None)


def _count_rows(state: int, rows: list) -> int:
    return state + len(rows)


#: COUNT, and COUNT(*), whose fold is handed the rows themselves.
COUNT = AggregateSpec(lambda: 0, _count, lambda state: state)
COUNT_ROWS = AggregateSpec(lambda: 0, _count_rows, lambda state: state)


def _sum_spec(empty_result: SQLValue) -> AggregateSpec:
    def fold(state: SQLValue, values: list[SQLValue]) -> SQLValue:
        present = _present(values)
        if not NUMBERS.issuperset(map(type, present)):
            for value in present:
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ExecutionError(
                        f"SUM over non-numeric value {value!r}"
                    )
        if not present:
            return state
        # Left to right, one ``+`` at a time, as a row loop adds.
        if state is None:
            return reduce(add, present)
        return reduce(add, present, state)

    def finish(state: SQLValue) -> SQLValue:
        return empty_result if state is None else state

    return AggregateSpec(lambda: None, fold, finish)


def _avg_spec() -> AggregateSpec:
    def fold(
        state: tuple[float, int], values: list[SQLValue]
    ) -> tuple[float, int]:
        total, count = state
        present = _present(values)
        if NUMBERS.issuperset(map(type, present)):
            total = reduce(add, map(float, present), total)
        else:
            for value in present:
                try:
                    total = total + float(value)
                except (TypeError, ValueError):
                    raise ExecutionError(
                        f"AVG over non-numeric value {value!r}"
                    ) from None
        return total, count + len(present)

    def finish(state: tuple[float, int]) -> SQLValue:
        total, count = state
        return None if count == 0 else total / count

    return AggregateSpec(lambda: (0.0, 0), fold, finish)


def _minmax_spec(pick_max: bool) -> AggregateSpec:
    wanted = 1 if pick_max else -1
    pick = max if pick_max else min

    def fold(state: SQLValue, values: list[SQLValue]) -> SQLValue:
        present = _present(values)
        if not present:
            return state
        kinds = set(map(type, present))
        if state is not None:
            kinds.add(type(state))
        if kinds <= NUMBERS or kinds == TEXT:
            # One family orders as it is, exactly as ``compare`` would
            # (NaN included), and ``min``/``max`` keep the earliest of
            # equals, as the row loop does.
            return pick(present) if state is None else pick(state, *present)
        for value in present:
            if state is None or compare(value, state) == wanted:
                state = value
        return state

    return AggregateSpec(lambda: None, fold, lambda state: state)


def _group_concat_spec() -> AggregateSpec:
    def fold(state: list[str], values: list[SQLValue]) -> list[str]:
        state.extend([str(value) for value in values if value is not None])
        return state

    def finish(state: list[str]) -> SQLValue:
        return None if not state else ",".join(state)

    return AggregateSpec(list, fold, finish)


def _register_builtin_aggregates(registry: FunctionRegistry) -> None:
    def register(name, spec, kinds=(), returns=DataType.ANY) -> None:
        signature = Signature(1, 1, kinds, returns)
        registry._define(Aggregate(name, spec, signature))

    register("COUNT", COUNT, returns=DataType.INTEGER)
    register("SUM", _sum_spec(empty_result=None), ("num",), returns=None)
    register("TOTAL", _sum_spec(empty_result=0.0), ("num",), DataType.REAL)
    register("AVG", _avg_spec(), ("num",), DataType.REAL)
    register("MIN", _minmax_spec(pick_max=False), returns=None)
    register("MAX", _minmax_spec(pick_max=True), returns=None)
    register("GROUP_CONCAT", _group_concat_spec(), returns=DataType.TEXT)
