"""Builtin scalar/aggregate functions and the UDF registry.

The registry is the extension point that lets a language model run inside
SQL: registering a callable under a name such as ``LLM`` makes
``WHERE LLM('is a classic', movie_title) = 'yes'`` executable, the design
the paper's Figure 1 illustrates.  UDFs may be marked *expensive*, which
the optimizer uses to evaluate cheap relational predicates first so the
expensive LM predicate sees as few rows as possible.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any

from repro.db.sql import ast
from repro.db.types import NUMBERS, TEXT, SQLValue, compare, sort_key
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


class FunctionRegistry:
    """Named scalar and aggregate functions, plus user-defined functions."""

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._aggregates: dict[str, AggregateSpec] = {}
        self._expensive: set[str] = set()
        self._batch: dict[str, BatchFunction] = {}
        self._cheap: dict[str, ScalarFunction] = {}
        self._cheap_batch: dict[str, BatchFunction] = {}
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
        cheap_batch: BatchFunction | None = None,
    ) -> None:
        """Register a scalar function (UDF) under ``name``.

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

        ``cheap`` (and optional ``cheap_batch``) supply a *cheap
        classifier tier* for the cascade route: called with the same
        arguments as ``function``, it must return either the exact
        value ``function`` would return or ``None`` to escalate to the
        expensive tier.  Soundness is the registrant's contract — a
        cheap tier that disagrees with the expensive form changes query
        results.  Cheap-tier exceptions are treated as escalations, so
        a flaky cheap tier degrades cost, never correctness.
        """
        upper = name.upper()
        self._scalars[upper] = function
        if expensive:
            self._expensive.add(upper)
        if batch is not None:
            self._batch[upper] = batch
        if cheap is not None:
            self._cheap[upper] = cheap
        if cheap_batch is not None:
            self._cheap_batch[upper] = cheap_batch
        self.version += 1

    def register_aggregate(self, name: str, spec: AggregateSpec) -> None:
        self._aggregates[name.upper()] = spec
        self.version += 1

    # -- lookup ----------------------------------------------------------

    def scalar(self, name: str) -> ScalarFunction:
        try:
            return self._scalars[name.upper()]
        except KeyError as exc:
            raise ExecutionError(f"unknown function {name!r}") from exc

    def has_scalar(self, name: str) -> bool:
        return name.upper() in self._scalars

    def aggregate(self, name: str) -> AggregateSpec:
        try:
            return self._aggregates[name.upper()]
        except KeyError as exc:
            raise ExecutionError(f"unknown aggregate {name!r}") from exc

    def is_aggregate(self, name: str) -> bool:
        return name.upper() in self._aggregates

    def is_expensive(self, name: str) -> bool:
        return name.upper() in self._expensive

    def has_expensive(self) -> bool:
        """Whether any registered function is expensive."""
        return bool(self._expensive)

    def batch_function(self, name: str) -> BatchFunction | None:
        """The registered vectorised form of ``name``, if any."""
        return self._batch.get(name.upper())

    def cheap_function(self, name: str) -> ScalarFunction | None:
        """The registered cheap-tier form of ``name``, if any."""
        return self._cheap.get(name.upper())

    def cheap_batch_function(self, name: str) -> BatchFunction | None:
        """The registered vectorised cheap-tier form, if any."""
        return self._cheap_batch.get(name.upper())

    def has_cheap(self, name: str) -> bool:
        """Whether ``name`` has a cheap cascade tier registered."""
        return name.upper() in self._cheap

    def contains_expensive(self, expression: ast.Expression) -> bool:
        """True when any expensive call appears anywhere in ``expression``.

        Walks the full tree — including CASE branches, COALESCE/IIF
        arguments, IN lists, and LIKE/BETWEEN operands — so a conjunct
        like ``COALESCE(LLM(x), 'no') = 'yes'`` is correctly deferred
        behind cheap relational predicates.  This is the single source
        of truth for expensive-conjunct detection; the planner and the
        static analyzer both defer to it.
        """
        return any(
            isinstance(node, ast.FunctionCall)
            and self.is_expensive(node.name)
            for node in ast.walk(expression)
        )

    def is_aggregate_call(self, node: ast.Expression) -> bool:
        return (
            isinstance(node, ast.FunctionCall)
            and self.is_aggregate(node.name)
            and (node.star or len(node.args) == 1)
        )

    def contains_aggregate(self, expression: ast.Expression) -> bool:
        return any(
            self.is_aggregate_call(node) for node in ast.walk(expression)
        )


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
    register = registry.register_scalar
    register("ABS", _null_if_any_null(abs))
    register("ROUND", _null_if_any_null(_round))
    register("LENGTH", _null_if_any_null(lambda s: len(str(s))))
    register("UPPER", _null_if_any_null(lambda s: str(s).upper()))
    register("LOWER", _null_if_any_null(lambda s: str(s).lower()))
    register("TRIM", _null_if_any_null(lambda s: str(s).strip()))
    register("LTRIM", _null_if_any_null(lambda s: str(s).lstrip()))
    register("RTRIM", _null_if_any_null(lambda s: str(s).rstrip()))
    register(
        "REPLACE",
        _null_if_any_null(lambda s, old, new: str(s).replace(old, new)),
    )
    register("SUBSTR", _null_if_any_null(_substr))
    register("SUBSTRING", _null_if_any_null(_substr))
    register("INSTR", _null_if_any_null(_instr))
    register("COALESCE", _coalesce)
    register("IFNULL", _coalesce)
    register("NULLIF", _nullif)
    register("IIF", _iif)
    register("SQRT", _null_if_any_null(math.sqrt))
    register("FLOOR", _null_if_any_null(lambda v: float(math.floor(v))))
    register("CEIL", _null_if_any_null(lambda v: float(math.ceil(v))))
    register("SIGN", _null_if_any_null(lambda v: (v > 0) - (v < 0)))
    # Multi-argument MIN/MAX are scalar (SQLite semantics); the planner
    # routes single-argument MIN/MAX to the aggregate implementations.
    register("MIN", _scalar_min)
    register("MAX", _scalar_max)


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
    registry.register_aggregate("COUNT", COUNT)
    registry.register_aggregate("SUM", _sum_spec(empty_result=None))
    registry.register_aggregate("TOTAL", _sum_spec(empty_result=0.0))
    registry.register_aggregate("AVG", _avg_spec())
    registry.register_aggregate("MIN", _minmax_spec(pick_max=False))
    registry.register_aggregate("MAX", _minmax_spec(pick_max=True))
    registry.register_aggregate("GROUP_CONCAT", _group_concat_spec())
