"""AST node definitions for the SQL dialect.

Expression nodes and statement nodes are plain frozen dataclasses; the
planner walks them, so they carry no behaviour beyond ``__repr__``.
A column reference's and a star's ``owner`` is what name resolution
bound it to (:mod:`repro.db.resolve` writes it, the only field written
after a node is built); like a source extent it is left out of
equality, hashing and ``repr``, and a template carries it to the texts
it binds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache
from typing import Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Literal:
    value: int | float | str | bool | None


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A possibly-qualified column reference (``t.col`` or ``col``).

    ``position`` and ``end`` are the source extent of the reference,
    qualifier and quotes included, carried for diagnostics (see
    :func:`extent`); they are excluded from equality and hashing so two
    references to the same column compare equal no matter where or how
    they are spelled (the planner relies on that).
    """

    name: str
    table: str | None = None
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)
    #: The scope column it binds to, the index of the output column
    #: whose alias it names, or the failure it raised.
    owner: object = field(default=None, compare=False, repr=False)

    def display(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True, slots=True)
class Star:
    """``*`` or ``t.*`` in a projection or inside COUNT(*); ``end``
    closes the source extent of ``t``."""

    table: str | None = None
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)
    #: A SELECT item's star: the items it expands to.
    owner: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str  # "-", "+", "NOT"
    operand: "Expression"


@dataclass(frozen=True, slots=True)
class BinaryOp:
    op: str  # arithmetic, comparison, AND/OR, "||"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class FunctionCall:
    """``name(args)``; ``position`` and ``end`` are the source extent
    of the name."""

    name: str  # upper-cased
    args: tuple["Expression", ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class CaseExpression:
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: "Expression | None"
    branches: tuple[tuple["Expression", "Expression"], ...]
    default: "Expression | None"


@dataclass(frozen=True, slots=True)
class CastExpression:
    """``CAST(operand AS type_name)``; ``position`` and ``end`` are the
    source extent of the type name."""

    operand: "Expression"
    type_name: str
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class InList:
    operand: "Expression"
    items: tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InSubquery:
    """``operand [NOT] IN (SELECT ...)``; ``position`` and ``end`` are
    the source extent of the parenthesized SELECT."""

    operand: "Expression"
    subquery: "Select"
    negated: bool = False
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class ExistsSubquery:
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class ScalarSubquery:
    """``(SELECT ...)`` as a value; ``position`` and ``end`` are its
    source extent, parentheses included."""

    subquery: "Select"
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class BetweenExpression:
    operand: "Expression"
    lower: "Expression"
    upper: "Expression"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class LikeExpression:
    operand: "Expression"
    pattern: "Expression"
    negated: bool = False


@dataclass(frozen=True, slots=True)
class IsNullExpression:
    operand: "Expression"
    negated: bool = False


Expression = Union[
    Literal,
    ColumnRef,
    Star,
    UnaryOp,
    BinaryOp,
    FunctionCall,
    CaseExpression,
    CastExpression,
    InList,
    InSubquery,
    ExistsSubquery,
    ScalarSubquery,
    BetweenExpression,
    LikeExpression,
    IsNullExpression,
]


# ---------------------------------------------------------------------------
# FROM clause sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TableSource:
    """A stored table in FROM; ``position`` and ``end`` are the source
    extent of its name."""

    name: str
    alias: str | None = None
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True, slots=True)
class SubquerySource:
    query: "Select"
    alias: str


@dataclass(frozen=True, slots=True)
class Join:
    """A join between the accumulated left source tree and ``right``."""

    kind: str  # "INNER", "LEFT", "CROSS"
    left: "FromSource"
    right: "FromSource"
    condition: Expression | None


FromSource = Union[TableSource, SubquerySource, Join]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectItem:
    expression: Expression
    alias: str | None = None


@dataclass(frozen=True, slots=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True, slots=True)
class Select:
    """One SELECT; ``position`` and ``end`` are the source extent of its
    HAVING clause, the keyword through its condition."""

    items: tuple[SelectItem, ...]
    source: FromSource | None = None
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expression | None = None
    offset: Expression | None = None
    distinct: bool = False
    position: int | None = field(default=None, compare=False)
    end: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False


@dataclass(frozen=True, slots=True)
class ForeignKeyDef:
    column: str
    parent_table: str
    parent_column: str


@dataclass(frozen=True, slots=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = ()


@dataclass(frozen=True, slots=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty means all, in declaration order
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True, slots=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Expression | None = None


@dataclass(frozen=True, slots=True)
class Delete:
    table: str
    where: Expression | None = None


Statement = Union[Select, CreateTable, Insert, Update, Delete]


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------



def children(node: object) -> Iterator:
    """Every AST node ``node`` holds directly, nested SELECTs included.

    Looks through tuples (CASE branches, IN lists, function arguments)
    so nothing nested is missed, and yields nothing for a non-node.
    Reads the class's field table (asking a node for its ``__dict__``
    would make it grow one, for as long as the AST is kept), less the
    fields that hold no child: the source extent and the ``owner``.
    """
    for name in child_fields(type(node)):
        yield from _nodes_in(getattr(node, name))


@cache
def child_fields(kind: type) -> tuple[str, ...]:
    """The fields of a node class that may hold a child node."""
    fields = getattr(kind, "__dataclass_fields__", ())
    return tuple(f for f in fields if f not in ("position", "end", "owner"))


def _nodes_in(value: object) -> Iterator:
    if isinstance(value, tuple):
        for element in value:
            yield from _nodes_in(element)
    elif hasattr(value, "__dataclass_fields__"):
        yield value


def walk(expression: "Expression") -> Iterator["Expression"]:
    """Yield every expression node in ``expression`` (pre-order).

    A subquery's SELECT is opaque: the subquery node itself is
    yielded, nothing inside it.
    """
    yield expression
    for child in children(expression):
        if not isinstance(child, Select):
            yield from walk(child)


def expression_name(expression: "Expression") -> str:
    """The output column name of an unaliased SELECT item."""
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        if expression.star:
            return f"{expression.name}(*)"
        inner = ", ".join(expression_name(arg) for arg in expression.args)
        return f"{expression.name}({inner})"
    if isinstance(expression, Literal):
        return repr(expression.value)
    return type(expression).__name__.lower()


def output_position(expression: "Expression") -> int | None:
    """The 1-based output column a GROUP BY / ORDER BY term names, or
    ``None`` when it is an expression.  A position is a non-bool int
    literal: ``TRUE`` / ``FALSE`` are constants, as in SQLite."""
    if (
        isinstance(expression, Literal)
        and isinstance(expression.value, int)
        and not isinstance(expression.value, bool)
    ):
        return expression.value
    return None


def extent(node) -> int:
    """How many source characters ``node``'s extent spans (a name's
    quotes and qualifier included; 1 for a node not parsed from text)."""
    if node.position is None or node.end is None:
        return 1
    return node.end - node.position
