"""Name resolution: bind a SELECT's names once, for every reader.

:func:`resolve` makes one walk per SELECT, nested SELECTs included, and
returns a :class:`Resolved`.  The planner, the static analyzer and the
query optimizer read it; none of them looks a name up itself.  Nothing
in the engine correlates, so each SELECT has its own scope.

How a name binds:

* A FROM clause makes a :class:`Scope`: one :class:`Column` per column
  of each source, in order.  A reference binds to the first column of
  that name (and binding, when qualified); two matches from different
  sources make it ambiguous.  An ON condition binds against its own
  join's sources only.
* ``*`` and ``t.*`` expand to the scope's columns in order.
* A GROUP BY term that is an integer literal names that output column.
  A bare name in GROUP BY, or inside a HAVING or ORDER BY expression,
  binds to a source column first and to an output alias second.
* A whole ORDER BY term that is an integer literal or an output
  column's name sorts by that output column.

A reference that binds to nothing gets a :class:`Failure` with its
span; the analyzer reports it as a diagnostic where its walk meets it,
and the planner raises it as a :class:`~repro.errors.PlanningError`
where it compiles it.  Resolution itself never raises.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from repro.db.cost import ColumnStats, predicate_selectivity
from repro.db.result import RowLayout
from repro.db.sql import ast
from repro.db.types import DataType
from repro.errors import PlanningError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database
    from repro.db.table import Table

_SUBQUERIES = (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery)


@dataclass(eq=False, slots=True)
class Column:
    """One scope entry: the owner of the references that bind to it."""

    binding: str
    name: str
    #: Declared type; None for a FROM subquery's column, whose type is
    #: the analyzer's to infer.
    dtype: DataType | None
    #: The stored table, held weakly (the table's own layouts keep
    #: their owners), or None for a FROM subquery's column.
    table: weakref.ref[Table] | None
    #: The FROM subquery exposing the column (a stored table's column
    #: is shared by every statement that reads it), and its position.
    source: object
    index: int
    #: ``(binding, name)`` lower-cased: its slot's key in a layout.
    key: tuple[str, str]

    def stats(self) -> ColumnStats | None:
        table = None if self.table is None else self.table()
        return None if table is None else table.column_stats(self.name)


@dataclass(frozen=True)
class Failure:
    """A name that binds to nothing: ANA002, ANA003, ANA004 or ANA014."""

    code: str
    #: The analyzer's message, and the engine's.
    message: str
    error: str
    position: int | None = None
    length: int = 1

    def throw(self) -> NoReturn:
        start = self.position
        span = None if start is None else (start, start + max(self.length, 1))
        raise PlanningError(self.error, span=span)


def _unknown_column(ref: ast.ColumnRef) -> Failure:
    shown = ref.display()
    error = (
        f"unknown column {ref.table}.{ref.name}"
        if ref.table is not None
        else f"unknown column {ref.name!r}"
    )
    return Failure(
        "ANA003", f"unknown column {shown!r}", error, ref.position, len(shown)
    )


def _ambiguous_column(ref: ast.ColumnRef) -> Failure:
    shown = ref.display()
    return Failure(
        "ANA004",
        f"ambiguous column {shown!r} (qualify it with a table name)",
        f"ambiguous column {shown!r}",
        ref.position,
        len(shown),
    )


def _position_failure(clause: str, position: int, count: int) -> Failure:
    return Failure(
        "ANA014",
        f"{clause} position {position} is out of range (1..{count})",
        f"{clause} position {position} out of range",
    )


class Source:
    """One FROM entry: a stored table or a subquery, under its binding."""

    __slots__ = ("key", "layout", "columns")

    def __init__(
        self,
        binding: str,
        node: object,
        layout: "RowLayout",
        table: "Table | None" = None,
    ) -> None:
        self.key = binding.lower()
        #: Where each of its column names sits (first one first).
        self.layout = layout
        columns = layout.owners
        if columns is None:
            # Built whole, then published: a statement reads one list.
            key = self.key
            schema = None if table is None else table.schema
            held = None if table is None else weakref.ref(table)
            columns = layout.owners = [
                Column(
                    binding,
                    name,
                    None if schema is None else schema.columns[index].dtype,
                    held,
                    node,
                    index,
                    (key, name.lower()),
                )
                for index, (_, name) in enumerate(layout.entries)
            ]
        self.columns: list[Column] = columns


class Scope:
    """The columns one FROM clause (or one join subtree) exposes."""

    __slots__ = ("sources", "open", "rows")

    def __init__(
        self, sources: list[Source], open: bool = False, rows: int = 1
    ) -> None:
        self.sources = sources
        #: True when a FROM source named an unknown table: references
        #: that do not bind are then no one's fault but that table's.
        self.open = open
        #: Upper bound on the rows out of this FROM subtree.
        self.rows = rows

    def bind(self, name: str, table: str | None = None) -> Column | bool:
        """The owner of ``[table.]name``: its source's first column so
        named, False when no source has one, True when two do."""
        key = None if table is None else table.lower()
        lowered = name.lower()
        found: Column | None = None
        for source in self.sources:
            if key is not None and source.key != key:
                continue
            index = source.layout.slots.get((source.key, lowered))
            if index is not None:
                if found is not None:
                    return True
                found = source.columns[index]
        return False if found is None else found

    def stats(self, name: str, table: str | None = None) -> ColumnStats | None:
        """The :data:`~repro.db.cost.StatsLookup` of this scope: the
        statistics of the stored column ``[table.]name`` binds to."""
        owner = self.bind(name, table)
        return owner.stats() if isinstance(owner, Column) else None


@dataclass(frozen=True)
class Ordering:
    """One ORDER BY term as planned: an output column, or an expression
    (output aliases substituted), or the failure of an ordinal."""

    expression: ast.Expression
    ascending: bool
    target: int | None = None
    failure: Failure | None = None


@dataclass(frozen=True)
class CallSite:
    """A call of an expensive function, with the row bounds the per-row
    and the batched routes put on its invocations."""

    call: ast.FunctionCall
    rows: int
    batched: int


#: What a column reference's owner may be: the scope column it binds
#: to, the failure it raised, or (inside HAVING and ORDER BY) the index
#: of the output column whose alias it names.
Owner = Column | Failure | int


@dataclass
class Resolved:
    """One SELECT, resolved.  Every SELECT of a statement shares the
    statement's ``owners``, ``joins`` and ``sites``."""

    select: ast.Select
    scope: Scope
    #: Stars expanded, and the failure of each bad ``t.*``.
    items: list[ast.SelectItem]
    star_failures: list[Failure]
    #: The output column names.
    names: list[str]
    #: Ordinals and aliases replaced (a failed ordinal by ``1``).
    group_by: list[ast.Expression]
    group_failures: list[Failure]
    #: Output aliases substituted; as written when the SELECT is not
    #: an aggregate query (which makes a HAVING an error of its own).
    having: ast.Expression | None
    order_by: list[Ordering]
    #: The aggregate calls of the items, HAVING and ORDER BY, distinct,
    #: and the column references those read outside aggregate calls.
    aggregates: list[ast.FunctionCall]
    columns: list[ast.ColumnRef]
    has_subquery: bool
    #: ``id`` of each column reference -> its :data:`Owner`, and of
    #: each FROM entry naming an unknown table -> its failure.
    owners: dict[int, Owner]
    #: ``id`` of each SELECT nested in this one, at any depth -> its
    #: resolution (itself excluded: a resolution holds no cycle for the
    #: garbage collector to find).
    selects: dict[int, "Resolved"]
    #: ``id`` of each join -> the scope its ON condition binds in.
    joins: dict[int, Scope]
    #: Every expensive call site the analyzer's walk prices.
    sites: list[CallSite]

    @property
    def has_aggregate(self) -> bool:
        return bool(self.aggregates)

    def _shaped(self, rows: int) -> int:
        """``rows`` out of the FROM, after grouping and a literal LIMIT."""
        if self.has_aggregate and not self.group_by:
            rows = 1
        limit = literal_limit(self.select.limit)
        return rows if limit is None else max(0, min(rows, limit))

    @property
    def result_rows(self) -> int:
        """Upper bound on the rows this SELECT returns (WHERE may drop
        nothing)."""
        return self._shaped(self.scope.rows)

    @property
    def expected_rows(self) -> int | None:
        """Expected rows after WHERE (the selectivity estimate: an
        expectation, not a bound); None without a WHERE."""
        where = self.select.where
        if where is None:
            return None
        scope = self.scope
        return self._shaped(
            round(scope.rows * predicate_selectivity(where, scope.stats))
        )

    @property
    def lm_calls(self) -> int:
        return sum(site.rows for site in self.sites)

    @property
    def lm_calls_batched(self) -> int:
        return sum(site.batched for site in self.sites)


def resolve(db: "Database", select: ast.Select) -> Resolved:
    """Resolve ``select`` and every SELECT nested in it."""
    return _Resolver(db).select(select)


def slot(
    layout: "RowLayout", ref: ast.ColumnRef, owner: Owner | None
) -> int:
    """Where ``ref`` sits in ``layout``: its owner's slot, or for a
    reference the planner made (``_group0``, ...) the slot of that name."""
    if isinstance(owner, Failure):
        owner.throw()
    if isinstance(owner, Column):
        found = layout.slots.get(owner.key)
    else:
        found = layout.position(ref.table, ref.name)
        if found is None:
            # A fragment compiled on its own binds by the same rule, each
            # binding of the layout taken for one source (whose node is
            # the list of its slots).
            groups: dict[str | None, list[int]] = {}
            for index, (binding, _) in enumerate(layout.entries):
                groups.setdefault(binding, []).append(index)
            entries = layout.entries
            sources = [
                Source(b or "", slots, RowLayout([entries[i] for i in slots]))
                for b, slots in groups.items()
            ]
            owner = Scope(sources).bind(ref.name, ref.table)
            if owner is True:
                _ambiguous_column(ref).throw()
            if owner:
                found = owner.source[owner.index]  # type: ignore[index]
    if found is None:
        _unknown_column(ref).throw()
    return found


def substitute(expression, replacements: dict):
    """Structural find-and-replace over an expression tree (or a tuple
    of them); a nested SELECT is left as it is."""
    if isinstance(expression, tuple):
        new = tuple(substitute(value, replacements) for value in expression)
        changed = any(a is not b for a, b in zip(new, expression))
        return new if changed else expression
    if isinstance(expression, ast.Select) or not hasattr(
        expression, "__dataclass_fields__"
    ):
        return expression
    if expression in replacements:
        return replacements[expression]
    changes = {}
    for name in expression.__dataclass_fields__:
        value = getattr(expression, name)
        new_value = substitute(value, replacements)
        if new_value is not value:
            changes[name] = new_value
    if not changes:
        return expression
    return dataclasses.replace(expression, **changes)


class _Resolver:
    def __init__(self, db: "Database") -> None:
        self.db = db
        self.functions = db.functions
        self.owners: dict[int, Owner] = {}
        self.selects: dict[int, Resolved] = {}
        self.joins: dict[int, Scope] = {}
        self.sites: list[CallSite] = []
        #: The aggregate calls of the clauses being walked (distinct, in
        #: walk order), the column references they read outside those
        #: calls, and whether they hold a subquery; nested SELECTs keep
        #: their own.
        self.aggregates: list[ast.FunctionCall] = []
        self.columns: list[ast.ColumnRef] = []
        self.subquery = False
        #: How many aggregate calls enclose the node being walked.
        self.depth = 0

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> Resolved:
        saved = self.aggregates, self.columns, self.subquery, self.depth
        outer, self.selects = self.selects, {}
        scope = self._from(select.source)
        rows = scope.rows
        # Aggregates count in the items, HAVING and ORDER BY; subqueries
        # in every clause but FROM.
        self.aggregates, self.columns, self.subquery = [], [], False
        self.depth = 0
        items, star_failures = self._expand_stars(select.items, scope)
        for item in items:
            self._walk(item.expression, scope, rows)
        names = [
            item.alias or ast.expression_name(item.expression)
            for item in items
        ]
        outputs: dict[str, int] = {}
        aliases: dict[str, int] = {}
        if select.order_by or select.group_by or select.having:
            for position, (item, name) in enumerate(zip(items, names)):
                outputs.setdefault(name.lower(), position)
                if item.alias:
                    aliases.setdefault(item.alias.lower(), position)
        having = select.having
        first = len(self.sites)
        if having is not None:
            self._walk(having, scope, rows, aliases)
        last = len(self.sites)
        order_by = self._order_by(
            select.order_by, items, outputs, aliases, scope
        )
        aggregates, columns = self.aggregates, self.columns
        if having is not None:
            if select.group_by or aggregates:
                having = self._substitute_aliases(having, items)
            else:  # HAVING without grouping: an error, never evaluated
                del self.sites[first:last]
        self.aggregates, self.columns = [], []  # not WHERE's or GROUP BY's
        if select.where is not None:
            self._walk(select.where, scope, rows)
        group_by, group_failures = self._group_by(
            select.group_by, items, aliases, scope
        )
        resolved = Resolved(
            select, scope, items, star_failures, names, group_by,
            group_failures, having, order_by, aggregates, columns,
            self.subquery, self.owners, self.selects, self.joins, self.sites,
        )
        outer.update(self.selects)
        outer[id(select)] = resolved
        self.selects = outer
        self.aggregates, self.columns, self.subquery, self.depth = saved
        return resolved

    def _from(self, source: ast.FromSource | None) -> Scope:
        if source is None:
            return Scope([])
        if isinstance(source, ast.TableSource):
            if not self.db.has_table(source.name):
                self.owners[id(source)] = Failure(
                    "ANA002",
                    f"unknown table {source.name!r}",
                    f"no table named {source.name!r}",
                    source.position,
                    len(source.name),
                )
                return Scope([], open=True)
            table = self.db.table(source.name)
            binding = source.binding
            entry = Source(binding, None, table.layout(binding), table)
            return Scope([entry], rows=max(len(table), 1))
        if isinstance(source, ast.SubquerySource):
            inner = self.select(source.query)
            alias = source.alias
            layout = RowLayout([(alias, name) for name in inner.names])
            return Scope(
                [Source(alias, source, layout)],
                rows=max(inner.result_rows, 1),
            )
        left = self._from(source.left)
        right = self._from(source.right)
        scope = Scope(
            left.sources + right.sources,
            left.open or right.open,
            left.rows * right.rows,
        )
        self.joins[id(source)] = scope
        if source.condition is not None:
            self._walk(source.condition, scope, scope.rows)
        return scope

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> tuple[list[ast.SelectItem], list[Failure]]:
        expanded: list[ast.SelectItem] = []
        failures: list[Failure] = []
        if not any(type(item.expression) is ast.Star for item in items):
            return list(items), failures
        owners = self.owners
        for item in items:
            star = item.expression
            if not isinstance(star, ast.Star):
                expanded.append(item)
                continue
            columns = [c for source in scope.sources for c in source.columns]
            if star.table is not None:
                key = star.table.lower()
                columns = [c for c in columns if c.binding.lower() == key]
                if not columns and not scope.open:
                    text = f"unknown table {star.table!r} in {star.table}.*"
                    width = len(star.table)
                    failures.append(
                        Failure("ANA002", text, text, star.position, width)
                    )
            for column in columns:
                ref = ast.ColumnRef(column.name, column.binding)
                owners[id(ref)] = column
                expanded.append(ast.SelectItem(ref, column.name))
        return expanded, failures

    def _group_by(
        self,
        terms: tuple[ast.Expression, ...],
        items: list[ast.SelectItem],
        aliases: dict[str, int],
        scope: Scope,
    ) -> tuple[list[ast.Expression], list[Failure]]:
        group_by: list[ast.Expression] = []
        failures: list[Failure] = []
        for term in terms:
            ordinal = ast.output_position(term)
            if ordinal is None:
                if (
                    isinstance(term, ast.ColumnRef)
                    and not term.table
                    and term.name.lower() in aliases
                    and scope.bind(term.name) is False
                ):
                    term = items[aliases[term.name.lower()]].expression
            elif 1 <= ordinal <= len(items):
                term = items[ordinal - 1].expression
            else:
                failures.append(
                    _position_failure("GROUP BY", ordinal, len(items))
                )
                term = ast.Literal(1)  # placeholder; failure recorded
            self._walk(term, scope, scope.rows)
            group_by.append(term)
        return group_by, failures

    def _order_by(
        self,
        terms: tuple[ast.OrderItem, ...],
        items: list[ast.SelectItem],
        outputs: dict[str, int],
        aliases: dict[str, int],
        scope: Scope,
    ) -> list[Ordering]:
        orderings: list[Ordering] = []
        for term in terms:
            expression = term.expression
            ordinal = ast.output_position(expression)
            target = failure = None
            if ordinal is None:
                if type(expression) is ast.ColumnRef and not expression.table:
                    target = outputs.get(expression.name.lower())
            elif 1 <= ordinal <= len(items):
                target = ordinal - 1
            else:
                failure = _position_failure("ORDER BY", ordinal, len(items))
            if target is None and failure is None:
                self._walk(expression, scope, scope.rows, aliases)
                expression = self._substitute_aliases(expression, items)
            orderings.append(
                Ordering(expression, term.ascending, target, failure)
            )
        return orderings

    def _substitute_aliases(
        self, expression: ast.Expression, items: list[ast.SelectItem]
    ) -> ast.Expression:
        owners = self.owners
        replacements = {
            node: items[owner].expression
            for node in ast.walk(expression)
            if isinstance(node, ast.ColumnRef)
            and type(owner := owners.get(id(node))) is int
        }
        if not replacements:
            return expression
        return substitute(expression, replacements)

    # -- expressions -----------------------------------------------------

    def _walk(
        self,
        node: ast.Expression,
        scope: Scope,
        rows: int,
        aliases: dict[str, int] | None = None,
    ) -> None:
        """Bind every reference in ``node``, resolve its subqueries and
        record its expensive call sites."""
        kind = type(node)
        if kind is ast.ColumnRef:
            if id(node) not in self.owners:
                self._bind(node, scope, aliases)  # type: ignore[arg-type]
            if not self.depth and type(self.owners[id(node)]) is not int:
                self.columns.append(node)  # type: ignore[arg-type]
            return
        if kind is ast.Literal:
            return
        if kind is ast.BinaryOp:
            self._walk(node.left, scope, rows, aliases)  # type: ignore
            self._walk(node.right, scope, rows, aliases)  # type: ignore
            return
        functions = self.functions
        aggregate = kind is ast.FunctionCall and functions.is_aggregate_call(
            node
        )
        if aggregate and node not in self.aggregates:
            self.aggregates.append(node)  # type: ignore[arg-type]
        self.depth += aggregate
        for child in ast.children(node):
            if isinstance(child, ast.Select):
                self.select(child)
            else:
                self._walk(child, scope, rows, aliases)
        self.depth -= aggregate
        if kind is ast.FunctionCall:
            if not aggregate and not node.star and functions.is_expensive(
                node.name
            ):
                self.sites.append(
                    CallSite(node, rows, self._distinct_bound(node, rows))
                )
        elif kind in _SUBQUERIES:
            self.subquery = True

    def _bind(
        self,
        ref: ast.ColumnRef,
        scope: Scope,
        aliases: dict[str, int] | None,
    ) -> None:
        owner: Owner | bool | None = scope.bind(ref.name, ref.table)
        if owner is True:
            owner = _ambiguous_column(ref)
        elif owner is False:
            if aliases is not None and not ref.table:
                owner = aliases.get(ref.name.lower())
            if owner is None or owner is False:
                owner = _unknown_column(ref)
        self.owners[id(ref)] = owner  # type: ignore[assignment]

    def _distinct_bound(self, call: ast.FunctionCall, rows: int) -> int:
        """Invocation bound for one call site under the batched path.

        The batched operators invoke the UDF at most once per distinct
        argument *tuple*, so the bound is the product of each
        argument's distinct-value count: literals contribute 1, stored
        columns their catalog distinct count, anything else (computed
        expressions, subquery columns) falls back to the per-row bound.
        Always capped by ``rows``: dedup never costs more than per-row
        execution.
        """
        bound = 1
        for argument in call.args:
            if isinstance(argument, ast.Literal):
                continue
            if isinstance(argument, ast.ColumnRef):
                owner = self.owners.get(id(argument))
                stats = owner.stats() if isinstance(owner, Column) else None
                if stats is not None:
                    bound *= max(stats.distinct, 1)
                    if bound >= rows:
                        return rows
                    continue
            return rows
        return min(bound, rows)


def literal_limit(expression: ast.Expression | None) -> int | None:
    """A LIMIT's value when it is a (signed) integer literal."""
    node, negate = expression, False
    while isinstance(node, ast.UnaryOp) and node.op in ("-", "+"):
        negate ^= node.op == "-"
        node = node.operand
    if (
        isinstance(node, ast.Literal)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return -node.value if negate else node.value
    return None
