"""Name resolution: bind a SELECT's names once, for every reader.

:func:`resolve` makes one walk per SELECT, nested SELECTs included, and
returns a :class:`Resolved`.  A statement is resolved once, by the
database's prepare step that ``execute``, ``explain`` and
``explain_analyze`` share; the static analyzer, the query optimizer and
the planner read that one resolution, and none of them looks a name up
itself.  Nothing in the engine correlates, so each SELECT has its own
scope.

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

The same walk checks every call, against the record its function was
registered with: an unknown function, a misplaced aggregate, a wrong
number of arguments or a misplaced ``*``, an unknown CAST type, and a
subquery used as a value whose width is not 1.

A name that binds to nothing, an ordinal out of range and a bad call
get a :class:`Failure` with its span, keyed by its node in
:attr:`Resolved.failures`, at every depth.  They are recorded in the
order the analyzer reports them: FROM (tables, FROM subqueries, ON),
``t.*``, GROUP BY ordinals, GROUP BY terms, items, WHERE, HAVING, ORDER
BY, LIMIT/OFFSET; inside an expression, an unknown function, a misused
``*`` or aggregate name and a misplaced aggregate before the arguments,
a wrong arity, a CAST type and a subquery's width after them.  The
analyzer reports each where its walk meets the node; the planner raises
the first as a :class:`~repro.errors.PlanningError` before the plan has
a node, so the engine's error is the analyzer's first and never depends
on the rows.  Resolution itself never raises.
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
from repro.errors import PlanningError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.catalog import Database
    from repro.db.functions import Aggregate
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
    """A name that binds to nothing (ANA002, ANA003, ANA004, ANA014) or
    a bad call (ANA005, ANA006, ANA007, ANA009, ANA012, ANA013)."""

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
        "ANA003",
        f"unknown column {shown!r}",
        error,
        ref.position,
        ast.extent(ref),
    )


def _ambiguous_column(ref: ast.ColumnRef) -> Failure:
    shown = ref.display()
    return Failure(
        "ANA004",
        f"ambiguous column {shown!r} (qualify it with a table name)",
        f"ambiguous column {shown!r}",
        ref.position,
        ast.extent(ref),
    )


def _call_failure(code: str, message: str, node) -> Failure:
    """A bad call, or ``t.*``: the analyzer and the engine say the same."""
    return Failure(code, message, message, node.position, ast.extent(node))


def misplaced(call: ast.FunctionCall, where: str) -> Failure:
    """The ANA006 of an aggregate ``call`` ``where`` it may not be."""
    return _call_failure(
        "ANA006", f"aggregate {call.name}() is not allowed {where}", call
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
    (output aliases substituted)."""

    expression: ast.Expression
    ascending: bool
    target: int | None = None


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
    #: Stars expanded.
    items: list[ast.SelectItem]
    #: The output column names.
    names: list[str]
    #: Ordinals and aliases replaced.
    group_by: list[ast.Expression]
    #: Output aliases substituted; as written when the SELECT is not
    #: an aggregate query (which makes a HAVING an error of its own).
    having: ast.Expression | None
    order_by: list[Ordering]
    #: The aggregate calls of the items, HAVING and ORDER BY, distinct,
    #: and the column references those read outside aggregate calls and
    #: outside every subtree equal to a GROUP BY term (which reads its
    #: group key): the bare columns of an aggregate query.
    aggregates: list[ast.FunctionCall]
    columns: list[ast.ColumnRef]
    has_subquery: bool
    #: ``id`` of each column reference -> its :data:`Owner`.
    owners: dict[int, Owner]
    #: ``id`` of each SELECT nested in this one, at any depth -> its
    #: resolution (itself excluded: a resolution holds no cycle for the
    #: garbage collector to find).
    selects: dict[int, "Resolved"]
    #: ``id`` of each join -> the scope its ON condition binds in.
    joins: dict[int, Scope]
    #: Every expensive call site the analyzer's walk prices.
    sites: list[CallSite]
    #: ``id`` of a node -> its failure, every SELECT's, in the order the
    #: analyzer reports them; the planner raises the first before it
    #: builds a node.  Keyed by the column reference, the unknown
    #: table's FROM entry, the ``t.*``, the GROUP BY ordinal, the ORDER
    #: BY term, the call, the CAST, the ``*``, the value subquery, or
    #: the SELECT whose HAVING has no grouping.
    failures: dict[int, Failure]

    @property
    def has_aggregate(self) -> bool:
        return bool(self.aggregates)

    def of(self, select: ast.Select) -> "Resolved":
        """The resolution of ``select``: this one, or a nested one's."""
        return self if select is self.select else self.selects[id(select)]

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
    if isinstance(owner, Column):
        found = layout.slots.get(owner.key)
    else:
        found = layout.position(ref.table, ref.name)
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
        self.failures: dict[int, Failure] = {}
        #: The aggregate calls of the clauses being walked (distinct, in
        #: walk order), the column references they read outside those
        #: calls and outside the GROUP BY terms ``grouped``, and whether
        #: they hold a subquery; nested SELECTs keep their own.
        self.aggregates: list[ast.FunctionCall] = []
        self.columns: list[ast.ColumnRef] = []
        self.grouped: tuple[ast.Expression, ...] = ()
        self.subquery = False
        #: How many aggregate calls enclose the node being walked, and
        #: where an aggregate may not be ("in WHERE"), if it may not.
        self.depth = 0
        self.refused: str | None = None

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> Resolved:
        """Walk ``select``'s clauses in the analyzer's order."""
        saved = (
            self.aggregates, self.columns, self.grouped, self.subquery,
            self.depth, self.refused,
        )
        outer, self.selects = self.selects, {}
        # The aggregates and columns of FROM, GROUP BY, WHERE and LIMIT
        # count nowhere; subqueries count in every clause but FROM.
        self.aggregates, self.columns, self.grouped = [], [], ()
        self.depth, self.refused = 0, None
        scope = self._from(select.source)
        rows = scope.rows
        self.subquery = False
        items = self._expand_stars(select.items, scope)
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
        group_by = self._group_by(select.group_by, items, aliases, scope)
        aggregates: list[ast.FunctionCall] = []
        columns: list[ast.ColumnRef] = []
        self.aggregates, self.columns = aggregates, columns
        self.grouped, self.refused = tuple(group_by), None
        for item in items:
            self._walk(item.expression, scope, rows)
        if select.where is not None:
            self.aggregates, self.columns = [], []
            self.refused = "in WHERE"
            self._walk(select.where, scope, rows)
            self.aggregates, self.columns = aggregates, columns
            self.refused = None
        having = select.having
        first = len(self.sites), len(self.failures)
        if having is not None:
            self._walk(having, scope, rows, aliases)
        last = len(self.sites), len(self.failures)
        order_by = self._order_by(
            select.order_by, items, outputs, aliases, scope
        )
        if having is not None:
            if select.group_by or aggregates:
                having = self._substitute_aliases(having, items)
            else:
                self._refuse_having(select, first, last)
        self.aggregates, self.columns = [], []
        # LIMIT and OFFSET are constants, read before any row is.
        limits = (("LIMIT", select.limit), ("OFFSET", select.offset))
        for clause, term in limits:
            if term is not None:
                self.refused = f"in {clause}"
                self._walk(term, Scope([]), 1)
        resolved = Resolved(
            select, scope, items, names, group_by, having, order_by,
            aggregates, columns, self.subquery, self.owners, self.selects,
            self.joins, self.sites, self.failures,
        )
        outer.update(self.selects)
        outer[id(select)] = resolved
        self.selects = outer
        (
            self.aggregates, self.columns, self.grouped, self.subquery,
            self.depth, self.refused,
        ) = saved
        return resolved

    def _refuse_having(
        self,
        select: ast.Select,
        first: tuple[int, int],
        last: tuple[int, int],
    ) -> None:
        """A HAVING without grouping is an error, never evaluated: its
        call sites go, and one failure takes the place of its own."""
        del self.sites[first[0] : last[0]]
        text = "HAVING requires GROUP BY or aggregates"
        failure = Failure(
            "ANA006", text, text, select.position, ast.extent(select)
        )
        entries = list(self.failures.items())
        entries[first[1] : last[1]] = [(id(select), failure)]
        # Refilled in place: every SELECT of the statement shares it.
        self.failures.clear()
        self.failures.update(entries)

    def _from(self, source: ast.FromSource | None) -> Scope:
        if source is None:
            return Scope([])
        if isinstance(source, ast.TableSource):
            if not self.db.has_table(source.name):
                self.failures[id(source)] = Failure(
                    "ANA002",
                    f"unknown table {source.name!r}",
                    f"no table named {source.name!r}",
                    source.position,
                    ast.extent(source),
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
            self.refused = "in JOIN ON"
            self._walk(source.condition, scope, scope.rows)
            self.refused = None
        return scope

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> list[ast.SelectItem]:
        if not any(type(item.expression) is ast.Star for item in items):
            return list(items)
        expanded: list[ast.SelectItem] = []
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
                    self.failures[id(star)] = _call_failure(
                        "ANA002", text, star
                    )
            for column in columns:
                ref = ast.ColumnRef(column.name, column.binding)
                owners[id(ref)] = column
                expanded.append(ast.SelectItem(ref, column.name))
        return expanded

    def _group_by(
        self,
        terms: tuple[ast.Expression, ...],
        items: list[ast.SelectItem],
        aliases: dict[str, int],
        scope: Scope,
    ) -> list[ast.Expression]:
        """The GROUP BY terms, ordinals and aliases replaced; every
        ordinal out of range fails before any term is walked."""
        group_by: list[ast.Expression] = []
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
                self.failures[id(term)] = _position_failure(
                    "GROUP BY", ordinal, len(items)
                )
            group_by.append(term)
        self.refused = "in GROUP BY"
        for term in group_by:
            self._walk(term, scope, scope.rows)
        return group_by

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
            target = None
            if ordinal is None:
                if type(expression) is ast.ColumnRef and not expression.table:
                    target = outputs.get(expression.name.lower())
            elif 1 <= ordinal <= len(items):
                target = ordinal - 1
            else:
                self.failures[id(term)] = _position_failure(
                    "ORDER BY", ordinal, len(items)
                )
            if target is None:
                self._walk(expression, scope, scope.rows, aliases)
                expression = self._substitute_aliases(expression, items)
            orderings.append(Ordering(expression, term.ascending, target))
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
        """Bind every reference in ``node``, check its calls, resolve
        its subqueries and record its expensive call sites."""
        if self.grouped and node in self.grouped:
            # A subtree equal to a GROUP BY term (as ``substitute``
            # matches) reads the group key: no column under it is bare,
            # and no call under it runs again (the term's walk priced it).
            kept = self.grouped, self.columns, len(self.sites)
            self.grouped, self.columns = (), []
            self._walk(node, scope, rows, aliases)
            self.grouped, self.columns, sites = kept
            del self.sites[sites:]
            return
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
        # An unknown function, a misused ``*`` or aggregate name and a
        # misplaced aggregate fail before the arguments; a wrong arity,
        # a CAST type and a subquery's width after them.
        aggregate = None
        failure: Failure | None = None
        if kind is ast.FunctionCall:
            aggregate = self.functions.aggregate_call(node)  # type: ignore
            failure = self._check_call(node, aggregate)  # type: ignore
        elif kind is ast.Star:
            text = "'*' is only valid in SELECT items or COUNT(*)"
            failure = _call_failure("ANA009", text, node)
        if failure is not None:
            self.failures[id(node)] = failure
        if aggregate is not None and node not in self.aggregates:
            self.aggregates.append(node)  # type: ignore[arg-type]
        self.depth += aggregate is not None
        late: Failure | None = None
        for child in ast.children(node):
            if isinstance(child, ast.Select):
                width = len(self.select(child).items)
                if width != 1 and kind is not ast.ExistsSubquery:
                    what = "IN" if kind is ast.InSubquery else "scalar"
                    text = f"{what} subquery must return exactly one column"
                    text += f", got {width}"
                    late = _call_failure("ANA013", text, node)
            else:
                self._walk(child, scope, rows, aliases)
        self.depth -= aggregate is not None
        if kind is ast.FunctionCall:
            if failure is None and aggregate is None:
                late = self._check_arity(node)  # type: ignore[arg-type]
            if aggregate is None and not node.star and (
                self.functions.is_expensive(node.name)  # type: ignore
            ):
                self.sites.append(
                    CallSite(node, rows, self._distinct_bound(node, rows))
                )
        elif kind is ast.CastExpression:
            name = node.type_name  # type: ignore[union-attr]
            try:
                DataType.from_sql(name)
            except SchemaError:
                text = f"unknown type {name!r} in CAST"
                late = _call_failure("ANA012", text, node)
        elif kind in _SUBQUERIES:
            self.subquery = True
        if late is not None:
            self.failures[id(node)] = late

    def _check_call(
        self, node: ast.FunctionCall, aggregate: "Aggregate | None"
    ) -> Failure | None:
        """What is wrong with the call ``node`` before its arguments are
        read, if anything: all but a wrong arity."""
        name = node.name
        if aggregate is not None:
            if self.depth:
                return misplaced(node, "inside another aggregate")
            if self.refused is not None:
                return misplaced(node, self.refused)
            if node.star and aggregate.name != "COUNT":
                text = f"'*' argument is only valid for COUNT(), not {name}()"
                return _call_failure("ANA007", text, node)
            return None
        if node.star:
            text = f"'*' argument is only valid for aggregates, not {name}()"
            return _call_failure("ANA007", text, node)
        if self.functions.scalar(name) is not None:
            return None
        if self.functions.aggregate(name) is not None:
            # COUNT(), SUM(a, b): an aggregate's name, no aggregate's
            # shape, and no scalar of that name.
            return _call_failure(
                "ANA007",
                f"aggregate {name}() takes exactly one argument "
                f"(or '*'), got {len(node.args)}",
                node,
            )
        return _call_failure("ANA005", f"unknown function {name!r}", node)

    def _check_arity(self, node: ast.FunctionCall) -> Failure | None:
        """A known scalar called with a wrong number of arguments."""
        signature = self.functions.scalar(node.name).signature  # type: ignore
        count = len(node.args)
        if signature is None or signature.takes(count):
            return None
        text = (
            f"{node.name}() expects {signature.arity} argument(s), "
            f"got {count}"
        )
        return _call_failure("ANA007", text, node)

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
        if type(owner) is Failure:
            self.failures[id(ref)] = owner
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
