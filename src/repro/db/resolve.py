"""Name resolution: bind a SELECT's names once, for every reader.

:func:`resolve` makes one walk per SELECT, nested SELECTs included, and
returns a :class:`Resolved`.  A statement is resolved at most once, by
the database's prepare step that ``execute``, ``explain`` and
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

What a name binds to rides on its node: each column reference's
``owner`` is the :class:`Column` it binds to, the index of the output
column whose alias it names, or its :class:`Failure`, and a star's is
the items it expands to.  A whole GROUP BY or ORDER BY term that names
an output column by its alias or name owns that column's index.  The
rest of a :class:`Resolved` follows from those fields and the literals:
:func:`rebound` derives it again, with no name looked up, for a
statement whose nodes still carry what an earlier resolution of its
shape wrote (see :mod:`repro.db.stmtcache`).

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
    from repro.db.functions import Aggregate, FunctionRegistry
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
    #: Its position in its source (a stored table's column is shared by
    #: every statement that reads it).
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


def _own(node: ast.ColumnRef | ast.Star, owner: object) -> None:
    """Write ``node``'s owner: the one field set after a node is built."""
    object.__setattr__(node, "owner", owner)


@dataclass
class Resolved:
    """One SELECT, resolved.  Every SELECT of a statement shares the
    statement's ``sites`` and ``failures``."""

    select: ast.Select
    #: None when :func:`rebound` derived the resolution: it reads no
    #: scope, and nothing reads the scope of a statement that calls no
    #: expensive function once it is known to be clean.
    scope: Scope | None
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
    #: The resolution of each SELECT nested in this one, at any depth
    #: (itself excluded: a resolution holds no cycle for the garbage
    #: collector to find); empty when :func:`rebound` derived it.
    selects: list["Resolved"]
    #: Every expensive call site the analyzer's walk prices.
    sites: list[CallSite]
    #: ``id`` of a node -> its failure, every SELECT's, in the order the
    #: analyzer reports them; the planner raises the first before it
    #: builds a node.  Keyed by the column reference, the unknown
    #: table's FROM entry, the ``t.*``, the GROUP BY ordinal, the ORDER
    #: BY term, the call, the CAST, the ``*``, the value subquery, or
    #: the SELECT whose HAVING has no grouping.  Never kept: a statement
    #: that fails is not stored.
    failures: dict[int, Failure]

    @property
    def has_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def has_subquery(self) -> bool:
        """Whether a clause other than FROM holds a subquery."""
        select = self.select
        clauses = [select.where, select.having, select.limit, select.offset]
        clauses += [*self.items, *self.group_by, *select.order_by]
        return any(
            type(node) in _SUBQUERIES
            for clause in clauses
            for node in ast.walk(clause)
        )

    def of(self, select: ast.Select) -> "Resolved | None":
        """The resolution of ``select``: this one, or a nested one's;
        None for a SELECT this derived resolution did not reach."""
        every = [self, *self.selects]
        return next((r for r in every if r.select is select), None)

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
        return self._shaped(self.scope.rows)  # type: ignore[union-attr]

    @property
    def expected_rows(self) -> int | None:
        """Expected rows after WHERE (the selectivity estimate: an
        expectation, not a bound); None without a WHERE."""
        where = self.select.where
        if where is None:
            return None
        scope: Scope = self.scope  # type: ignore[assignment]
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


def rebound(functions: "FunctionRegistry", select: ast.Select) -> Resolved:
    """The resolution of a clean ``select`` that calls no expensive
    function, derived from the owners its nodes carry, with no name
    looked up: what :func:`resolve` would return under the catalog
    stamps those owners were written under.

    A statement kept in the statement cache, or bound from a template,
    carries them; it is planned from this instead of being resolved
    again.  A nested SELECT's is derived when the planner asks for it.
    """
    items = _items(select.items)
    return _resolution(
        functions, select, None, items, _grouping(select.group_by, items),
        [], [], {},
    )


def slot(layout: "RowLayout", ref: ast.ColumnRef) -> int:
    """Where ``ref`` sits in ``layout``: its owner's slot, or for a
    reference the planner made (``_group0``, ...) the slot of that name."""
    owner = ref.owner
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
    for name in ast.child_fields(type(expression)):
        value = getattr(expression, name)
        new_value = substitute(value, replacements)
        if new_value is not value:
            changes[name] = new_value
    if not changes:
        return expression
    return dataclasses.replace(expression, **changes)


# -- what follows from the owners -----------------------------------------


def _items(items: tuple[ast.SelectItem, ...]) -> list[ast.SelectItem]:
    """The SELECT items, each star replaced by the items it expands to."""
    if not any(type(item.expression) is ast.Star for item in items):
        return list(items)
    expanded: list[ast.SelectItem] = []
    for item in items:
        star = item.expression
        expanded.extend(star.owner if type(star) is ast.Star else [item])
    return expanded


def _star_item(column: Column) -> ast.SelectItem:
    """The item a star expands to for ``column``."""
    ref = ast.ColumnRef(column.name, column.binding, owner=column)
    return ast.SelectItem(ref, column.name)


def _grouping(
    terms: tuple[ast.Expression, ...], items: list[ast.SelectItem]
) -> list[ast.Expression]:
    """The GROUP BY terms, each that names an output column replaced by
    its item's expression."""
    targets = [_target(term, len(items)) for term in terms]
    return [
        term if at is None else items[at].expression
        for term, at in zip(terms, targets)
    ]


def _target(expression: ast.Expression, count: int) -> int | None:
    """The output column, of ``count``, a GROUP BY or ORDER BY term
    names: by an ordinal in range, or as a whole-term alias or name
    that owns its index."""
    ordinal = ast.output_position(expression)
    if ordinal is not None:
        return ordinal - 1 if 1 <= ordinal <= count else None
    owner = getattr(expression, "owner", None)
    return owner if type(owner) is int else None


def _ordering(term: ast.OrderItem, items: list[ast.SelectItem]) -> Ordering:
    """One ORDER BY term: the output column it names, else its
    expression, aliases substituted."""
    target = _target(term.expression, len(items))
    expression = term.expression
    if target is None:
        expression = _substitute_aliases(expression, items)
    return Ordering(expression, term.ascending, target)


def _substitute_aliases(
    expression: ast.Expression, items: list[ast.SelectItem]
) -> ast.Expression:
    replacements = {
        node: items[node.owner].expression
        for node in ast.walk(expression)
        if type(node) is ast.ColumnRef and type(node.owner) is int
    }
    if not replacements:
        return expression
    return substitute(expression, replacements)


def _collect(
    functions: "FunctionRegistry",
    grouped: list[ast.Expression],
    expressions: list[ast.Expression],
) -> tuple[list[ast.FunctionCall], list[ast.ColumnRef]]:
    """The aggregate calls of ``expressions`` (distinct, in walk order)
    and the column references they read outside those calls and outside
    every subtree equal to a ``grouped`` term (as ``substitute``
    matches), which reads its group key.  Nested SELECTs keep their own."""
    aggregates: list[ast.FunctionCall] = []
    columns: list[ast.ColumnRef] = []
    # Walked with a stack: a nested function calling itself would be a
    # reference cycle, left behind by every statement.
    stack = [(expression, True) for expression in reversed(expressions)]
    while stack:
        node, bare = stack.pop()
        if bare and grouped and node in grouped:
            bare = False
        kind = type(node)
        if kind is ast.ColumnRef:
            if bare and type(node.owner) is not int:  # type: ignore
                columns.append(node)  # type: ignore[arg-type]
            continue
        if kind is ast.FunctionCall and functions.aggregate_call(node):
            bare = False
            if node not in aggregates:
                aggregates.append(node)  # type: ignore[arg-type]
        stack.extend(
            (child, bare)
            for child in reversed(list(ast.children(node)))
            if type(child) is not ast.Select
        )
    return aggregates, columns


def _resolution(
    functions: "FunctionRegistry",
    select: ast.Select,
    scope: Scope | None,
    items: list[ast.SelectItem],
    group_by: list[ast.Expression],
    selects: list[Resolved],
    sites: list[CallSite],
    failures: dict[int, Failure],
) -> Resolved:
    """``select``'s :class:`Resolved`, once its owners are written."""
    order_by = [_ordering(term, items) for term in select.order_by]
    having = select.having
    aggregates, columns = _collect(
        functions,
        group_by,
        [item.expression for item in items]
        + [having] * (having is not None)
        + [order.expression for order in order_by if order.target is None],
    )
    if having is not None and (group_by or aggregates):
        having = _substitute_aliases(having, items)
    names = [
        item.alias or ast.expression_name(item.expression) for item in items
    ]
    return Resolved(
        select, scope, items, names, group_by, having, order_by, aggregates,
        columns, selects, sites, failures,
    )


# -- resolution -------------------------------------------------------------


class _Resolver:
    def __init__(self, db: "Database") -> None:
        self.db = db
        self.functions = db.functions
        self.selects: list[Resolved] = []
        self.sites: list[CallSite] = []
        self.failures: dict[int, Failure] = {}
        #: The GROUP BY terms of the SELECT being walked: a call under a
        #: subtree equal to one runs once per group, priced by the term.
        self.grouped: tuple[ast.Expression, ...] = ()
        #: How many aggregate calls enclose the node being walked, and
        #: where an aggregate may not be ("in WHERE"), if it may not.
        self.depth = 0
        self.refused: str | None = None

    # -- SELECT ----------------------------------------------------------

    def select(self, select: ast.Select) -> Resolved:
        """Walk ``select``'s clauses in the analyzer's order, writing
        every owner."""
        saved = self.grouped, self.depth, self.refused
        outer, self.selects = self.selects, []
        self.grouped, self.depth, self.refused = (), 0, None
        scope = self._from(select.source)
        rows = scope.rows
        items = self._expand_stars(select.items, scope)
        outputs: dict[str, int] = {}
        aliases: dict[str, int] = {}
        if select.order_by or select.group_by or select.having:
            for position, item in enumerate(items):
                name = item.alias or ast.expression_name(item.expression)
                outputs.setdefault(name.lower(), position)
                if item.alias:
                    aliases.setdefault(item.alias.lower(), position)
        group_by = self._group_by(select.group_by, items, aliases, scope)
        self.grouped, self.refused = tuple(group_by), None
        for item in select.items:
            if type(item.expression) is not ast.Star:  # expanded: owned
                self._walk(item.expression, scope, rows)
        if select.where is not None:
            self.refused = "in WHERE"
            self._walk(select.where, scope, rows)
            self.refused = None
        first = len(self.sites), len(self.failures)
        if select.having is not None:
            self._walk(select.having, scope, rows, aliases)
        last = len(self.sites), len(self.failures)
        self._order_by(select.order_by, items, outputs, aliases, scope)
        resolved = _resolution(
            self.functions, select, scope, items, group_by, self.selects,
            self.sites, self.failures,
        )
        if select.having is not None and not (group_by or resolved.aggregates):
            self._refuse_having(select, first, last)
        # LIMIT and OFFSET are constants, read before any row is.
        limits = (("LIMIT", select.limit), ("OFFSET", select.offset))
        for clause, term in limits:
            if term is not None:
                self.refused = f"in {clause}"
                self._walk(term, Scope([]), 1)
        outer.extend(self.selects)
        outer.append(resolved)
        self.selects = outer
        self.grouped, self.depth, self.refused = saved
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
            entry = Source(binding, table.layout(binding), table)
            return Scope([entry], rows=max(len(table), 1))
        if isinstance(source, ast.SubquerySource):
            inner = self.select(source.query)
            alias = source.alias
            layout = RowLayout([(alias, name) for name in inner.names])
            return Scope(
                [Source(alias, layout)], rows=max(inner.result_rows, 1)
            )
        left = self._from(source.left)
        right = self._from(source.right)
        scope = Scope(
            left.sources + right.sources,
            left.open or right.open,
            left.rows * right.rows,
        )
        if source.condition is not None:
            self.refused = "in JOIN ON"
            self._walk(source.condition, scope, scope.rows)
            self.refused = None
        return scope

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> list[ast.SelectItem]:
        """Write each star's expansion, and return the items expanded."""
        for item in items:
            star = item.expression
            if type(star) is not ast.Star:
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
            _own(star, tuple(_star_item(column) for column in columns))
        return _items(items)

    def _group_by(
        self,
        terms: tuple[ast.Expression, ...],
        items: list[ast.SelectItem],
        aliases: dict[str, int],
        scope: Scope,
    ) -> list[ast.Expression]:
        """The GROUP BY terms, ordinals and aliases replaced; every
        ordinal out of range fails before any term is walked.  A bare
        name that binds to no source column but names an alias owns
        the alias's item."""
        for term in terms:
            ordinal = ast.output_position(term)
            if ordinal is not None and not 1 <= ordinal <= len(items):
                self.failures[id(term)] = _position_failure(
                    "GROUP BY", ordinal, len(items)
                )
            elif type(term) is ast.ColumnRef:
                alias = None if term.table else aliases.get(term.name.lower())
                if alias is not None and scope.bind(term.name) is not False:
                    alias = None
                _own(term, alias)
        group_by = _grouping(terms, items)
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
    ) -> None:
        """A whole ORDER BY term that names an output column owns its
        index; an ordinal out of range fails; every other term is
        walked, its aliases bound to their items' indexes."""
        for term in terms:
            expression = term.expression
            ordinal = ast.output_position(expression)
            if ordinal is not None and not 1 <= ordinal <= len(items):
                self.failures[id(term)] = _position_failure(
                    "ORDER BY", ordinal, len(items)
                )
            elif type(expression) is ast.ColumnRef and not expression.table:
                _own(expression, outputs.get(expression.name.lower()))
            if _target(expression, len(items)) is None:
                self._walk(expression, scope, scope.rows, aliases)

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
            # matches) reads the group key: no call under it runs again
            # (the term's walk priced it).
            kept = self.grouped, len(self.sites)
            self.grouped = ()
            self._walk(node, scope, rows, aliases)
            self.grouped, sites = kept
            del self.sites[sites:]
            return
        kind = type(node)
        if kind is ast.ColumnRef:
            # A star's expansion (no source extent) owns its column.
            if node.position is not None or node.owner is None:  # type: ignore
                self._bind(node, scope, aliases)  # type: ignore[arg-type]
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
        _own(ref, owner)

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
                owner = argument.owner
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
