"""The least-recently-used map behind every cache, and the statement cache.

:class:`LRUCache` is the one LRU map in the repo.  It serves the
serving layer's prompt cache (:class:`~repro.serve.BatchingLM`), each
:class:`~repro.db.Database`'s cross-statement memo of expensive-UDF
results (``Database.udf_cache``, keyed by ``(FUNCTION_NAME, args)``),
the semantic result cache's entries
(:class:`~repro.serve.SemanticResultCache`) and, as its subclass, the
statement cache.  Every method runs under its one lock, because the
memo and the statement cache are shared by every ``TagServer`` worker.
That lock is always acquired last: nothing else is taken while it is
held, so it adds no edge a lock-order cycle could close.  The cache
never meters: a caller that counts hits and misses does so at exactly
one seam of its own.

One :class:`StatementCache` lives on each :class:`~repro.db.Database`
and is keyed by SQL text.  :meth:`~repro.db.Database.execute` admits a
SELECT only after it has succeeded: first its parsed AST and whether the
analyzer accepted it, and — from the entry's first hit on, so a text
that never repeats costs an AST and not a plan — the physical plan it
ran, with its output names and optimizer report.  A :class:`Prepared`
entry is immutable; admitting the plan replaces the entry.  Whether an
entry still stands (see :class:`Prepared`) is asked by the database,
outside the lock; two workers racing on a first sight at worst both
plan and one entry survives.  The counts are plain ints for tests and
experiments, not ``Usage`` fields: a racing first sight would make
those depend on timing.

Beside the texts, the cache keeps templates: one per
:func:`template_key`, the shape texts share when they differ only in
literal values, whitespace and comments.  A text the cache does not hold
is lexed once; the first text of a key that succeeds leaves only a
marker, and the second builds the key's :class:`Template`.  Every later
text of the key is bound from it — the template's AST with this text's
literals and positions — instead of parsed, and takes the template's
stamps and, where no literal the analyzer reads the value of differs,
its verdict and its binding: the owners resolution wrote onto the
nodes of the text that taught it (see :mod:`repro.db.resolve`).  A
bound text of a statement that calls no expensive function is planned
from those owners and not resolved again.  A template keeps its
binding, not its estimates: row counts, call-site bounds and
selectivities read the tables as they are and are made per text.
Plans are never shared between texts: a plan depends on the literals.
Templates live in their own LRU map and are not counted by ``len()``,
which counts texts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from repro.db.sql import ast
from repro.db.sql.lexer import Token, TokenType
from repro.db.sql.parser import Slot, parse_template
from repro.obs import racecheck

#: Entries kept per database; least recently used go first.
CAPACITY = 512

_MISSING = object()


class LRUCache:
    """Least-recently-used map with a fixed capacity.

    ``capacity == 0`` disables the cache: every ``get`` misses and
    ``put`` is a no-op, so callers need no special case.  Only
    :meth:`get` and :meth:`put` are uses that promote an entry to most
    recently used; ``key in cache``, ``len(cache)`` and
    :meth:`snapshot` leave the eviction order alone.  The race checker
    names the entries after the class, so a subclass's are told apart.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock_name = f"{type(self).__name__}._lock"
        self._var = f"{type(self).__name__}._entries"

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up and promote: a hit becomes most recently used."""
        with racecheck.guard(self._lock_name, self._lock):
            return self._get_locked(key, default)

    def _get_locked(self, key: Hashable, default: Any) -> Any:
        racecheck.read(self._var)
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return default
        racecheck.write(self._var)
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> list[tuple[Hashable, Any]]:
        """Insert or refresh ``key`` as most recently used; returns the
        ``(key, value)`` pairs evicted, oldest first.  A caller that
        mirrors entries elsewhere (the semantic cache's vector index)
        uses them to tombstone its side."""
        if self.capacity == 0:
            return []
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.write(self._var)
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = []
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
            return evicted

    def snapshot(self) -> dict[Hashable, Any]:
        """A point-in-time copy of the entries, oldest first.

        The sharded executor reads UDF results from a statement-start
        snapshot, so every shard — and every shard *count* — sees the
        same memo whatever concurrent statements insert mid-scan; hits
        and inserts are replayed against the live memo after the shards
        join (see :mod:`repro.db.shard`).
        """
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return dict(self._entries)

    def clear(self) -> None:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.write(self._var)
            self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return key in self._entries

    def __len__(self) -> int:
        with racecheck.guard(self._lock_name, self._lock):
            racecheck.read(self._var)
            return len(self._entries)


class Prepared(NamedTuple):
    """What one SELECT text was derived to, and what it was derived from.

    ``tables`` holds ``(name, table, access_version)`` for every table
    the statement names, ``functions`` the registry's version and
    ``runtime`` the shard runtime: the stamps :meth:`stands` checks.
    The plan — kept only when its run state lives entirely in the
    frames of ``execute()`` — was built under the ``(optimize,
    udf_batch_size)`` in ``options``, and ``stats`` holds ``(table,
    version)`` for every table whose statistics its planning read: what
    :meth:`serves` checks on top.
    """

    statement: Any
    analyzed: bool
    tables: tuple
    functions: int
    runtime: Any
    #: The statement's nodes carry the owners a resolution under these
    #: stamps wrote, and it calls no expensive function: it is planned
    #: from them (:func:`~repro.db.resolve.rebound`), not resolved again.
    bound: bool = False
    options: tuple | None = None
    plan: Any = None
    names: list[str] | None = None
    report: Any = None
    stats: tuple = ()

    def stands(self, catalog: dict, functions: int, runtime: Any) -> bool:
        """Whether everything here may still be used: every table named
        is the object the catalog holds (a name that had none still has
        none), with the indexes and partitioning it had, and neither
        the function registry nor the shard runtime has changed."""
        return (
            self.functions == functions
            and self.runtime is runtime
            and all(
                catalog.get(name) is table
                and getattr(table, "access_version", None) == version
                for name, table, version in self.tables
            )
        )

    def serves(self, options: tuple) -> bool:
        """Whether the plan kept was built under ``options`` and no
        table whose statistics chose it has been written since."""
        return self.options == options and all(
            table.version == version for table, version in self.stats
        )


def template_key(tokens: list[Token]) -> tuple[str, ...]:
    """What a SELECT's tokens share with every text that differs from
    it only in literal values, whitespace and comments: each INTEGER,
    FLOAT or STRING token stands as its type, every other token as its
    type and text.

    Spelled as strings, so the key hashes without hashing an enum: a
    literal is ``#`` and its type's initial, an identifier ``i`` and
    its text, and a keyword, operator or punctuation token its text —
    upper-case letters, symbols and punctuation, three sets that share
    no text with each other or with the first two forms.
    """
    integer, real = TokenType.INTEGER, TokenType.FLOAT
    string, identifier = TokenType.STRING, TokenType.IDENTIFIER
    return tuple(
        [
            "#I"
            if (kind := token.type) is integer
            else "#F"
            if kind is real
            else "#S"
            if kind is string
            else "i" + token.text
            if kind is identifier
            else token.text
            for token in tokens
        ]
    )


class Binder:
    """Builds, from the tokens of any text of one key, the tree
    :func:`~repro.db.sql.parser.parse_tokens` would: the key's template
    with this text's literal values and this text's positions.

    The template is compiled once into one function (:class:`_Code`)
    that builds each node differing between texts; a subtree that holds
    no literal, no position and no owner is shared by every tree bound.
    Literals are read in token order, as the parser reads them, so a
    text whose integer ``int()`` refuses fails as its parse would.  Each
    node with an ``owner`` takes it from the tuple :meth:`bind` is
    given, in the order :meth:`owners` reads them off a resolved tree
    of the key.
    """

    def __init__(self, tokens: list[Token]) -> None:
        template = parse_template(tokens)
        code = _Code()
        self._build = code.function(code.emit(template) or code.of(template))
        self._verdict = sorted(_verdict_slots(template))
        self._unowned = (None,) * code.owners

    def bind(
        self, tokens: list[Token], owners: tuple | None = None
    ) -> ast.Statement:
        return self._build(tokens, owners or self._unowned)

    def owners(self, statement: ast.Statement) -> tuple:
        """The owners ``statement``, a tree of this key, carries."""
        found: list = []
        stack: list[Any] = [statement]
        while stack:
            node = stack.pop()
            if type(node) in (ast.ColumnRef, ast.Star):
                found.append(node.owner)
            stack.extend(reversed(list(ast.children(node))))
        return tuple(found)

    def verdict_values(self, tokens: list[Token]) -> tuple:
        """The values of this text's literals the analyzer's verdict
        reads (see :func:`_verdict_slots`)."""
        return tuple(read(tokens[index].text) for index, read in self._verdict)


#: Where a template's ``position`` and ``end`` token index points in a
#: :class:`~repro.db.sql.lexer.Token` (see
#: :func:`~repro.db.sql.parser.parse_template`).
_EXTENT = {"position": 2, "end": 3}


class _Code:
    """The source of one function of a text's tokens ``t`` and owners
    ``o`` that builds a key's tree: one local per literal read (by its
    :class:`~repro.db.sql.parser.Slot`) and one per node built, each
    node after its children.  Every value the
    source names is an index into its constants ``c``: no text of a
    statement is spliced into it, and it nests no deeper than one
    call, however deep the tree."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.constants: list[Any] = []
        self.slots: list[Slot] = []
        #: How many owners the tree holds, in :meth:`Binder.owners`'
        #: order: pre-order, fields in order.
        self.owners = 0

    def of(self, value: Any) -> str:
        self.constants.append(value)
        return f"c[{len(self.constants) - 1}]"

    def emit(self, node: Any) -> str | None:
        """The local that holds ``node`` built for one text, or None
        where every text holds ``node`` itself."""
        if type(node) is tuple:
            parts = [self.emit(element) for element in node]
            if not any(parts):
                return None
            args = [p or self.of(e) for p, e in zip(parts, node)]
            return self._local("(" + "".join(f"{a}, " for a in args) + ")")
        if type(node) is ast.Literal and type(node.value) is Slot:
            self.slots.append(node.value)
            return self._local(f"{self.of(ast.Literal)}(v{node.value.index})")
        fields = getattr(node, "__dataclass_fields__", ())
        parts: list[str | None] = []
        for name in fields:
            value = getattr(node, name)
            if name == "owner":
                parts.append(f"o[{self.owners}]")
                self.owners += 1
            elif name in _EXTENT and value is not None:
                parts.append(f"t[{value}][{_EXTENT[name]}]")
            else:
                parts.append(self.emit(value))
        if not any(parts):
            return None
        args = [p or self.of(getattr(node, n)) for p, n in zip(parts, fields)]
        return self._local(f"{self.of(type(node))}({', '.join(args)})")

    def _local(self, expression: str) -> str:
        name = f"n{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return name

    def function(self, result: str) -> Callable[[list, tuple], Any]:
        reads = [
            f"v{slot.index} = {self.of(slot.read)}(t[{slot.index}][1])"
            for slot in sorted(self.slots)
        ]
        body = "".join(f"    {line}\n" for line in reads + self.lines)
        namespace = {"c": self.constants}
        exec(f"def build(t, o):\n{body}    return {result}\n", namespace)
        # Taken out of its own globals: a binder holds no reference
        # cycle for the garbage collector to find.
        return namespace.pop("build")


def _verdict_slots(template: ast.Statement) -> set[Slot]:
    """The literals whose value, not just type, the static analyzer
    reads: a GROUP BY or ORDER BY term that is a literal (an output
    position: its range is ANA014, and a GROUP BY position names the
    item grouped on), and a literal inside an unaliased SELECT item's
    output name (:func:`~repro.db.sql.ast.expression_name`), which
    ORDER BY and an enclosing query resolve names against.  Every other
    rule reads a literal's type, which the key fixes, or feeds only the
    cost estimate, which ``execute`` does not read."""
    found: set[Slot] = set()
    stack: list[Any] = [template]
    while stack:
        node = stack.pop()
        if type(node) is ast.Select:
            for term in node.group_by + tuple(
                order.expression for order in node.order_by
            ):
                if type(term) is ast.Literal and type(term.value) is Slot:
                    found.add(term.value)
            for item in node.items:
                if item.alias is None:
                    found.update(_name_slots(item.expression))
        stack.extend(ast.children(node))
    return found


def _name_slots(expression: Any) -> set[Slot]:
    """Slots :func:`~repro.db.sql.ast.expression_name` spells out."""
    if type(expression) is ast.Literal and type(expression.value) is Slot:
        return {expression.value}
    if type(expression) is ast.FunctionCall and not expression.star:
        return set().union(*(_name_slots(arg) for arg in expression.args))
    return set()


class Template(NamedTuple):
    """One key's :class:`Binder`, with the stamps, analyzer verdict and
    owners of the last text of the key that taught it (``stamps``, a
    :class:`Prepared` without a statement, and :meth:`Binder.owners`)
    and that text's :meth:`~Binder.verdict_values`: the verdict and the
    owners hold for another text of the key only if its values are the
    same."""

    binder: Binder
    stamps: Prepared
    values: tuple
    owners: tuple

    def prepare(self, tokens: list[Token]) -> Prepared:
        """The entry for the text ``tokens`` came from, as parsing,
        analyzing and resolving it afresh under these stamps would
        derive it."""
        same = self.binder.verdict_values(tokens) == self.values
        stamps = self.stamps
        return stamps._replace(
            statement=self.binder.bind(tokens, self.owners),
            analyzed=stamps.analyzed and same,
            bound=stamps.bound and same,
        )


class StatementCache(LRUCache):
    """:data:`CAPACITY` :class:`Prepared` entries keyed by SQL text, and
    beside them :data:`CAPACITY` templates and first-sight markers: a
    :class:`Template` under its :func:`template_key`, a marker under the
    key's ``hash()``.  A marker only decides when a template is built,
    so two keys sharing a hash cost at most one template built early,
    and a key seen once costs an int instead of its tokens' texts."""

    def __init__(self) -> None:
        super().__init__(CAPACITY)
        self.templates = LRUCache(CAPACITY)
        #: Lookups that found the text, lookups that did not, and
        #: executions that ran a stored plan.
        self.hits = self.misses = self.plan_hits = 0

    def admit(
        self,
        sql: str,
        entry: Prepared,
        shape: tuple[tuple, list[Token], "Template | None"] | None,
    ) -> None:
        """Keep ``entry``, which ``sql`` has just succeeded with, and
        — when ``shape`` gives the key, tokens and template a miss
        derived it with — teach the key: a first sight leaves a marker,
        the second builds the template, and later texts renew its
        stamps, verdict and owners when the one they were derived with
        no longer stood, or when they hold a verdict or owners for
        values the template had none for."""
        self.put(sql, entry)
        if shape is None:
            return
        key, tokens, template = shape
        if template is not None:
            binder, stamps = template.binder, template.stamps
            values = binder.verdict_values(tokens)
            same = values == template.values
            if (
                entry.tables is stamps.tables
                and (not entry.analyzed or stamps.analyzed and same)
                and (not entry.bound or stamps.bound and same)
            ):
                return
        elif hash(key) not in self.templates:
            self.templates.put(hash(key), True)
            return
        else:
            binder = Binder(tokens)
            values = binder.verdict_values(tokens)
        stamps = entry._replace(statement=None)
        owners = binder.owners(entry.statement)
        self.templates.put(key, Template(binder, stamps, values, owners))

    def lookup(self, sql: str) -> Prepared | None:
        """The entry for ``sql``, promoted to most recently used."""
        with racecheck.guard(self._lock_name, self._lock):
            entry = self._get_locked(sql, None)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def count_plan_hit(self) -> None:
        """An execution ran the plan its entry stored."""
        with racecheck.guard(self._lock_name, self._lock):
            self.plan_hits += 1
