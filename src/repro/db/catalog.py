"""The Database: catalog of tables plus the SQL execution facade."""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import compress
from typing import TYPE_CHECKING, Any

from repro.db import types as dbtypes
from repro.db.expr import ExpressionCompiler, Kernel, reads_row_by_row
from repro.db.functions import BatchFunction, FunctionRegistry
from repro.db.optimizer import QueryOptimizer
from repro.db.plan import UDFExecContext, run_morsels
from repro.db.planner import Planner
from repro.db.resolve import Resolved, misplaced, rebound, resolve
from repro.db.shard import PartitionSpec, ShardRuntime
from repro.db.stmtcache import (
    LRUCache,
    Prepared,
    StatementCache,
    template_key,
)
from repro.db.result import ResultSet, RowLayout
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.sql import ast
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_tokens
from repro.db.table import Table
from repro.errors import (
    AnalysisError,
    ExecutionError,
    PlanningError,
    SchemaError,
)
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.lm.usage import Usage


#: ``EXPLAIN ANALYZE <select>`` prefix, handled before the parser sees
#: the statement (the grammar itself stays SELECT-only).
_EXPLAIN_ANALYZE = re.compile(r"^\s*EXPLAIN\s+ANALYZE\b\s*", re.IGNORECASE)


def _analysis_error(report) -> AnalysisError:
    """Flatten a rejecting QueryReport into one AnalysisError."""
    errors = report.errors
    head = f"{errors[0].code}: {errors[0].message}"
    if len(errors) > 1:
        head += f" (+{len(errors) - 1} more)"
    return AnalysisError(f"static analysis rejected query: {head}", report)


def _check_options(udf_batch_size: object, max_rows: object) -> None:
    """Refuse a ``udf_batch_size`` that is not ``'auto'``, None or an
    int >= 1, and a ``max_rows`` that is not None or an int >= 0."""
    if not (udf_batch_size is None or udf_batch_size == "auto"):
        if isinstance(udf_batch_size, bool) or not isinstance(
            udf_batch_size, int
        ):
            raise ExecutionError(
                "udf_batch_size must be 'auto', None or an int, "
                f"got {udf_batch_size!r}"
            )
        if udf_batch_size < 1:
            raise ExecutionError(
                f"udf_batch_size must be >= 1, got {udf_batch_size}"
            )
    if not (max_rows is None or type(max_rows) is int and max_rows >= 0):
        raise ExecutionError(
            f"max_rows must be None or an int >= 0, got {max_rows!r}"
        )


def _named_tables(select: ast.Select) -> set[str]:
    """Lowered name of every table a SELECT mentions, in its FROM tree
    or in any subquery at any depth."""
    names: set[str] = set()
    stack: list[Any] = [select]
    while stack:
        node = stack.pop()
        if type(node) is ast.TableSource:
            names.add(node.name.lower())
        stack.extend(ast.children(node))
    return names


class Database:
    """An in-memory relational database with a SQL interface.

    This is the reproduction's stand-in for SQLite3.  Language-model UDFs
    registered via :meth:`register_udf` become callable inside SQL, which
    is how a TAG query-execution step can push semantic reasoning into
    ``exec`` (paper §2.1/§3, "Database Execution Engine and API").
    """

    def __init__(
        self, name: str = "main", udf_cache_capacity: int = 4096
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self.functions = FunctionRegistry()
        #: Cross-statement memo of expensive-UDF results, shared by
        #: every batched execution against this database.  Capacity 0
        #: disables it (intra-morsel dedup still applies).
        self.udf_cache = LRUCache(udf_cache_capacity)
        #: What :meth:`execute` derived from the text of each SELECT it
        #: ran (AST, analyzer verdict, plan), reused while it stands.
        self.statement_cache = StatementCache()
        #: Where this database's counters go (see bind_udf_meters).
        self._usage: Usage | None = None
        #: Worker count / LM host for shard-parallel execution; scans
        #: only shard once a table opts in via :meth:`set_partitioning`.
        self.shard_runtime = ShardRuntime()

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table from ``schema``; errors if it exists."""
        key = schema.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table (case-insensitive); errors if absent."""
        try:
            del self._tables[name.lower()]
        except KeyError as exc:
            raise SchemaError(f"no table named {name!r}") from exc

    def table(self, name: str) -> Table:
        """Look up a table by name (case-insensitive)."""
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise PlanningError(f"no table named {name!r}") from exc

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name.lower() in self._tables

    @property
    def table_names(self) -> list[str]:
        """Declared table names, in creation order."""
        return [table.schema.name for table in self._tables.values()]

    def insert(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]],
    ) -> int:
        """Bulk-insert rows (sequences or mappings), all or none;
        returns the count."""
        return self.table(table_name).insert_many(rows)

    def create_index(self, table_name: str, column_name: str) -> None:
        """Index one column: hash buckets for equality lookups and key
        joins, plus their keys in order for range scans."""
        self.table(table_name).create_index(column_name)

    def set_partitioning(
        self, table_name: str, column: str, shards: int
    ) -> PartitionSpec:
        """Hash-partition a table on ``column`` into ``shards`` shards.

        The planner shards eligible scans of a partitioned table into
        :class:`~repro.db.plan.Exchange` pipelines — results, ordering,
        traces, and shared counters are identical at any shard/worker
        count (see DESIGN.md §16).  Returns the installed spec.
        """
        spec = PartitionSpec.hashed(column, shards)
        self.table(table_name).set_partitioning(spec)
        return spec

    def clear_partitioning(self, table_name: str) -> None:
        """Remove a table's partitioning; its scans stop sharding."""
        self.table(table_name).set_partitioning(None)

    def configure_sharding(
        self, workers: int = 4, lm: Any = None
    ) -> ShardRuntime:
        """Set the shard executor's worker budget and LM host.

        ``lm`` is the serving-layer :class:`~repro.serve.BatchingLM`
        (or compatible facade) shard threads open sessions on, letting
        concurrent shards' UDF morsels coalesce at its flush barrier;
        without one, UDF-bearing shards execute sequentially so the
        simulated LM's accounting stays deterministic.
        """
        self.shard_runtime = ShardRuntime(workers=workers, lm=lm)
        return self.shard_runtime

    # ------------------------------------------------------------------
    # UDFs
    # ------------------------------------------------------------------

    def register_udf(
        self,
        name: str,
        function: Callable[..., dbtypes.SQLValue],
        expensive: bool = False,
        batch: BatchFunction | None = None,
        cheap: Callable[..., dbtypes.SQLValue] | None = None,
    ) -> None:
        """Expose a Python callable (e.g. an LM) as a SQL function,
        replacing every part of an earlier registration of ``name``.

        ``batch`` optionally supplies a vectorised form (see
        :meth:`repro.db.functions.FunctionRegistry.register_scalar`);
        the batched execution path dispatches it once per morsel of
        distinct argument tuples.

        ``cheap`` registers a cheap classifier tier for the optimizer's
        *cascade* route, called once per distinct argument tuple: it
        must return exactly what ``function`` would, or ``None`` to
        escalate the tuple to the expensive tier.
        """
        self.functions.register_scalar(
            name, function, expensive=expensive, batch=batch, cheap=cheap
        )

    def bind_udf_meters(self, usage: Usage | None = None) -> None:
        """Where this database's counters go: a
        :class:`repro.lm.usage.Usage`, or nowhere when None.

        UDF-cache and cascade traffic, optimizer decisions and
        ``max_rows`` drops are added to it.  The batched operators'
        per-node ``exec_stats`` stay the canonical per-operator
        numbers; these are the same increments.  Optimizer decisions
        are plan-time events: every planned statement (execute,
        EXPLAIN, EXPLAIN ANALYZE) counts them once, deterministic for a
        fixed query and catalog; which rules they are is the EXPLAIN
        footer's to say.
        """
        self._usage = usage

    def _prepare(
        self,
        sql: str,
        entry: Prepared,
        stored: Prepared | None,
        analyze: bool,
        optimize: bool,
        udf_batch_size: "int | str | None",
        max_rows: int | None,
    ) -> tuple[Prepared, Any, list[str], Any]:
        """The one prepare step of the SELECT ``entry`` holds: the entry
        to keep, the plan, its output names and the optimizer's report.

        The SELECT is resolved at most once, and only when something
        reads the resolution: the analyzer's preflight (asked for, and
        ``entry`` not yet ``analyzed``), the route choice and the
        planner.  An entry that is ``bound`` (its nodes carry the owners
        an earlier resolution of its shape wrote, and it calls no
        expensive function) is not resolved again for those two: its
        resolution is derived from the owners.  A plan the ``stored``
        entry kept under these options runs as it is.
        Errors come in order: the analyzer's rejection, a bad option,
        then the planning failure.

        ``udf_batch_size`` semantics: the default ``"auto"`` delegates
        the choice to the cost-based optimizer (per-row for purely
        relational statements, a distinct-value-bounded morsel size —
        or the cascade route — for statements with expensive UDFs);
        ``None`` pins the per-row oracle path; an int pins that morsel
        size.  With ``optimize=False`` there is no optimizer: ``"auto"``
        degrades to per-row, ints are still honored (for ablations).
        Anything else is refused by :func:`_check_options`.
        """
        resolved = None
        if analyze and not entry.analyzed:
            from repro.analysis import SQLAnalyzer

            resolved = resolve(self, entry.statement)
            verdict = SQLAnalyzer(self).report(resolved, sql)
            if not verdict.ok:
                raise _analysis_error(verdict)
            entry = entry._replace(analyzed=True, bound=not resolved.sites)
        _check_options(udf_batch_size, max_rows)
        options = (optimize, udf_batch_size)
        if stored is not None and stored.serves(options):
            self.statement_cache.count_plan_hit()
            return entry, stored.plan, stored.names, stored.report
        if resolved is None and entry.bound:
            resolved = rebound(self.functions, entry.statement)
        elif resolved is None:
            resolved = resolve(self, entry.statement)
            if not resolved.sites:
                entry = entry._replace(bound=True)
        optimizer = None
        if optimize:
            optimizer = QueryOptimizer(self)
            udf_batch_size = optimizer.route(resolved, udf_batch_size)
        elif udf_batch_size == "auto":
            udf_batch_size = None
        planner = Planner(
            self,
            resolved,
            optimize,
            udf_batch_size,  # type: ignore[arg-type]
            None
            if udf_batch_size is None
            else UDFExecContext(self.udf_cache, self._usage),
            optimizer,
        )
        plan, names = planner.plan_select(entry.statement)
        report = None if optimizer is None else optimizer.report
        # The plan is kept from the text's first repeat on (one that
        # never recurs then costs an AST, not a plan), and only when it
        # may run again.
        if stored is not None and planner.reusable:
            entry = entry._replace(
                options=options,
                plan=plan,
                names=names,
                report=report,
                stats=tuple(planner.stats_read.items()),
            )
        return entry, plan, names, report

    def _run(
        self, plan: Any, report: Any, max_rows: int | None
    ) -> tuple[list, tuple[int, int] | None]:
        """Run a prepared plan: its rows, cut to ``max_rows``, and
        ``(max_rows, rows)`` when the cut dropped any.  Counts the
        optimizer's decisions and the rows dropped."""
        rows = list(plan.execute())
        if report is not None:
            decisions = len(report.decisions)
            trace.count(self._usage, optimizer_decisions=decisions)
        truncated = None
        if max_rows is not None and len(rows) > max_rows:
            truncated = (max_rows, len(rows))
            trace.count(self._usage, rows_truncated=len(rows) - max_rows)
            rows = rows[:max_rows]
        return rows, truncated

    # ------------------------------------------------------------------
    # statement cache
    # ------------------------------------------------------------------

    def _lookup(self, sql: str) -> Prepared | None:
        """The statement cache's entry for ``sql``, if it still stands."""
        entry = self.statement_cache.lookup(sql)
        if entry is not None and entry.stands(
            self._tables, self.functions.version, self.shard_runtime
        ):
            return entry
        return None

    def _first_sight(self, statement: ast.Select) -> Prepared:
        """A not yet stored entry for a SELECT just parsed, stamped
        before anything is derived from the catalog: a change racing
        the derivation then voids the entry instead of hiding in it."""
        version = self.functions.version
        tables = tuple(
            (name, table, getattr(table, "access_version", None))
            for name in _named_tables(statement)
            for table in [self._tables.get(name)]
        )
        return Prepared(statement, False, tables, version, self.shard_runtime)

    def _derive(self, sql: str) -> tuple[Any, tuple | None]:
        """What a text the cache does not hold derives to.

        A SELECT is lexed once.  Its tokens' :func:`template_key` finds
        the template other texts of its shape left; while that stands,
        the text's AST is bound from it and the template's stamps and
        verdict come along, else the tokens are parsed and stamped as a
        first sight.  Returns the :class:`Prepared` and the ``(key,
        tokens, template)`` that
        :meth:`~repro.db.stmtcache.StatementCache.admit` learns from,
        or, for any other statement, its parse and None.
        """
        tokens = tokenize(sql)
        if not tokens[0].matches_keyword("SELECT"):
            return parse_tokens(tokens), None
        key = template_key(tokens)
        template = self.statement_cache.templates.get(key)
        if template is not None and template.stamps.stands(
            self._tables, self.functions.version, self.shard_runtime
        ):
            entry = template.prepare(tokens)
        else:
            entry = self._first_sight(parse_tokens(tokens))
        return entry, (key, tokens, template)

    def _planned(
        self,
        sql: str,
        what: str,
        analyze: bool,
        optimize: bool,
        udf_batch_size: "int | str | None",
        max_rows: int | None,
    ) -> tuple[Any, list[str], Any]:
        """For the EXPLAIN paths: the plan, output names and optimizer
        report of the SELECT ``sql`` holds — as parsed and accepted
        before, while its stored entry or its shape's template stands.
        Nothing is kept."""
        entry = self._lookup(sql)
        if entry is None:
            entry, shape = self._derive(sql)
            if shape is None:
                raise PlanningError(f"{what} only supports SELECT")
        return self._prepare(
            sql, entry, None, analyze, optimize, udf_batch_size, max_rows
        )[1:]

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        optimize: bool = True,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        max_rows: int | None = None,
    ) -> ResultSet:
        """Parse and run one SQL statement.

        ``max_rows`` caps the rows a SELECT returns.  Truncation is
        never silent: every dropped row is metered into the bound
        ``Usage.rows_truncated`` (see :meth:`bind_udf_meters`) and
        EXPLAIN ANALYZE output carries a truncation note.

        With ``analyze=True``, SELECTs are pre-flighted through the
        static analyzer and an :class:`~repro.errors.AnalysisError`
        (carrying the analyzer's full ``QueryReport``) is
        raised before any plan is built when error-severity diagnostics
        are found.  A SELECT is resolved once, by the prepare step
        :meth:`explain` and :meth:`explain_analyze` share: the
        preflight, the route choice and the planner read that one
        resolution.

        ``udf_batch_size`` controls how expensive-UDF filters and
        projections execute.  The default ``"auto"`` lets the
        cost-based optimizer choose (see
        :class:`repro.db.optimizer.QueryOptimizer`); ``None`` pins the
        per-row oracle path; an int ``N`` pins the vectorized operators
        (:class:`~repro.db.plan.Filter` /
        :class:`~repro.db.plan.Project` with call sites, rendered as
        ``BatchedFilter`` / ``BatchedProject``): morsels of N rows,
        one batch dispatch per morsel of distinct argument tuples,
        memoized across statements via :attr:`udf_cache`.  Results are
        identical to the default per-row path (property-tested); only
        the LM call pattern changes.

        ``EXPLAIN ANALYZE <select>`` executes the query through
        counting instrumentation and returns the annotated plan tree
        (per-operator rows in/out and virtual time) as a one-column
        ``plan`` result — see :meth:`explain_analyze` for the
        structured form.

        A SELECT that has succeeded before skips what its text alone
        decides (see :mod:`repro.db.stmtcache`): parsing and the
        analyzer's verdict while the catalog objects it names stand,
        and from its second repeat on planning too, while the
        statistics the plan was chosen from stand.  Rows, errors and
        everything metered are those of a statement seen for the first
        time; :meth:`explain` and :meth:`explain_analyze` always plan
        afresh.
        """
        prefixed = _EXPLAIN_ANALYZE.match(sql)
        if prefixed is not None:
            analyzed = self.explain_analyze(
                sql[prefixed.end() :],
                optimize=optimize,
                analyze=analyze,
                udf_batch_size=udf_batch_size,
                max_rows=max_rows,
            )
            return ResultSet(
                ["plan"],
                [(line,) for line in analyzed.render().splitlines()],
            )
        entry = stored = self._lookup(sql)
        shape = None
        if stored is None:
            entry, shape = self._derive(sql)
            if shape is None:
                return self._execute_write(entry)
        entry, plan, names, report = self._prepare(
            sql, entry, stored, analyze, optimize, udf_batch_size, max_rows
        )
        rows, _ = self._run(plan, report, max_rows)
        # Only a statement that has succeeded is kept.
        if entry is not stored:
            self.statement_cache.admit(sql, entry, shape)
        return ResultSet(names, rows)

    def _execute_write(self, statement: ast.Statement) -> ResultSet:
        if isinstance(statement, ast.CreateTable):
            self._execute_create(statement)
            return ResultSet([], [])
        if isinstance(statement, ast.Insert):
            inserted = self._execute_insert(statement)
            return ResultSet(["rows_inserted"], [(inserted,)])
        if isinstance(statement, ast.Update):
            updated = self._execute_update(statement)
            return ResultSet(["rows_updated"], [(updated,)])
        if isinstance(statement, ast.Delete):
            deleted = self._execute_delete(statement)
            return ResultSet(["rows_deleted"], [(deleted,)])
        raise PlanningError(  # pragma: no cover - parser covers all cases
            f"unsupported statement {type(statement).__name__}"
        )

    def analyze(self, sql: str | ast.Select, source: str = ""):
        """Statically analyze a SELECT against this catalog.

        Returns the analyzer's ``QueryReport`` with diagnostics
        and an LM-cost estimate; never raises for invalid SQL (syntax
        errors become ``ANA001`` diagnostics).
        """
        from repro.analysis import SQLAnalyzer

        return SQLAnalyzer(self).analyze(sql, source=source)

    def explain_analyze(
        self,
        sql: str,
        optimize: bool = True,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        max_rows: int | None = None,
    ):
        """Execute a SELECT with per-operator instrumentation.

        Returns a :class:`repro.obs.explain.AnalyzedQuery`: the normal
        :class:`ResultSet` plus an operator-statistics tree (rows
        in/out and deterministic virtual time per plan node) rendered
        by ``.render()``.  The counters reflect what actually flowed —
        a ``LIMIT`` that stops pulling early shows up in its children's
        ``rows_out``.  Under ``udf_batch_size``, batched operators
        additionally report their LM call/batch and UDF-cache counters
        per node.  For statements involving expensive UDFs the render
        ends with the optimizer's decision footer.  ``analyze=True``
        pre-flights the SELECT as :meth:`execute` does, over the one
        resolution its route choice and planner read.
        """
        from repro.obs.explain import AnalyzedQuery, instrument_plan

        plan, names, report = self._planned(
            sql, "EXPLAIN ANALYZE", analyze, optimize, udf_batch_size,
            max_rows,
        )
        proxy, stats = instrument_plan(plan)
        rows, truncated = self._run(proxy, report, max_rows)
        return AnalyzedQuery(
            stats=stats,
            result=ResultSet(names, rows),
            optimizer=(
                report if report is not None and report.decisions else None
            ),
            truncated=truncated,
        )

    def explain(
        self,
        sql: str,
        optimize: bool = True,
        udf_batch_size: "int | str | None" = "auto",
    ) -> str:
        """Render the physical plan for a SELECT (diagnostics/tests).

        Statements with expensive UDFs get an ``Optimizer:`` footer
        listing every decision (route, batch size, reorders, pushdowns)
        with the cost numbers that justified it.
        """
        plan, _, report = self._planned(
            sql, "EXPLAIN", False, optimize, udf_batch_size, None
        )
        rendered = plan.explain()
        if report is not None:
            decisions = len(report.decisions)
            trace.count(self._usage, optimizer_decisions=decisions)
            if report.decisions:
                rendered += "\n" + report.render()
        return rendered

    def schema_sql(self) -> str:
        """All CREATE TABLE statements, in the BIRD prompt encoding."""
        return "\n\n".join(
            table.schema.to_create_sql()
            for table in self._tables.values()
        )

    # ------------------------------------------------------------------
    # statement handlers
    # ------------------------------------------------------------------

    def _execute_create(self, statement: ast.CreateTable) -> None:
        columns = [
            Column(
                definition.name,
                dbtypes.DataType.from_sql(definition.type_name),
                nullable=not (definition.not_null or definition.primary_key),
                primary_key=definition.primary_key,
            )
            for definition in statement.columns
        ]
        foreign_keys = [
            ForeignKey(fk.column, fk.parent_table, fk.parent_column)
            for fk in statement.foreign_keys
        ]
        self.create_table(TableSchema(statement.name, columns, foreign_keys))

    def _execute_insert(self, statement: ast.Insert) -> int:
        table = self.table(statement.table)
        self._checked(
            statement, [value for row in statement.rows for value in row]
        )
        compiler = ExpressionCompiler(RowLayout([]), self.functions)
        # Every value is compiled, then evaluated, before a row is
        # written; the table writes all the rows or none.
        rows = [list(map(compiler.compile, row)) for row in statement.rows]
        values = [[evaluate(()) for evaluate in row] for row in rows]
        if statement.columns:
            values = [dict(zip(statement.columns, row)) for row in values]
        return table.insert_many(values)

    def _checked(
        self,
        statement: ast.Statement,
        values: list[ast.Expression],
        source: ast.TableSource | None = None,
    ) -> Resolved:
        """A write's ``values`` and WHERE, resolved as the one-table
        SELECT they bind as; raises its first failure, then an
        aggregate among the values."""
        items = tuple(map(ast.SelectItem, values))
        where = getattr(statement, "where", None)
        resolved = resolve(self, ast.Select(items, source, where))
        for failure in resolved.failures.values():
            failure.throw()
        for call in resolved.aggregates:
            misplaced(call, f"in {type(statement).__name__.upper()}").throw()
        return resolved

    def _target_rows(
        self, statement: ast.Update | ast.Delete
    ) -> tuple[Table, list[Kernel], list[int]]:
        """The table an UPDATE/DELETE names, the kernels of its assigned
        values, and the ascending ids of the rows its WHERE selects (all
        of them without one).  Every expression is compiled, and so
        checked, before a row is read."""
        table = self.table(statement.table)
        # The WHERE and the assigned values bind as a one-table SELECT.
        values = [value for _, value in getattr(statement, "assignments", ())]
        resolved = self._checked(
            statement, values, ast.TableSource(statement.table)
        )
        compiler = ExpressionCompiler(
            table.layout(statement.table), self.functions
        )
        kernels = [compiler.kernel(value) for value in values]
        planner = Planner(self, resolved)
        candidates = planner.candidate_row_ids(
            table, statement.table, statement.where
        )
        if statement.where is None:
            return table, kernels, list(candidates)
        predicate = compiler.kernel(statement.where)
        rows = table.rows

        def selected(row_ids: list[int]) -> Iterable[int]:
            return compress(row_ids, predicate([rows[i] for i in row_ids]))

        one_by_one = reads_row_by_row(predicate)
        selected_ids = run_morsels(selected, candidates, one_by_one)
        return table, kernels, list(selected_ids)

    def _execute_update(self, statement: ast.Update) -> int:
        schema = self.table(statement.table).schema
        positions = [
            schema.column_index(column) for column, _ in statement.assignments
        ]
        table, kernels, row_ids = self._target_rows(statement)
        rows = table.rows

        def changed(row_ids: list[int]) -> list[tuple[int, list]]:
            targets = [rows[row_id] for row_id in row_ids]
            changes = [(row_id, list(rows[row_id])) for row_id in row_ids]
            for position, kernel in zip(positions, kernels):
                for (_, mutable), value in zip(changes, kernel(targets)):
                    mutable[position] = value
            return changes

        one_by_one = reads_row_by_row(*kernels)
        changes = run_morsels(changed, row_ids, one_by_one)
        return table.update_rows(list(changes))

    def _execute_delete(self, statement: ast.Delete) -> int:
        table, _, row_ids = self._target_rows(statement)
        return table.delete_rows(row_ids)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names})"
