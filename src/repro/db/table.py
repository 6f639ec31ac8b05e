"""In-memory row storage with type enforcement and secondary indexes.

A secondary index on a column is two structures kept in step: hash
*buckets* (``value -> ascending row ids``) for equality probes, and one
list of the buckets' non-NULL keys sorted by
:func:`~repro.db.types.sort_key` for range scans.  Both hold the stored
(coerced) values themselves, so an index adds one list slot per distinct
key to what the buckets already cost.  Upkeep per written row is one
bisect in the row's bucket, plus one bisect and an O(distinct keys)
list shift in the key list when the write creates or empties a bucket.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.db.cost import ColumnStats
from repro.db.result import RowLayout
from repro.db.schema import TableSchema
from repro.db.shard import PartitionSpec
from repro.db.types import SQLValue, coerce, sort_key
from repro.errors import SchemaError

Row = tuple[SQLValue, ...]

#: Bindings whose layout a table remembers at once (see ``Table.layout``).
_MAX_LAYOUTS = 32


class Table:
    """Rows of one table, stored as tuples in insertion order.

    Writes go through :meth:`insert`, :meth:`update_rows` and
    :meth:`delete_rows`, which coerce each written value to the declared
    column type and enforce NOT NULL and primary-key uniqueness.  A
    write that fails validation raises before anything is mutated.
    An indexed column answers equality probes in O(1) from its hash
    buckets (point predicates, index-nested-loop joins) and range
    predicates in O(log keys + matches) from its ordered key list, and
    serves its own catalog statistics; every write keeps both halves
    equal to an index built from scratch.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[int, dict[SQLValue, list[int]]] = {}
        #: Column position -> that index's non-NULL keys, ascending by
        #: ``sort_key``; written only where ``_indexes`` is.
        self._index_keys: dict[int, list[SQLValue]] = {}
        self._pk_positions = [
            schema.column_index(column.name)
            for column in schema.primary_key_columns
        ]
        self._pk_seen: set[tuple[SQLValue, ...]] = set()
        self._partition: PartitionSpec | None = None
        self._partition_rows: list[list[int]] | None = None
        #: Column position -> statistics, filled lazily by
        #: :meth:`column_stats`.  Writes drop it by *rebinding* a fresh
        #: dict (never ``clear()``), and a reader publishes into the
        #: dict it captured before scanning: concurrent readers at worst
        #: store the same frozen value twice, and a scan overtaken by a
        #: write lands in the orphaned dict instead of going stale.
        self._stats: dict[int, ColumnStats] = {}
        #: Bumped by every write, exactly where ``_stats`` is dropped:
        #: anything derived from the rows is current while the number
        #: it was derived at still stands.
        self.version = 0
        #: Bumped when an index is built or the partitioning changes:
        #: a choice of access path stands while this number does.
        self.access_version = 0
        #: Binding (alias) -> layout of the rows under it, for
        #: :meth:`layout`; published without a lock, like ``_stats``.
        self._layouts: dict[str, RowLayout] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row given positionally or as a column->value mapping."""
        row = self._prepare_row(values)
        self._check_constraints(row)
        row_id = len(self._rows)
        self._rows.append(row)
        for position, index in self._indexes.items():
            _index(index, self._index_keys[position], row[position], row_id)
        self._partition_rows = None
        self._stats = {}
        self.version += 1

    def insert_many(
        self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Insert rows in bulk; returns the number inserted."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def _prepare_row(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        columns = self.schema.columns
        if isinstance(values, Mapping):
            unknown = [
                key for key in values if not self.schema.has_column(key)
            ]
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {unknown} for table "
                    f"{self.schema.name!r}"
                )
            ordered = [values.get(column.name) for column in columns]
        else:
            if len(values) != len(columns):
                raise SchemaError(
                    f"table {self.schema.name!r} expects {len(columns)} "
                    f"values, got {len(values)}"
                )
            ordered = list(values)
        return tuple(
            coerce(value, column.dtype)
            for value, column in zip(ordered, columns)
        )

    def _check_constraints(self, row: Row) -> None:
        self._check_not_null(row)
        if self._pk_positions:
            key = self._pk_key(row)
            if key in self._pk_seen:
                raise self._duplicate_key(key)
            self._pk_seen.add(key)

    def _check_not_null(self, row: Row) -> None:
        for position, column in enumerate(self.schema.columns):
            if row[position] is None and not column.nullable:
                raise SchemaError(
                    f"NULL in NOT NULL column {column.name!r} of "
                    f"{self.schema.name!r}"
                )

    def _check_row_ids(self, row_ids: Iterable[int]) -> None:
        for row_id in row_ids:
            if not 0 <= row_id < len(self._rows):
                raise SchemaError(
                    f"no row {row_id} in table {self.schema.name!r}"
                )

    def _pk_key(self, row: Row) -> tuple[SQLValue, ...]:
        return tuple(row[position] for position in self._pk_positions)

    def _duplicate_key(self, key: tuple[SQLValue, ...]) -> SchemaError:
        return SchemaError(
            f"duplicate primary key {key!r} in {self.schema.name!r}"
        )

    def update_rows(
        self, changes: Iterable[tuple[int, Sequence[Any]]]
    ) -> int:
        """Overwrite rows in place from ``(row_id, new_values)`` pairs.

        Validate-then-mutate: every new row is coerced, then checked
        for NOT NULL and for primary-key uniqueness against the key set
        the table will hold *after* the statement (keys the changed
        rows give up may be reused, by them or by each other).  Any
        failure raises :class:`SchemaError` with rows, key set, indexes
        and statistics untouched.  Only the changed rows are coerced
        and only their index entries move.  Returns the number of rows
        written.
        """
        staged = [
            (row_id, self._prepare_row(values))
            for row_id, values in changes
        ]
        if not staged:
            return 0
        rows = self._rows
        self._check_row_ids(row_id for row_id, _ in staged)
        keyed = bool(self._pk_positions)
        old_keys = (
            [self._pk_key(rows[row_id]) for row_id, _ in staged]
            if keyed
            else []
        )
        released = set(old_keys)
        claimed: set[tuple[SQLValue, ...]] = set()
        for _, row in staged:
            self._check_not_null(row)
            if keyed:
                key = self._pk_key(row)
                if key in claimed or (
                    key in self._pk_seen and key not in released
                ):
                    raise self._duplicate_key(key)
                claimed.add(key)

        # Every row passed: nothing below can fail.
        self._pk_seen.difference_update(old_keys)
        self._pk_seen.update(claimed)
        for row_id, row in staged:
            old = rows[row_id]
            rows[row_id] = row
            for position, index in self._indexes.items():
                if old[position] != row[position]:
                    keys = self._index_keys[position]
                    _unindex(index, keys, old[position], row_id)
                    _index(index, keys, row[position], row_id)
        self._partition_rows = None
        self._stats = {}
        self.version += 1
        return len(staged)

    def delete_rows(self, row_ids: Iterable[int]) -> int:
        """Delete the rows with these ids; later rows shift down.

        A delete cannot violate a constraint, so validation is only
        that every id names a row.  Deleting a suffix of the table pops
        rows and their index entries; any other shape filters the row
        list and rebuilds each index over the survivors — stored rows
        are already coerced and checked, so neither happens again.
        Returns the number of rows deleted.
        """
        doomed = sorted(set(row_ids))
        if not doomed:
            return 0
        rows = self._rows
        self._check_row_ids((doomed[0], doomed[-1]))
        if self._pk_positions:
            self._pk_seen.difference_update(
                self._pk_key(rows[row_id]) for row_id in doomed
            )
        if doomed[0] == len(rows) - len(doomed):
            for row_id in reversed(doomed):
                row = rows.pop()
                for position, index in self._indexes.items():
                    _unindex(
                        index,
                        self._index_keys[position],
                        row[position],
                        row_id,
                    )
        else:
            gone = set(doomed)
            self._rows = [
                row
                for row_id, row in enumerate(rows)
                if row_id not in gone
            ]
            for position in self._indexes:
                self._install_index(position)
        self._partition_rows = None
        self._stats = {}
        self.version += 1
        return len(doomed)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def set_partitioning(self, spec: PartitionSpec | None) -> None:
        """Declare (or clear) this table's shard partitioning.

        Partitioning is a *logical* annotation: rows stay in one list
        in insertion order and every unsharded code path is untouched.
        The sharded executor reads :meth:`partition_row_ids` to give
        each shard its global row ids — global, so the merged output
        order (and Sort's input-position tie-break above it) is
        independent of the shard count.
        """
        if spec is not None:
            self.schema.column_index(spec.column)  # raises on unknown
        self._partition = spec
        self._partition_rows = None
        self.access_version += 1

    @property
    def partition_spec(self) -> PartitionSpec | None:
        return self._partition

    def partition_row_ids(self) -> list[list[int]]:
        """Per-shard global row ids, each list ascending.

        Rebuilt lazily after any write; deterministic because the
        partitioner hashes canonical value encodings, never Python's
        seeded ``hash``.
        """
        spec = self._partition
        if spec is None:
            raise SchemaError(
                f"table {self.schema.name!r} is not partitioned"
            )
        if self._partition_rows is None:
            position = self.schema.column_index(spec.column)
            shards: list[list[int]] = [[] for _ in range(spec.shards)]
            for row_id, row in enumerate(self._rows):
                shards[spec.shard_of(row[position])].append(row_id)
            self._partition_rows = shards
        return self._partition_rows

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def rows(self) -> list[Row]:
        """All rows, in insertion order (a direct view; do not mutate)."""
        return self._rows

    def layout(self, binding: str) -> RowLayout:
        """Layout of this table's rows under a binding (alias).

        The schema is fixed for the table's life, so each binding's
        layout is derived once and shared by every plan node that reads
        the table under it (read-only by contract).  Racing first uses
        at worst store equal layouts twice; the memo starts over past a
        few dozen aliases rather than grow with the statements seen.
        """
        layouts = self._layouts
        layout = layouts.get(binding)
        if layout is None:
            layout = RowLayout(
                [(binding, name) for name in self.schema.column_names]
            )
            if len(layouts) >= _MAX_LAYOUTS:
                layouts = self._layouts = {}
            layouts[binding] = layout
        return layout

    def column_stats(self, name: str) -> ColumnStats:
        """Rows, distinct values and NULLs of one column.

        The analyzer's LM-cost bound (a deduplicating path calls a UDF
        at most once per distinct argument), the selectivity estimator
        and the optimizer's row estimates all read this.  Computed in
        one pass on first use and kept until the next write, so a
        statement's planning cost does not depend on the table's size;
        an indexed column is read off its index and never scanned.
        """
        position = self.schema.column_index(name)
        cache = self._stats
        stats = cache.get(position)
        if stats is None:
            index = self._indexes.get(position)
            if index is not None:
                stats = ColumnStats(
                    rows=len(self._rows),
                    distinct=len(index),
                    nulls=len(index.get(None, ())),
                )
            else:
                values = [row[position] for row in self._rows]
                stats = ColumnStats(
                    rows=len(values),
                    distinct=len(set(values)),
                    nulls=values.count(None),
                )
            cache[position] = stats
        return stats

    def to_dicts(self) -> list[dict[str, SQLValue]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(self, column_name: str) -> None:
        """Build (or rebuild) the index on ``column_name``."""
        self._install_index(self.schema.column_index(column_name))
        self.access_version += 1

    def _install_index(self, position: int) -> None:
        index = self._build_index(position)
        self._indexes[position] = index
        self._index_keys[position] = sorted(
            (key for key in index if key is not None), key=sort_key
        )

    def _build_index(self, position: int) -> dict[SQLValue, list[int]]:
        index: dict[SQLValue, list[int]] = defaultdict(list)
        for row_id, row in enumerate(self._rows):
            index[row[position]].append(row_id)
        return index

    def has_index(self, column_name: str) -> bool:
        return self.schema.column_index(column_name) in self._indexes

    def lookup_ids(self, column_name: str, value: Any) -> list[int]:
        """Ascending ids of the rows whose column equals ``value``
        (coerced to the column type); uses the index when present."""
        position = self.schema.column_index(column_name)
        coerced = coerce(value, self.schema.columns[position].dtype)
        index = self._indexes.get(position)
        if index is not None:
            return list(index.get(coerced, ()))
        return [
            row_id
            for row_id, row in enumerate(self._rows)
            if row[position] == coerced
        ]

    def lookup(self, column_name: str, value: Any) -> list[Row]:
        """Equality lookup; uses the index when present, else scans."""
        rows = self._rows
        return [
            rows[row_id] for row_id in self.lookup_ids(column_name, value)
        ]

    def index_buckets(
        self, column_name: str
    ) -> Mapping[SQLValue, Sequence[int]]:
        """The index's ``value -> ascending row ids`` buckets (a direct
        view; do not mutate).  A key is matched as a ``dict`` matches
        it, with no coercion: what a hash join on the column matches."""
        return self._indexes[self.schema.column_index(column_name)]

    def range_keys(
        self,
        column_name: str,
        low: SQLValue,
        high: SQLValue,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> list[SQLValue]:
        """The index's keys between two bounds, ascending.

        A bound of ``None`` is open.  Bounds are compared as written,
        through ``sort_key``: exactly the comparison a filter makes
        between the stored value and the literal, whatever their types.
        NULL is never a key here, as it never satisfies a comparison.
        """
        keys = self._index_keys[self.schema.column_index(column_name)]
        start, stop = 0, len(keys)
        if low is not None:
            cut = bisect_right if low_strict else bisect_left
            start = cut(keys, sort_key(low), key=sort_key)
        if high is not None:
            cut = bisect_left if high_strict else bisect_right
            stop = cut(keys, sort_key(high), key=sort_key)
        return keys[start:stop]

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, {len(self._rows)} rows)"


def _index(
    index: dict[SQLValue, list[int]],
    keys: list[SQLValue],
    value: SQLValue,
    row_id: int,
) -> None:
    """Add ``row_id`` to ``value``'s ascending bucket; a value new to
    the index also enters the ordered key list."""
    bucket = index[value]
    if not bucket and value is not None:
        insort(keys, value, key=sort_key)
    insort(bucket, row_id)


def _unindex(
    index: dict[SQLValue, list[int]],
    keys: list[SQLValue],
    value: SQLValue,
    row_id: int,
) -> None:
    """Drop ``row_id`` from ``value``'s ascending bucket; an emptied
    bucket goes, and its key with it, so the index equals one built
    from scratch."""
    bucket = index[value]
    del bucket[bisect_left(bucket, row_id)]
    if not bucket:
        del index[value]
        if value is not None:
            del keys[bisect_left(keys, sort_key(value), key=sort_key)]
