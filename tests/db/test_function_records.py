"""Registering a name again replaces everything the old registration held.

A name's registration is one record: the scalar form, whether it is
expensive, its batch form, its cascade tier and its signature.  After
a second ``register_udf`` of the same name no statement may run any
part of the first one, nor read a value the first one computed: not
the batched path's batch form, not the cascade tier, not the UDF memo
cache, at any ``udf_batch_size`` and shard count.  The per-row path
(``udf_batch_size=None``) is the oracle every other path must equal.
"""

from __future__ import annotations

import pytest

from repro.db import Column, Database, DataType, TableSchema

ROWS = [(f"w{index % 3}", index) for index in range(8)]
SQL = "SELECT n, J(s) AS j FROM t ORDER BY n"
#: Every path the batched executor has: morsels of 4 and the
#: optimizer's choice, each unsharded and over one and two hash shards.
PATHS = [(batch, shards) for batch in (4, "auto") for shards in (0, 1, 2)]


def old(value):
    return f"old:{value}"


def old_batch(tuples):
    return [f"old:{value}" for (value,) in tuples]


def old_tier(value):
    return f"old:{value}"


def new(value):
    return f"new:{value}"


NEW_ROWS = [(n, f"new:{s}") for s, n in ROWS]


def database(shards: int) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t", [Column("s", DataType.TEXT), Column("n", DataType.INTEGER)]
        )
    )
    db.insert("t", ROWS)
    if shards:
        db.set_partitioning("t", "n", shards=shards)
        db.configure_sharding(workers=2)
    return db


@pytest.mark.parametrize("batch,shards", PATHS)
@pytest.mark.parametrize(
    "first",
    [
        {"expensive": True, "batch": old_batch},
        {"expensive": True, "cheap": old_tier},
        {"expensive": True, "batch": old_batch, "cheap": old_tier},
    ],
    ids=["batch", "cheap", "batch+cheap"],
)
def test_a_second_registration_keeps_nothing_of_the_first(
    first, batch, shards
):
    db = database(shards)
    db.register_udf("J", old, **first)
    db.register_udf("J", new)
    assert db.execute(SQL, udf_batch_size=None).rows == NEW_ROWS
    assert db.execute(SQL, udf_batch_size=batch).rows == NEW_ROWS
    assert db.functions.is_expensive("J") is False


@pytest.mark.parametrize("batch,shards", PATHS)
@pytest.mark.parametrize("with_batch", [False, True])
def test_the_memo_cache_serves_no_value_of_a_replaced_function(
    batch, shards, with_batch
):
    db = database(shards)
    db.register_udf(
        "J", old, expensive=True, batch=old_batch if with_batch else None
    )
    assert db.execute(SQL, udf_batch_size=4).rows == [
        (n, f"old:{s}") for s, n in ROWS
    ]
    db.register_udf("J", new, expensive=True)
    assert db.execute(SQL, udf_batch_size=None).rows == NEW_ROWS
    assert db.execute(SQL, udf_batch_size=batch).rows == NEW_ROWS


def test_another_name_registered_leaves_the_memo_cache_warm():
    db = database(0)
    calls: list[str] = []

    def counting(value):
        calls.append(value)
        return new(value)

    db.register_udf("J", counting, expensive=True)
    assert db.execute(SQL, udf_batch_size=4).rows == NEW_ROWS
    assert len(calls) == 3
    db.register_udf("K", old, expensive=True)
    assert db.execute(SQL, udf_batch_size=4).rows == NEW_ROWS
    assert len(calls) == 3
