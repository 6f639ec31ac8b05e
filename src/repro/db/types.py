"""Column data types, value coercion, and SQL comparison semantics.

SQL values are represented with plain Python objects: ``int``, ``float``,
``str``, ``bool``, and ``None`` for SQL NULL.  This module centralises the
rules for coercing Python values into a column's declared type and for
comparing heterogeneous values the way the executor needs (NULLs sort
first, cross-type numeric comparison works, anything else falls back to a
stable type ordering).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import SchemaError

#: Python value type for a single cell.
SQLValue = int | float | str | bool | None


class DataType(enum.Enum):
    """Declared type of a table column."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    #: Accepts any value without coercion (used for computed columns).
    ANY = "ANY"

    @classmethod
    def from_sql(cls, name: str) -> "DataType":
        """Map a SQL type name (e.g. ``VARCHAR``, ``INT``) to a DataType."""
        upper = name.strip().upper()
        if "(" in upper:
            upper = upper[: upper.index("(")]
        mapping = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "TINYINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "NUMERIC": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "DATE": cls.TEXT,
            "DATETIME": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if upper not in mapping:
            raise SchemaError(f"unknown SQL type: {name!r}")
        return mapping[upper]


def coerce(value: Any, dtype: DataType) -> SQLValue:
    """Coerce ``value`` to ``dtype``, raising :class:`SchemaError` on failure.

    ``None`` passes through every type (nullability is enforced by the
    schema, not here).  Numeric strings coerce to numbers; numbers coerce
    to text via ``str``; anything convertible coerces losslessly where
    possible (``2.0`` becomes integer ``2``, but ``2.5`` does not).
    """
    if value is None or dtype is DataType.ANY:
        return value
    if dtype is DataType.INTEGER:
        return _coerce_integer(value)
    if dtype is DataType.REAL:
        return _coerce_real(value)
    if dtype is DataType.TEXT:
        return _coerce_text(value)
    if dtype is DataType.BOOLEAN:
        return _coerce_boolean(value)
    raise SchemaError(f"unhandled data type: {dtype}")  # pragma: no cover


def _coerce_integer(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise SchemaError(f"cannot store non-integral {value!r} as INTEGER")
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError as exc:
            raise SchemaError(f"cannot coerce {value!r} to INTEGER") from exc
    raise SchemaError(f"cannot coerce {type(value).__name__} to INTEGER")


def _coerce_real(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError as exc:
            raise SchemaError(f"cannot coerce {value!r} to REAL") from exc
    raise SchemaError(f"cannot coerce {type(value).__name__} to REAL")


def _coerce_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    raise SchemaError(f"cannot coerce {type(value).__name__} to TEXT")


def _coerce_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1", "yes"):
            return True
        if lowered in ("false", "f", "0", "no"):
            return False
        raise SchemaError(f"cannot coerce {value!r} to BOOLEAN")
    raise SchemaError(f"cannot coerce {type(value).__name__} to BOOLEAN")


def infer_type(value: SQLValue) -> DataType:
    """Infer the narrowest DataType describing a Python value."""
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.REAL
    if isinstance(value, str):
        return DataType.TEXT
    return DataType.ANY


#: Types whose values order among themselves as they are; across types
#: :func:`sort_key` ranks them.
_ORDERED_TYPES = (int, float, str)

#: The two families of those types whose members also order against
#: each other as they are: numbers (not ``bool``, which ``sort_key``
#: ranks with them but SUM rejects) and text.  A column of one family
#: is compared, folded or sorted with no per-value ``sort_key``.
NUMBERS = frozenset((int, float))
TEXT = frozenset((str,))


def sort_key(value: SQLValue) -> tuple[int, Any]:
    """Total-order key over heterogeneous SQL values.

    NULLs sort first (rank 0), then numerics (including booleans, which
    compare as 0/1), then text.  The executor uses this for ORDER BY,
    DISTINCT, and MIN/MAX so mixed-type columns never raise ``TypeError``.
    Numerics are kept as they are: Python compares ``int``, ``float``
    and ``bool`` with each other exactly, whereas a trip through
    ``float()`` would make integers above 2**53 tie, and two keys tie
    here only if they are the same key to a ``dict``, which the
    ordered table index relies on.
    """
    kind = type(value)
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if value is None:
        return (0, 0)
    if kind is bool:
        return (1, value)
    return (3, str(value))


def compare(left: SQLValue, right: SQLValue) -> int | None:
    """Three-valued SQL comparison: -1, 0, 1, or None if either is NULL.

    Two values of one ordered type are compared as they are, which is
    what their :func:`sort_key` tuples would answer (NaN included: it
    is neither ``<`` nor ``>`` anything, so it compares as 0); the keys
    are built only to order values of different types.
    """
    if left is None or right is None:
        return None
    kind = type(left)
    if kind is not type(right) or kind not in _ORDERED_TYPES:
        left, right = sort_key(left), sort_key(right)
    return (left > right) - (left < right)


def values_equal(left: SQLValue, right: SQLValue) -> bool | None:
    """SQL equality with NULL propagation (``NULL = x`` is NULL)."""
    result = compare(left, right)
    if result is None:
        return None
    return result == 0
