"""Dataset container and loader registry."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.db import Database, Table
from repro.errors import BenchmarkError
from repro.frame import DataFrame


@dataclass
class Dataset:
    """One benchmark domain: a relational DB plus dataframe views.

    The hand-written TAG pipelines (like the paper's Appendix C, which
    reads the BIRD tables as pandas CSVs) work on :attr:`frames`; every
    SQL-based method works on :attr:`db`.  Both views hold identical
    data by construction.
    """

    name: str
    db: Database
    description: str
    frames: dict[str, DataFrame] = field(default_factory=dict)
    #: Table name -> ((table, its version, sample_rows), rendered block):
    #: what :meth:`prompt_schema` last rendered.
    _blocks: dict[str, tuple[tuple[Table, int, int], str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def frame(self, table: str) -> DataFrame:
        try:
            return self.frames[table]
        except KeyError as exc:
            raise BenchmarkError(
                f"domain {self.name!r} has no table {table!r}"
            ) from exc

    def schema_sql(self) -> str:
        return self.db.schema_sql()

    def prompt_schema(self, sample_rows: int = 6) -> str:
        """Schema encoding for the Text2SQL prompt, BIRD style.

        CREATE TABLE statements followed by commented column notes and
        a few sample rows per table — the enriched encoding BIRD-format
        prompts carry, which is also what makes real query-synthesis
        prompts thousands of tokens long.

        A table's block is rendered again only after a write to that
        table (or when asked for another ``sample_rows``): the blocks
        are the same for every question over an unchanged database.
        """
        held = self._blocks
        fresh: dict[str, tuple[tuple[Table, int, int], str]] = {}
        for table_name in self.db.table_names:
            table = self.db.table(table_name)
            # The version is read before rendering, so a write that
            # lands mid-render leaves a block the next call redoes.
            key = (table, table.version, sample_rows)
            entry = held.get(table_name)
            if entry is None or entry[0] != key:
                entry = (key, _render_block(table_name, table, sample_rows))
            fresh[table_name] = entry
        # Rebound, never mutated: concurrent callers each publish a
        # complete dict, and a dropped table's rows are let go.
        self._blocks = fresh
        return "\n\n".join(block for _, block in fresh.values())


def _render_block(table_name: str, table: Table, sample_rows: int) -> str:
    lines = [table.schema.to_create_sql()]
    for position, column in enumerate(table.schema.columns):
        described = _describe_identifier(column.name)
        examples: list[str] = []
        for row in table.rows:
            value = str(row[position])
            if value not in examples:
                examples.append(value)
            if len(examples) == 3:
                break
        rendered_examples = ", ".join(examples)
        lines.append(
            f"-- {table_name}.{column.name} "
            f"({column.dtype.value}): {described}; value examples: "
            f"{rendered_examples}"
        )
    names = " | ".join(table.schema.column_names)
    lines.append(f"-- Sample rows ({table_name}): {names}")
    for row in table.rows[:sample_rows]:
        rendered = " | ".join(str(value) for value in row)
        lines.append(f"--   {rendered}")
    return "\n".join(lines)


_CAMEL_BOUNDARY_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _describe_identifier(name: str) -> str:
    """Readable phrase for a column name (GSoffered -> 'g s offered')."""
    spaced = _CAMEL_BOUNDARY_RE.sub(" ", name)
    spaced = spaced.replace("_", " ")
    return spaced.lower()


def frames_from_db(db: Database) -> dict[str, DataFrame]:
    """Materialise every table of ``db`` as a DataFrame view."""
    return {
        name: DataFrame.from_rows(
            db.table(name).schema.column_names, db.table(name).rows
        )
        for name in db.table_names
    }


def load_domain(name: str, seed: int = 0) -> Dataset:
    """Build one domain by name (see :data:`repro.data.DOMAINS`)."""
    from repro.data import (
        california_schools,
        codebase_community,
        debit_card_specializing,
        european_football_2,
        formula_1,
    )

    builders = {
        "california_schools": california_schools.build,
        "codebase_community": codebase_community.build,
        "formula_1": formula_1.build,
        "european_football_2": european_football_2.build,
        "debit_card_specializing": debit_card_specializing.build,
    }
    try:
        builder = builders[name]
    except KeyError as exc:
        raise BenchmarkError(f"unknown domain {name!r}") from exc
    return builder(seed=seed)


def load_all(seed: int = 0) -> dict[str, Dataset]:
    """Build every benchmark domain keyed by name."""
    from repro.data import DOMAINS

    return {name: load_domain(name, seed=seed) for name in DOMAINS}
