"""Query-execution (exec) step implementations."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.base import Dataset
from repro.db import Database
from repro.embed import serialize_row
from repro.obs import trace
from repro.obs.explain import emit_operator_spans
from repro.vector.flat import FlatIndex


class SQLExecutor:
    """exec over the relational engine: SQL text -> list of records."""

    def __init__(
        self,
        db: Database,
        max_rows: int | None = None,
        analyze: bool = False,
        udf_batch_size: "int | str | None" = "auto",
        optimize: bool = True,
    ) -> None:
        self.db = db
        self.max_rows = max_rows
        self.analyze = analyze
        #: Batching mode for LM UDFs in exec SQL: ``"auto"`` (default)
        #: lets the cost-based optimizer choose, ``None`` pins per-row,
        #: an int pins that morsel size (see ``Database.execute``);
        #: results are identical, only the LM call pattern changes.
        self.udf_batch_size = udf_batch_size
        #: ``optimize=False`` disables the optimizer end to end (the
        #: ablation / escape hatch); ``"auto"`` then degrades to
        #: per-row execution.
        self.optimize = optimize

    def execute(self, query: str) -> list[dict[str, Any]]:
        # max_rows is enforced by the engine so truncation is metered
        # (Usage.rows_truncated) and noted in EXPLAIN ANALYZE output
        # instead of silently dropping rows here.
        if trace.active():
            # Under an active trace, run through the EXPLAIN ANALYZE
            # instrumentation and mirror the plan as operator spans;
            # row counts and virtual costs are pure functions of the
            # query and data, so the trace stays deterministic.
            analyzed = self.db.explain_analyze(
                query,
                optimize=self.optimize,
                analyze=self.analyze,
                udf_batch_size=self.udf_batch_size,
                max_rows=self.max_rows,
            )
            emit_operator_spans(analyzed.stats)
            result = analyzed.result
        else:
            result = self.db.execute(
                query,
                optimize=self.optimize,
                analyze=self.analyze,
                udf_batch_size=self.udf_batch_size,
                max_rows=self.max_rows,
            )
        return [
            dict(zip(result.columns, row)) for row in result.rows
        ]


class RowCorpus:
    """Every row of a dataset as a record, embedded and indexed once.

    Rows are serialized "- col: val", as in the paper's RAG baseline.
    The index is built on first use and is a function of (dataset,
    embedder) alone, so every retrieval method over the dataset shares
    one corpus; how many rows a caller wants is an argument of
    :meth:`search`, not state.
    """

    def __init__(self, dataset: Dataset, embedder) -> None:
        self.dataset = dataset
        self.embedder = embedder
        self._built: tuple[list[dict[str, Any]], FlatIndex] | None = None

    def _records_and_index(self) -> tuple[list[dict[str, Any]], FlatIndex]:
        built = self._built
        if built is None:
            records: list[dict[str, Any]] = []
            for table_name in self.dataset.db.table_names:
                table = self.dataset.db.table(table_name)
                names = table.schema.column_names
                records.extend(dict(zip(names, row)) for row in table.rows)
            index = FlatIndex(self.embedder.dimensions)
            index.add(
                self.embedder.embed_batch(
                    [serialize_row(record) for record in records]
                )
            )
            # Published whole, after the build: a concurrent first use
            # at worst builds the same pair twice.
            self._built = built = (records, index)
        return built

    @property
    def size(self) -> int:
        """Rows in the corpus (builds it)."""
        return len(self._records_and_index()[0])

    def search(self, query: np.ndarray, k: int) -> list[dict[str, Any]]:
        records, index = self._records_and_index()
        indices, _scores = index.search(query, k)
        return [records[int(position)] for position in indices]


def shared_corpus(
    corpora: dict[tuple[str, Any], RowCorpus], dataset: Dataset, embedder
) -> RowCorpus:
    """The corpus of (dataset, embedder) in ``corpora``, added on first
    ask: methods handed one map embed each dataset once between them."""
    key = (dataset.name, embedder)
    corpus = corpora.get(key)
    if corpus is None:
        corpus = corpora.setdefault(key, RowCorpus(dataset, embedder))
    return corpus


class VectorSearchExecutor:
    """exec over a vector store: query embedding -> top-k row records."""

    def __init__(
        self,
        dataset: Dataset,
        embedder,
        k: int = 10,
        corpus: RowCorpus | None = None,
    ) -> None:
        self.corpus = (
            RowCorpus(dataset, embedder) if corpus is None else corpus
        )
        self.k = k

    def execute(self, query: np.ndarray) -> list[dict[str, Any]]:
        return self.corpus.search(query, self.k)
