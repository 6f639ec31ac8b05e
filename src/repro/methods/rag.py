"""The RAG baseline: row-level embedding retrieval + one LM call.

Rows of every table in the query's domain are serialized "- col: val",
embedded, and indexed; at query time the top ``k`` rows by similarity
are fed in context for answer generation (paper §4.2, k=10).
"""

from __future__ import annotations

from typing import Any

from repro.bench.queries import QuerySpec
from repro.core import (
    EmbeddingSynthesizer,
    RowCorpus,
    SingleCallGenerator,
    TAGPipeline,
    VectorSearchExecutor,
    shared_corpus,
)
from repro.data.base import Dataset
from repro.embed import HashingEmbedder
from repro.lm import SimulatedLM
from repro.methods.base import Method, VECTOR_SEARCH_COST_S


class RAGMethod(Method):
    name = "RAG"

    def __init__(
        self,
        lm: SimulatedLM,
        k: int = 10,
        embedder: HashingEmbedder | None = None,
        corpora: dict | None = None,
    ) -> None:
        super().__init__(lm)
        self.k = k
        self.embedder = embedder or HashingEmbedder()
        #: (domain, embedder) -> row corpus; methods given the same map
        #: and embedder share each domain's index.
        self.corpora = {} if corpora is None else corpora

    def executor(self, dataset: Dataset) -> RowCorpus:
        """What the exec step searches: the domain's row corpus.  Index
        build time is excluded from ET, as an offline indexing cost."""
        return shared_corpus(self.corpora, dataset, self.embedder)

    def prepare(self, dataset: Dataset) -> None:
        self.executor(dataset).size  # build the index

    def _answer(self, spec: QuerySpec, dataset: Dataset) -> Any:
        pipeline = TAGPipeline(
            EmbeddingSynthesizer(self.embedder),
            VectorSearchExecutor(
                dataset,
                self.embedder,
                k=self.k,
                corpus=self.executor(dataset),
            ),
            SingleCallGenerator(
                self.lm,
                aggregation=spec.query_type == "aggregation",
            ),
        )
        result = pipeline.run(spec.question)
        self.extra_cost(VECTOR_SEARCH_COST_S)
        if result.error is not None:
            raise result.error.to_exception()
        return result.answer
