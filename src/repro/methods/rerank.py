"""Retrieval + LM Rank: RAG with an LM reranking pass.

Retrieves a wider candidate pool, asks the LM to score each candidate's
relevance in [0, 1] (as in the STaRK setup the paper cites), keeps the
top ``k``, then generates — better rows in context, same structural gap
on exact computation.
"""

from __future__ import annotations

from typing import Any

from repro.bench.queries import QuerySpec
from repro.core import SingleCallGenerator, shared_corpus
from repro.data.base import Dataset
from repro.embed import HashingEmbedder, serialize_row
from repro.lm import SimulatedLM
from repro.methods.base import Method, VECTOR_SEARCH_COST_S
from repro.semantic import SemanticEngine


class RetrievalRerankMethod(Method):
    name = "Retrieval + LM Rank"

    def __init__(
        self,
        lm: SimulatedLM,
        k: int = 10,
        candidates: int = 30,
        embedder: HashingEmbedder | None = None,
        corpora: dict | None = None,
    ) -> None:
        super().__init__(lm)
        self.k = k
        self.candidates = candidates
        self.embedder = embedder or HashingEmbedder()
        self.engine = SemanticEngine(lm, batch_size=16)
        #: See :class:`~repro.methods.rag.RAGMethod`.
        self.corpora = {} if corpora is None else corpora

    def prepare(self, dataset: Dataset) -> None:
        shared_corpus(self.corpora, dataset, self.embedder).size

    def _answer(self, spec: QuerySpec, dataset: Dataset) -> Any:
        corpus = shared_corpus(self.corpora, dataset, self.embedder)
        retrieved = corpus.search(
            self.embedder.embed(spec.question), self.candidates
        )
        self.extra_cost(VECTOR_SEARCH_COST_S)
        documents = [serialize_row(record) for record in retrieved]
        scores = self.engine.relevance(spec.question, documents)
        reranked = [
            record
            for _, record in sorted(
                zip(scores, retrieved),
                key=lambda pair: pair[0],
                reverse=True,
            )
        ]
        top = reranked[: self.k]
        generator = SingleCallGenerator(
            self.lm, aggregation=spec.query_type == "aggregation"
        )
        return generator.generate(spec.question, top)
