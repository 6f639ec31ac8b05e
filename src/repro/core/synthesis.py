"""Query-synthesis (syn) step implementations."""

from __future__ import annotations

import re
from typing import Any

import numpy as np

from repro.data.base import Dataset
from repro.embed import HashingEmbedder
from repro.lm import SimulatedLM
from repro.lm.prompts import text2sql_prompt


class LMQuerySynthesizer:
    """syn via the LM in the BIRD Text2SQL prompt format.

    ``retrieval_mode=True`` converts the generated query into a broad
    row-retrieval query (``SELECT *``, no LIMIT) — the Text2SQL+LM
    baseline's synthesis, which asks the model for *relevant rows*
    rather than a direct answer.
    """

    def __init__(
        self,
        lm: SimulatedLM,
        dataset: Dataset,
        retrieval_mode: bool = False,
        external_knowledge: str | None = None,
    ) -> None:
        self.lm = lm
        self.dataset = dataset
        self.retrieval_mode = retrieval_mode
        self.external_knowledge = external_knowledge

    def synthesize(self, request: str) -> str:
        prompt = text2sql_prompt(
            self.dataset.prompt_schema(), request, self.external_knowledge
        )
        sql = self.lm.complete(prompt, max_tokens=256).text
        if self.retrieval_mode:
            sql = _broaden_to_retrieval(sql)
        return sql


def _broaden_to_retrieval(sql: str) -> str:
    """Rewrite an answer query into an over-selecting retrieval query."""
    broadened = re.sub(
        r"^SELECT .*? FROM ",
        "SELECT * FROM ",
        sql,
        count=1,
        flags=re.IGNORECASE | re.DOTALL,
    )
    broadened = re.sub(
        r"\s+LIMIT \d+(\s+OFFSET \d+)?\s*$",
        "",
        broadened,
        flags=re.IGNORECASE,
    )
    return broadened


class FixedQuerySynthesizer:
    """syn that returns an expert-written query verbatim.

    The hand-written TAG baseline "leverages expert knowledge of the
    table schema rather than automatic query synthesis" (§4.2).
    """

    def __init__(self, query: Any) -> None:
        self.query = query

    def synthesize(self, request: str) -> Any:
        return self.query


class EmbeddingSynthesizer:
    """syn for vector-store execution: embed the request (RAG)."""

    def __init__(self, embedder: HashingEmbedder) -> None:
        self.embedder = embedder

    def synthesize(self, request: str) -> np.ndarray:
        return self.embedder.embed(request)
