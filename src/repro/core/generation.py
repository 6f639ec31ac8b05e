"""Answer-generation (gen) step implementations."""

from __future__ import annotations

from typing import Any

from repro.lm import SimulatedLM
from repro.lm.prompts import answer_prompt


class NoGenerator:
    """gen that skips the LM: the executed table *is* the answer.

    This is vanilla Text2SQL, which "omits the final generation step
    and stops short after query execution" (§3).  The table is
    flattened into a value list for exact-match scoring.
    """

    def generate(
        self, request: str, table: list[dict[str, Any]]
    ) -> list[Any]:
        values: list[Any] = []
        for record in table:
            if len(record) == 1:
                values.append(next(iter(record.values())))
            else:
                values.append(tuple(record.values()))
        return values


class SingleCallGenerator:
    """gen with one LM call over the serialized table (the RAG pattern)."""

    def __init__(self, lm: SimulatedLM, aggregation: bool = False) -> None:
        self.lm = lm
        self.aggregation = aggregation

    def generate(
        self, request: str, table: list[dict[str, Any]]
    ) -> str:
        prompt = answer_prompt(
            request, table, aggregation=self.aggregation
        )
        return self.lm.complete(prompt).text
