"""Text2SQL + LM: LM-generated retrieval SQL, then LM answer generation.

Unlike vanilla Text2SQL, the model's SQL is only asked to *retrieve
relevant rows*; the rows are then serialized into an answer-generation
prompt.  Over-selection routinely blows the context window on
match-based and comparison queries — the paper observes exactly these
"context length errors ... trying to feed in many rows to the model
after the executed SQL" — in which case the model falls back to
parametric knowledge with no rows (the Figure 2 behaviour).
"""

from __future__ import annotations

from typing import Any

from repro.bench.queries import QuerySpec
from repro.core import LMQuerySynthesizer, SQLExecutor, SingleCallGenerator
from repro.data.base import Dataset
from repro.errors import ContextLengthError
from repro.methods.base import Method, SQL_EXECUTION_COST_S


class Text2SQLLMMethod(Method):
    name = "Text2SQL + LM"

    def _answer(self, spec: QuerySpec, dataset: Dataset) -> Any:
        synthesizer = LMQuerySynthesizer(
            self.lm, dataset, retrieval_mode=True
        )
        sql = synthesizer.synthesize(spec.question)
        table = SQLExecutor(dataset.db, analyze=True).execute(sql)
        self.extra_cost(SQL_EXECUTION_COST_S)
        generator = SingleCallGenerator(
            self.lm, aggregation=spec.query_type == "aggregation"
        )
        try:
            return generator.generate(spec.question, table)
        except ContextLengthError:
            # The serialized rows do not fit; a production system
            # truncates to nothing useful and the model answers from
            # parametric knowledge alone.
            return generator.generate(spec.question, [])
