"""Hand-written TAG: expert pipelines over semantic operators.

Each benchmark query ships a pipeline written against the dataset's
frames and the LOTUS-style operators (paper §4.2 / Appendix C): exact
computation stays in dataframe/relational operations, semantic steps go
through batched LM judgments.
"""

from __future__ import annotations

from typing import Any

from repro.bench.pipelines import PipelineContext
from repro.bench.queries import QuerySpec
from repro.data.base import Dataset
from repro.lm import SimulatedLM
from repro.methods.base import Method
from repro.semantic import SemanticOperators


class HandwrittenTAGMethod(Method):
    name = "Hand-written TAG"

    def __init__(self, lm: SimulatedLM, batch_size: int = 32) -> None:
        super().__init__(lm)
        self.ops = SemanticOperators(lm, batch_size=batch_size)

    def _answer(self, spec: QuerySpec, dataset: Dataset) -> Any:
        context = PipelineContext(dataset=dataset, ops=self.ops, lm=self.lm)
        return spec.pipeline(context)
