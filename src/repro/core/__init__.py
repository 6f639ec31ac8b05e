"""The TAG model: query synthesis, query execution, answer generation.

Implements the paper's three-equation model (§2)::

    syn(R)    -> Q      (query synthesis)
    exec(Q)   -> T      (query execution)
    gen(R, T) -> A      (answer generation)

A :class:`TAGPipeline` composes one implementation of each step.  The
library ships interchangeable step implementations, so every baseline
in the paper's evaluation is a TAG special case:

- Text2SQL        = LMQuerySynthesizer + SQLExecutor + NoGenerator
- RAG             = EmbeddingSynthesizer + VectorSearchExecutor +
  SingleCallGenerator
- Text2SQL + LM   = LMQuerySynthesizer(retrieval mode) + SQLExecutor +
  SingleCallGenerator
- hand-written TAG = expert pipelines over semantic operators
  (see :mod:`repro.methods.handwritten`)
"""

from repro.core.execution import (
    RowCorpus,
    SQLExecutor,
    VectorSearchExecutor,
    shared_corpus,
)
from repro.core.generation import NoGenerator, SingleCallGenerator
from repro.core.multihop import ChainResult, Hop, TAGChain
from repro.core.repair import (
    RepairAttempt,
    RepairPolicy,
    SelfCorrectingPipeline,
    describe_failure,
    render_transcript,
)
from repro.core.synthesis import (
    EmbeddingSynthesizer,
    FixedQuerySynthesizer,
    LMQuerySynthesizer,
)
from repro.core.tag import (
    FallbackAttempt,
    FallbackPipeline,
    TAGError,
    TAGPipeline,
    TAGResult,
)

__all__ = [
    "ChainResult",
    "EmbeddingSynthesizer",
    "FallbackAttempt",
    "FallbackPipeline",
    "FixedQuerySynthesizer",
    "Hop",
    "LMQuerySynthesizer",
    "NoGenerator",
    "RepairAttempt",
    "RepairPolicy",
    "RowCorpus",
    "SQLExecutor",
    "SelfCorrectingPipeline",
    "SingleCallGenerator",
    "TAGChain",
    "TAGError",
    "TAGPipeline",
    "TAGResult",
    "VectorSearchExecutor",
    "describe_failure",
    "render_transcript",
    "shared_corpus",
]
