"""The five evaluated methods from the paper's §4.2.

Every method conforms to :class:`Method`: given a benchmark query and a
dataset, produce an answer plus a (simulated) execution time.  The
methods are Text2SQL, RAG, Retrieval + LM Rank, Text2SQL + LM, and
Hand-written TAG.
"""

from repro.embed import HashingEmbedder
from repro.methods.base import Method, MethodResult
from repro.methods.handwritten import HandwrittenTAGMethod
from repro.methods.rag import RAGMethod
from repro.methods.rerank import RetrievalRerankMethod
from repro.methods.text2sql import Text2SQLMethod
from repro.methods.text2sql_lm import Text2SQLLMMethod

__all__ = [
    "HandwrittenTAGMethod",
    "Method",
    "MethodResult",
    "RAGMethod",
    "RetrievalRerankMethod",
    "Text2SQLLMMethod",
    "Text2SQLMethod",
    "default_methods",
]


def default_methods(lm_factory) -> list[Method]:
    """The paper's five methods, each with its own LM instance.

    ``lm_factory`` is called once per method so usage accounting (and
    therefore ET) is independent across methods.  The two retrieval
    methods share one embedder and one corpus map, so each domain's
    rows are embedded once.
    """
    embedder = HashingEmbedder()
    corpora: dict = {}
    return [
        Text2SQLMethod(lm_factory()),
        RAGMethod(lm_factory(), embedder=embedder, corpora=corpora),
        RetrievalRerankMethod(
            lm_factory(), embedder=embedder, corpora=corpora
        ),
        Text2SQLLMMethod(lm_factory()),
        HandwrittenTAGMethod(lm_factory()),
    ]
