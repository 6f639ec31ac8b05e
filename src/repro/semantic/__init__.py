"""Semantic operators over dataframes (a LOTUS-style runtime).

The paper's hand-written TAG pipelines are LOTUS programs: relational
dataframe transforms composed with LM-backed *semantic operators*.
The pipelines use three — ``sem_filter``, ``sem_topk``, ``sem_agg`` —
and this package reimplements those operator semantics over
:class:`repro.frame.DataFrame`, executing every LM judgment through the
batched inference API of :class:`repro.lm.SimulatedLM` (which is where
hand-written TAG's low execution time comes from, §4.3).

Instructions use ``{Column}`` placeholders, exactly like the paper's
Appendix C pipelines::

    ops = SemanticOperators(lm)
    sv = ops.sem_filter(cities, "{City} is a city in the Silicon Valley region")
    top = ops.sem_topk(posts, "What {Title} is most technical?", k=5)
    text = ops.sem_agg(merged, "Summarize the comments", columns=["Text"])
"""

from repro.semantic.engine import SemanticEngine
from repro.semantic.operators import SemanticOperators

__all__ = ["SemanticEngine", "SemanticOperators"]
