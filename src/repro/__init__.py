"""repro: a from-scratch reproduction of Table-Augmented Generation (TAG).

Reproduces "Text2SQL is Not Enough: Unifying AI and Databases with TAG"
(CIDR 2025) as a self-contained, offline, deterministic Python library:
the TAG model (:mod:`repro.core`), every substrate its evaluation needs
(relational SQL engine, simulated LM, embeddings, vector indexes,
semantic operators, synthetic BIRD-style datasets), the five evaluated
methods (:mod:`repro.methods`), and the 80-query TAG-Bench with the
Table 1 / Table 2 / Figure 2 harness (:mod:`repro.bench`).

Quickstart::

    from repro import run_benchmark, format_table1
    report = run_benchmark(seed=0)
    print(format_table1(report))
"""

from repro.bench import (
    build_suite,
    format_table1,
    format_table2,
    run_benchmark,
)
from repro.core import TAGPipeline, TAGResult
from repro.db import Database
from repro.errors import ReproError
from repro.frame import DataFrame
from repro.knowledge import KnowledgeBase
from repro.lm import LMConfig, SimulatedLM
from repro.obs import Tracer
from repro.semantic import SemanticOperators
from repro.serve import BatchingLM, TagServer

__version__ = "1.0.0"

__all__ = [
    "BatchingLM",
    "DataFrame",
    "Database",
    "KnowledgeBase",
    "LMConfig",
    "ReproError",
    "SemanticOperators",
    "SimulatedLM",
    "TAGPipeline",
    "TAGResult",
    "TagServer",
    "Tracer",
    "__version__",
    "build_suite",
    "format_table1",
    "format_table2",
    "run_benchmark",
]
