"""Benchmark query specification types."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.bench.oracle import OracleContext
from repro.bench.pipelines import PipelineContext
from repro.data.base import Dataset
from repro.errors import BenchmarkError

QUERY_TYPES = ("match", "comparison", "ranking", "aggregation")
CAPABILITIES = ("knowledge", "reasoning")


@dataclass
class QuerySpec:
    """One benchmark query.

    ``pipeline`` is the query's one program, mirroring the paper's
    Appendix C, over a context that offers frames and semantic verbs
    (:mod:`repro.bench.pipelines`).  Hand-written TAG runs it under the
    LM binding, :class:`PipelineContext`.  ``gold`` runs it under the
    oracle binding, :class:`~repro.bench.oracle.OracleContext`
    (canonical knowledge + noise-free scorers, standing in for the
    paper's human labels); it is ``None`` for aggregation queries,
    whose quality the paper analyses qualitatively.

    An aggregation program ends in the ``aggregate`` verb, which
    summarises rows under the LM binding and returns them under the
    oracle binding.  Its quantitative-quality oracles (the "future
    work" the paper defers, see :mod:`repro.bench.agg_quality`) are
    read off those oracle rows: ``agg_entities`` lists what a complete
    answer must mention; ``agg_source`` returns the rows whose values
    ground the answer's numeric claims (see
    :mod:`repro.bench.suites.aggregation`).
    """

    qid: str
    domain: str
    query_type: str
    capability: str
    question: str
    pipeline: Callable[[PipelineContext | OracleContext], Any]
    agg_entities: Callable[[Dataset], list[str]] | None = None
    agg_source: Callable[[Dataset], list[dict]] | None = None

    def __post_init__(self) -> None:
        if self.query_type not in QUERY_TYPES:
            raise BenchmarkError(
                f"{self.qid}: bad query type {self.query_type!r}"
            )
        if self.capability not in CAPABILITIES:
            raise BenchmarkError(
                f"{self.qid}: bad capability {self.capability!r}"
            )
        if self.query_type == "aggregation" and (
            self.agg_entities is None or self.agg_source is None
        ):
            raise BenchmarkError(
                f"{self.qid}: aggregation queries need "
                "agg_entities and agg_source oracles"
            )

    @property
    def gold(self) -> Callable[[Dataset], list[Any]] | None:
        """The labeled answer: the program under the oracle binding."""
        if self.query_type == "aggregation":
            return None
        return lambda dataset: self.pipeline(OracleContext(dataset))
