"""TAG-Bench: the paper's 80-query benchmark, rebuilt end to end.

80 natural-language queries over five BIRD-style domains — 40 requiring
world *knowledge*, 40 requiring semantic *reasoning*; 20 each of the
four BIRD query types (match-based, comparison, ranking, aggregation) —
with programmatic gold answers, per-query hand-written TAG pipelines,
and a runner that scores all five methods on exact match and execution
time, regenerating the paper's Table 1, Table 2, and Figure 2.
"""

from repro.bench.evaluate import exact_match, normalize_answer
from repro.bench.pipelines import PipelineContext
from repro.bench.queries import QuerySpec
from repro.bench.report import (
    format_table1,
    format_table2,
    table1_rows,
    table2_rows,
)
from repro.bench.runner import BenchmarkReport, QueryRecord, run_benchmark
from repro.bench.suite import build_suite

__all__ = [
    "BenchmarkReport",
    "PipelineContext",
    "QueryRecord",
    "QuerySpec",
    "build_suite",
    "exact_match",
    "format_table1",
    "format_table2",
    "normalize_answer",
    "run_benchmark",
    "table1_rows",
    "table2_rows",
]
