"""E6 — ablation: RAG retrieval depth k.

The paper fixes k=10 retrieved rows.  This ablation sweeps k and shows
the structural result behind RAG's 0.00 accuracy: deeper retrieval
raises ET but cannot lift exact-match accuracy, because point lookups
plus in-context computation cannot replace exact computation over the
full table.
"""

import pytest

from repro.bench.runner import run_benchmark
from repro.embed import HashingEmbedder
from repro.lm import LMConfig, SimulatedLM
from repro.methods import RAGMethod

from benchmarks.conftest import write_artifact

KS = (1, 5, 10, 20, 50)


@pytest.fixture(scope="module")
def retrieval():
    """One embedder and corpus map for every depth: ``k`` is an argument
    of the search, so the rows are embedded once, not once per point."""
    return {"embedder": HashingEmbedder(), "corpora": {}}


def _rag_run(k: int, suite, datasets, retrieval):
    queries = [s for s in suite if s.query_type != "aggregation"]
    method = RAGMethod(SimulatedLM(LMConfig(seed=0)), k=k, **retrieval)
    report = run_benchmark(
        seed=0, methods=[method], queries=queries, datasets=datasets
    )
    return report.accuracy("RAG"), report.mean_et("RAG")


@pytest.mark.parametrize("k", (5, 10, 20))
def test_rag_k(benchmark, k, suite, datasets, retrieval):
    accuracy, et = benchmark.pedantic(
        lambda: _rag_run(k, suite, datasets, retrieval),
        rounds=1,
        iterations=1,
    )
    print(f"\nk={k}: accuracy={accuracy:.2f} ET={et:.2f}s")


def test_rag_depth_cannot_buy_accuracy(
    benchmark, suite, datasets, retrieval
):
    rows = benchmark.pedantic(
        lambda: {k: _rag_run(k, suite, datasets, retrieval) for k in KS},
        rounds=1,
        iterations=1,
    )
    lines = ["RAG accuracy / ET vs retrieval depth k:"]
    lines += [
        f"  k={k:3d}  EM={accuracy:.2f}  ET={et:6.2f}s"
        for k, (accuracy, et) in rows.items()
    ]
    write_artifact("ablation_retrieval_k.txt", "\n".join(lines))

    # Accuracy stays pinned near zero at every depth ...
    assert all(accuracy <= 0.10 for accuracy, _ in rows.values())
    # ... while cost grows with k.
    assert rows[50][1] > rows[5][1]
