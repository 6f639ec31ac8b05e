"""E12 — quantitative aggregation evaluation (the paper's future work).

The paper scores its 20 aggregation queries qualitatively and leaves
"quantitative analysis to future work" (§4.3).  This benchmark supplies
it: per-method mean *entity coverage* (completeness, Figure 2 made a
number) and *numeric faithfulness* (no hallucinated figures) over all
20 aggregation queries, using the per-query oracles on the specs.
"""

from repro.bench.agg_quality import mean_quality

from benchmarks.conftest import write_artifact

TAG = "Hand-written TAG"
GENERATIVE_METHODS = ["RAG", "Retrieval + LM Rank", "Text2SQL + LM", TAG]


def test_aggregation_quality(benchmark, full_report, suite, datasets):
    means = benchmark.pedantic(
        lambda: mean_quality(
            full_report.records, suite, datasets, GENERATIVE_METHODS
        ),
        rounds=1,
        iterations=1,
    )
    lines = [
        "Quantitative aggregation quality over all 20 aggregation "
        "queries:",
    ]
    for method, metrics in means.items():
        lines.append(
            f"  {method:20s} coverage={metrics['coverage']:.2f} "
            f"faithfulness={metrics['faithfulness']:.2f}"
        )
    write_artifact("aggregation_quality.txt", "\n".join(lines))

    # TAG's answers are both the most complete and grounded in the
    # actual rows — the quantitative version of the Figure 2 claim.
    for method in GENERATIVE_METHODS:
        if method == TAG:
            continue
        assert means[TAG]["coverage"] >= means[method]["coverage"]
    assert means[TAG]["coverage"] >= 0.5
    assert means[TAG]["faithfulness"] >= 0.9
    assert means[TAG]["coverage"] - means["RAG"]["coverage"] >= 0.3
