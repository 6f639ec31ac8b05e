"""E11 — ablation: sem_topk strategy (pairwise quickselect vs scoring).

LOTUS implements several top-k algorithms; ours offers pairwise
quickselect (the default, used by the benchmark pipelines) and a
single-batch absolute-scoring sort.  This ablation compares their LM
cost and their exact-match agreement with the gold ordering over the
benchmark's reasoning ranking queries.
"""

from repro.bench.evaluate import exact_match
from repro.bench.pipelines import top_posts
from repro.lm import LMConfig, SimulatedLM
from repro.semantic import SemanticOperators
from repro.text.technicality import technicality_score

from benchmarks.conftest import write_artifact


def _run(method: str, datasets):
    lm = SimulatedLM(LMConfig(seed=0))
    ops = SemanticOperators(lm, batch_size=32)
    posts = datasets["codebase_community"].frame("posts")
    correct = 0
    trials = 0
    for pool_size in (5, 8, 10, 12, 15):
        pool = top_posts(posts, pool_size)
        got = ops.sem_topk(
            pool, "Which {Title} is most technical?", 3, method=method
        )["Title"].tolist()
        gold = [
            title
            for _, title in sorted(
                (
                    (technicality_score(str(t)), t)
                    for t in pool["Title"].tolist()
                ),
                key=lambda pair: pair[0],
                reverse=True,
            )
        ][:3]
        trials += 1
        correct += exact_match(got, gold, ordered=True)
    return correct / trials, lm.usage.calls, lm.usage.simulated_seconds


def test_topk_strategies(benchmark, datasets):
    quick = benchmark.pedantic(
        lambda: _run("quickselect", datasets), rounds=1, iterations=1
    )
    score = _run("score", datasets)

    write_artifact(
        "ablation_topk_strategy.txt",
        "sem_topk strategy (top-3 technicality over growing pools):\n"
        f"  quickselect: EM={quick[0]:.2f} calls={quick[1]:3d} "
        f"ET={quick[2]:.2f}s\n"
        f"  score:       EM={score[0]:.2f} calls={score[1]:3d} "
        f"ET={score[2]:.2f}s",
    )
    # Scoring costs exactly one call per row; quickselect costs more
    # comparisons but never fewer than n-1 for the first partition.
    assert score[1] == 5 + 8 + 10 + 12 + 15
    assert quick[1] >= score[1] - 5
    assert quick[0] >= 0.2 and score[0] >= 0.2
