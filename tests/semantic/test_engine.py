"""Unit tests for the batching engine and topk strategies."""

import pytest

from repro.errors import SemanticOperatorError
from repro.frame import DataFrame
from repro.lm import LMConfig, SimulatedLM
from repro.semantic import SemanticEngine, SemanticOperators
from repro.semantic.engine import _parse_float


class TestEngine:
    def test_batch_size_validated(self, lm):
        with pytest.raises(ValueError):
            SemanticEngine(lm, batch_size=0)

    @pytest.mark.parametrize("batch_size", [2.5, True, False, None, "4"])
    def test_batch_size_must_be_a_non_bool_int(self, lm, batch_size):
        with pytest.raises(ValueError, match="got"):
            SemanticEngine(lm, batch_size=batch_size)

    def test_judge_batches_respect_batch_size(self):
        lm = SimulatedLM(LMConfig(seed=0))
        engine = SemanticEngine(lm, batch_size=3)
        conditions = [
            f"{city} is a city in the Bay Area region"
            for city in (
                "Oakland", "Fresno", "Napa", "San Jose", "Anaheim",
                "Berkeley", "Irvine",
            )
        ]
        verdicts = engine.judge(conditions)
        assert len(verdicts) == 7
        assert lm.usage.batches == 3  # ceil(7 / 3)

    def test_score_parses_floats(self, lm):
        engine = SemanticEngine(lm)
        scores = engine.score("most technical", ["SGD", "picnic"])
        assert all(isinstance(score, float) for score in scores)

    def test_compare_returns_bools(self, lm):
        engine = SemanticEngine(lm)
        outcomes = engine.compare(
            "most technical",
            [("Bayesian covariance eigenvalues", "lunch plans")],
        )
        assert outcomes == [True]

    def test_parse_float_fallback(self):
        assert _parse_float("0.5") == 0.5
        assert _parse_float("not a number") == 0.0

    def test_summarize_batch_matches_individual(self, lm):
        engine = SemanticEngine(lm)
        chunks = [["a: 1", "a: 2"], ["a: 3", "a: 4"]]
        batched = engine.summarize_batch("Summarize", chunks)
        individual = [
            engine.summarize("Summarize", chunk) for chunk in chunks
        ]
        assert batched == individual


class TestTopKStrategies:
    @pytest.fixture()
    def titles(self) -> DataFrame:
        return DataFrame(
            {
                "Title": [
                    "Weekend reading suggestions",
                    "Eigenvalue shrinkage in covariance estimation",
                    "Favorite statistics jokes",
                    "Backpropagation through softmax layers",
                    "Coffee anecdotes welcome",
                ]
            }
        )

    def test_score_strategy_single_batch(self, titles):
        lm = SimulatedLM(LMConfig(seed=0))
        ops = SemanticOperators(lm, batch_size=32)
        top = ops.sem_topk(
            titles, "Which {Title} is most technical?", 2, method="score"
        )
        assert len(top) == 2
        assert lm.usage.calls == 5
        assert lm.usage.batches == 1

    def test_strategies_agree_on_clear_winner(self, titles):
        lm = SimulatedLM(LMConfig(seed=0))
        ops = SemanticOperators(lm, batch_size=32)
        quick = ops.sem_topk(
            titles, "Which {Title} is most technical?", 1
        )
        score = ops.sem_topk(
            titles, "Which {Title} is most technical?", 1, method="score"
        )
        assert quick["Title"][0] == score["Title"][0]

    def test_invalid_method(self, titles, lm):
        ops = SemanticOperators(lm)
        with pytest.raises(SemanticOperatorError):
            ops.sem_topk(titles, "Which {Title}?", 1, method="bogus")
