"""Unit tests for the five evaluated methods."""

import pytest

from repro.lm import LMConfig, SimulatedLM
from repro.methods import (
    HandwrittenTAGMethod,
    RAGMethod,
    RetrievalRerankMethod,
    Text2SQLLMMethod,
    Text2SQLMethod,
    default_methods,
)


def _spec(suite, qid):
    return next(s for s in suite if s.qid == qid)


def _lm():
    return SimulatedLM(LMConfig(seed=0))


class TestDefaultMethods:
    def test_five_methods_with_paper_names(self):
        methods = default_methods(_lm)
        assert [m.name for m in methods] == [
            "Text2SQL",
            "RAG",
            "Retrieval + LM Rank",
            "Text2SQL + LM",
            "Hand-written TAG",
        ]

    def test_each_method_gets_its_own_lm(self):
        methods = default_methods(_lm)
        lms = {id(m.lm) for m in methods}
        assert len(lms) == 5


class TestMethodResults:
    def test_result_has_et_and_diagnostics(self, suite, datasets):
        method = Text2SQLMethod(_lm())
        spec = _spec(suite, "comparison-k02")
        result = method.answer(spec, datasets[spec.domain])
        assert result.et_seconds > 0
        assert result.diagnostics["lm_calls"] >= 1

    def test_errors_captured_as_strings(self, suite, datasets):
        method = Text2SQLMethod(_lm())

        spec = _spec(suite, "comparison-k02")
        result = method.answer(spec, None)  # no dataset -> AttributeError
        assert not result.ok
        assert result.answer is None
        assert "AttributeError" in result.error


class TestText2SQL:
    def test_answers_relational_question(self, suite, datasets):
        method = Text2SQLMethod(_lm())
        spec = _spec(suite, "comparison-k02")  # shorter than Messi
        result = method.answer(spec, datasets[spec.domain])
        assert result.ok
        assert isinstance(result.answer, list)
        assert isinstance(result.answer[0], int)


class TestRAG:
    def test_retrieves_k_rows_and_answers(self, suite, datasets):
        method = RAGMethod(_lm(), k=10)
        spec = _spec(suite, "match-k01")
        dataset = datasets[spec.domain]
        method.prepare(dataset)
        result = method.answer(spec, dataset)
        assert result.ok
        assert isinstance(result.answer, str)

    def test_index_cached_per_domain(self, datasets):
        method = RAGMethod(_lm())
        dataset = datasets["formula_1"]
        first = method.executor(dataset)
        second = method.executor(dataset)
        assert first is second

    def test_prepare_not_counted_in_et(self, suite, datasets):
        method = RAGMethod(_lm())
        dataset = datasets["california_schools"]
        method.prepare(dataset)
        spec = _spec(suite, "match-k01")
        result = method.answer(spec, dataset)
        # ET is LM time + fixed search cost, far below wall-clock of
        # embedding hundreds of rows.
        assert result.et_seconds < 30


class TestRerank:
    def test_reranks_then_answers(self, suite, datasets):
        method = RetrievalRerankMethod(_lm(), k=5, candidates=15)
        spec = _spec(suite, "match-k01")
        dataset = datasets[spec.domain]
        result = method.answer(spec, dataset)
        assert result.ok
        # Reranking adds one LM call per candidate.
        assert result.diagnostics["lm_calls"] >= 15

    def test_slower_than_rag(self, suite, datasets):
        spec = _spec(suite, "match-k02")
        dataset = datasets[spec.domain]
        rag = RAGMethod(_lm()).answer(spec, dataset)
        rerank = RetrievalRerankMethod(_lm()).answer(spec, dataset)
        assert rerank.et_seconds > rag.et_seconds


class TestText2SQLLM:
    def test_context_overflow_falls_back_to_parametric(
        self, suite, datasets
    ):
        method = Text2SQLLMMethod(_lm())
        spec = _spec(suite, "aggregation-k01")  # Sepang, Figure 2
        result = method.answer(spec, datasets[spec.domain])
        assert result.ok
        assert result.diagnostics["context_errors"] >= 1
        assert "general knowledge" in result.answer
        assert "1999" in result.answer and "2017" in result.answer

    def test_answers_from_rows_when_they_fit(self, suite, datasets):
        method = Text2SQLLMMethod(_lm())
        spec = _spec(suite, "comparison-r01")  # 4 comments on one post
        result = method.answer(spec, datasets[spec.domain])
        assert result.ok
        assert result.answer.startswith("[")


class TestHandwrittenTAG:
    def test_runs_pipeline(self, suite, datasets):
        method = HandwrittenTAGMethod(_lm())
        spec = _spec(suite, "comparison-k01")
        result = method.answer(spec, datasets[spec.domain])
        assert result.ok
        assert isinstance(result.answer, list)

    def test_batched_execution(self, suite, datasets):
        method = HandwrittenTAGMethod(_lm(), batch_size=32)
        spec = _spec(suite, "comparison-k02")
        result = method.answer(spec, datasets[spec.domain])
        assert result.diagnostics["lm_batches"] < (
            result.diagnostics["lm_calls"]
        )

    @pytest.mark.parametrize("batch_size", [0, 2.5, True])
    def test_bad_batch_size_rejected_when_built(self, batch_size):
        # Not one error per answered query: the method is never built.
        with pytest.raises(ValueError, match="batch_size must be an int"):
            HandwrittenTAGMethod(_lm(), batch_size=batch_size)

    def test_deterministic_across_runs(self, suite, datasets):
        spec = _spec(suite, "ranking-r01")
        first = HandwrittenTAGMethod(_lm()).answer(
            spec, datasets[spec.domain]
        )
        second = HandwrittenTAGMethod(_lm()).answer(
            spec, datasets[spec.domain]
        )
        assert first.answer == second.answer
