"""Structural tests for the TAG-Bench suite and its gold oracles."""

import pytest

from repro.bench.queries import CAPABILITIES, QUERY_TYPES, QuerySpec
from repro.errors import BenchmarkError


class TestSuiteStructure:
    def test_eighty_queries(self, suite):
        assert len(suite) == 80

    def test_type_balance(self, suite):
        for query_type in QUERY_TYPES:
            count = sum(1 for s in suite if s.query_type == query_type)
            assert count == 20

    def test_capability_balance(self, suite):
        for capability in CAPABILITIES:
            count = sum(1 for s in suite if s.capability == capability)
            assert count == 40

    def test_type_capability_cells(self, suite):
        # 10 knowledge + 10 reasoning within each query type.
        for query_type in QUERY_TYPES:
            for capability in CAPABILITIES:
                count = sum(
                    1
                    for s in suite
                    if s.query_type == query_type
                    and s.capability == capability
                )
                assert count == 10

    def test_unique_ids_and_questions(self, suite):
        qids = [s.qid for s in suite]
        assert len(qids) == len(set(qids))
        questions = [s.question for s in suite]
        assert len(questions) == len(set(questions))

    def test_all_domains_are_known(self, suite, datasets):
        for spec in suite:
            assert spec.domain in datasets

    def test_paper_sample_queries_present(self, suite):
        questions = " ".join(s.question for s in suite)
        assert "Silicon Valley" in questions
        assert "taller than Stephen Curry" in questions
        assert "most technical to least technical" in questions
        assert "How does gentle boosting differ from AdaBoost?" in questions
        assert "Sepang International Circuit" in questions


class TestQuerySpecValidation:
    def test_bad_type_rejected(self):
        with pytest.raises(BenchmarkError):
            QuerySpec("x", "d", "weird", "knowledge", "q", lambda c: [])

    def test_bad_capability_rejected(self):
        with pytest.raises(BenchmarkError):
            QuerySpec("x", "d", "match", "magic", "q", lambda c: [])

    def test_aggregation_must_not_have_gold(self):
        spec = QuerySpec(
            "x", "d", "aggregation", "knowledge", "q", lambda c: "",
            agg_entities=lambda d: [], agg_source=lambda d: [],
        )
        assert spec.gold is None
        with pytest.raises(BenchmarkError):  # but needs quality oracles
            QuerySpec("x", "d", "aggregation", "knowledge", "q", lambda c: "")

    def test_non_aggregation_requires_gold(self, datasets):
        # Every exact-answer spec has one: its program under the oracle
        # binding.
        def program(ctx):
            return [type(ctx).__name__, len(ctx.frame("posts"))]

        spec = QuerySpec(
            "x", "codebase_community", "match", "reasoning", "q", program
        )
        dataset = datasets["codebase_community"]
        assert spec.gold(dataset) == [
            "OracleContext", len(dataset.frame("posts"))
        ]


class TestGoldAnswers:
    def test_every_gold_is_nonempty_list(self, suite, datasets):
        for spec in suite:
            if spec.gold is None:
                continue
            gold = spec.gold(datasets[spec.domain])
            assert isinstance(gold, list), spec.qid
            assert gold, spec.qid
            assert all(value is not None for value in gold), spec.qid

    def test_gold_deterministic(self, suite, datasets):
        for spec in suite[:20]:
            if spec.gold is None:
                continue
            dataset = datasets[spec.domain]
            assert spec.gold(dataset) == spec.gold(dataset)

    def test_count_golds_are_single_ints(self, suite, datasets):
        for spec in suite:
            if spec.query_type != "comparison":
                continue
            gold = spec.gold(datasets[spec.domain])
            assert len(gold) == 1
            assert isinstance(gold[0], int)

    def test_ranking_golds_have_requested_length(self, suite, datasets):
        for spec in suite:
            if spec.query_type != "ranking":
                continue
            gold = spec.gold(datasets[spec.domain])
            assert len(gold) >= 2, spec.qid
