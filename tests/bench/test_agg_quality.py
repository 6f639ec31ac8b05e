"""Unit tests for the quantitative aggregation metrics."""

import pytest

from repro.bench.agg_quality import (
    entity_coverage,
    mean_quality,
    numeric_faithfulness,
    source_numbers,
)


class TestEntityCoverage:
    def test_full_coverage(self):
        assert entity_coverage(
            "races in 1999, 2000 and 2001", ["1999", "2000", "2001"]
        ) == 1.0

    def test_partial(self):
        assert entity_coverage(
            "only 1999 happened", ["1999", "2000"]
        ) == 0.5

    def test_case_insensitive(self):
        assert entity_coverage(
            "SEPANG hosted races", ["Sepang"]
        ) == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            entity_coverage("anything", [])

    def test_zero(self):
        assert entity_coverage("nothing relevant", ["Sepang"]) == 0.0


class TestNumericFaithfulness:
    def test_grounded_numbers(self):
        sources = {"2257.8", "1997"}
        assert numeric_faithfulness(
            "revenue was 2257.8 in 1997", sources
        ) == 1.0

    def test_hallucinated_number(self):
        assert numeric_faithfulness(
            "revenue was 9999.9", {"2257.8"}
        ) == 0.0

    def test_framing_integers_exempt(self):
        assert numeric_faithfulness(
            "There are 19 records; top 3 shown.", {"zzz"}
        ) == 1.0

    def test_date_components_ground(self):
        sources = source_numbers([{"date": "1999-03-27"}])
        assert numeric_faithfulness(
            "the race ran on 1999-03-27", sources
        ) == 1.0

    def test_no_numbers_is_fully_faithful(self):
        assert numeric_faithfulness("no figures here", set()) == 1.0

    def test_mixed(self):
        sources = {"100"}
        score = numeric_faithfulness("values 100 and 555", sources)
        assert score == 0.5

    def test_number_normalisation(self):
        assert numeric_faithfulness(
            "height 188", source_numbers([{"h": 188.0}])
        ) == 1.0


class TestSourceNumbers:
    def test_collects_all_values(self):
        values = source_numbers([{"a": 1, "b": "x"}, {"a": 2.5}])
        assert {"1", "x", "2.5"} <= values


class TestSuiteOracles:
    def test_every_aggregation_query_has_nonempty_oracles(
        self, suite, datasets
    ):
        for spec in suite:
            if spec.query_type != "aggregation":
                continue
            dataset = datasets[spec.domain]
            entities = spec.agg_entities(dataset)
            source = spec.agg_source(dataset)
            assert entities, spec.qid
            assert source, spec.qid

    def test_sepang_entities_are_the_19_years(self, suite, datasets):
        spec = next(s for s in suite if s.qid == "aggregation-k01")
        entities = spec.agg_entities(datasets[spec.domain])
        assert entities == [str(year) for year in range(1999, 2018)]

    def test_tag_answer_scores_high_on_sepang(self, suite, datasets):
        from repro.bench.queries import PipelineContext
        from repro.lm import LMConfig, SimulatedLM
        from repro.semantic import SemanticOperators

        spec = next(s for s in suite if s.qid == "aggregation-k01")
        dataset = datasets[spec.domain]
        lm = SimulatedLM(LMConfig(seed=0))
        answer = spec.pipeline(
            PipelineContext(
                dataset=dataset,
                ops=SemanticOperators(lm),
                lm=lm,
            )
        )
        coverage = entity_coverage(
            answer, spec.agg_entities(dataset)
        )
        faithfulness = numeric_faithfulness(
            answer, source_numbers(spec.agg_source(dataset))
        )
        assert coverage == 1.0
        assert faithfulness == 1.0


class TestMeanQuality:
    def test_seed_2_scores_a_query_with_no_entities(self, suite):
        """At seed 2 no comment on the most viewed post is positive, so
        aggregation-r10 has no entity to cover: it leaves the coverage
        mean and keeps its faithfulness score."""
        from repro.bench.runner import run_benchmark
        from repro.data import load_all

        specs = [s for s in suite if s.query_type == "aggregation"]
        datasets = load_all(seed=2)
        empty = [
            s.qid for s in specs if not s.agg_entities(datasets[s.domain])
        ]
        assert empty == ["aggregation-r10"]
        r10 = next(s for s in specs if s.qid == "aggregation-r10")
        sources = source_numbers(r10.agg_source(datasets[r10.domain]))
        methods = [
            "RAG", "Retrieval + LM Rank", "Text2SQL + LM", "Hand-written TAG",
        ]
        records = run_benchmark(
            seed=2, queries=specs, datasets=datasets
        ).records
        means = mean_quality(records, specs, datasets, methods)
        rest = mean_quality(
            [r for r in records if r.qid != r10.qid],
            specs,
            datasets,
            methods,
        )
        for record in records:
            if record.qid != r10.qid or record.method not in methods:
                continue
            method = record.method
            faithful = numeric_faithfulness(str(record.answer), sources)
            assert means[method]["coverage"] == rest[method]["coverage"]
            assert means[method]["faithfulness"] * 20 == pytest.approx(
                rest[method]["faithfulness"] * 19 + faithful
            )
