"""Tests for the two bindings of the TAG-Bench verbs: the oracle's
canonical answers and the LM's hand-written pipeline steps."""

import pytest

from repro.bench import oracle, pipelines
from repro.bench.oracle import OracleContext
from repro.bench.queries import PipelineContext
from repro.frame import DataFrame
from repro.lm import LMConfig, SimulatedLM
from repro.semantic import SemanticOperators


@pytest.fixture()
def oracle_ctx(datasets, oracle_lm) -> PipelineContext:
    """Pipeline context with an oracle LM (no knowledge noise)."""
    return PipelineContext(
        dataset=datasets["california_schools"],
        ops=SemanticOperators(oracle_lm, batch_size=16),
        lm=oracle_lm,
    )


def _ctx(datasets, domain, lm) -> PipelineContext:
    return PipelineContext(
        dataset=datasets[domain],
        ops=SemanticOperators(lm, batch_size=16),
        lm=lm,
    )


class TestOracleHelpers:
    def test_cities_in_region_cached_kb(self):
        assert oracle.oracle_kb() is oracle.oracle_kb()

    def test_filter_by_region(self, datasets):
        schools = datasets["california_schools"].frame("schools")
        bay = OracleContext(datasets["california_schools"]).filter_by_region(
            schools, "bay area"
        )
        assert 0 < len(bay) < len(schools)
        assert "Los Angeles" not in bay["City"].unique()

    def test_person_height_unknown_raises(self):
        with pytest.raises(ValueError):
            oracle.person_height("Nobody Real")

    def test_set_helpers_nonempty(self):
        assert "Slovakia" in oracle.euro_countries()
        assert "Czech Republic" in oracle.eu_countries()
        assert "Circuit de Monaco" in oracle.street_circuits()
        assert "Sepang International Circuit" in (
            oracle.circuits_in_region("southeast asia")
        )
        assert "England Premier League" in oracle.uk_leagues()

    def test_text_judgments(self, datasets):
        ctx = OracleContext(datasets["codebase_community"])
        texts = DataFrame(
            {
                "Text": [
                    "wonderful, excellent work",
                    "a terrible mess",
                    "Oh great, yeah right, as if.",
                ]
            }
        )
        titles = DataFrame(
            {"Title": ["Bayesian covariance eigenvalue regularization"]}
        )

        def kept(frame, column, quality):
            return ctx.filter_text(frame, quality)[column].tolist()

        assert "wonderful, excellent work" in kept(texts, "Text", "positive")
        assert kept(texts, "Text", "negative") == ["a terrible mess"]
        assert "Oh great, yeah right, as if." in kept(
            texts, "Text", "sarcastic"
        )
        assert len(kept(titles, "Title", "technical")) == 1

    def test_topk_orders_by_the_noise_free_score(self, datasets):
        ctx = OracleContext(datasets["codebase_community"])
        texts = DataFrame(
            {"Text": ["fine", "a terrible mess", "fine", "wonderful"]}
        )
        ordered = ctx.topk_text(texts, "positive", 4)["Text"].tolist()
        assert ordered[0] == "wonderful"
        assert ordered[-1] == "a terrible mess"
        assert ctx.topk_text(texts, "negative", 1)["Text"].tolist() == [
            "a terrible mess"
        ]


class TestPipelineHelpers:
    def test_region_filter_judges_unique_cities_once(self, datasets):
        lm = SimulatedLM(LMConfig(seed=0))
        ctx = _ctx(datasets, "california_schools", lm)
        schools = ctx.frame("schools")
        ctx.filter_by_region(schools, "Bay Area")
        unique_cities = len(schools["City"].unique())
        assert lm.usage.calls == unique_cities

    def test_height_filter_with_oracle_matches_gold(
        self, datasets, oracle_lm
    ):
        ctx = _ctx(datasets, "european_football_2", oracle_lm)
        players = ctx.frame("Player")
        taller = ctx.filter_players_by_height(
            players, "Stephen Curry", "taller"
        )
        threshold = oracle.person_height("Stephen Curry")
        expected = players[players["height"] > threshold]
        assert sorted(taller["player_name"].tolist()) == sorted(
            expected["player_name"].tolist()
        )

    def test_uk_league_filter(self, datasets, oracle_lm):
        ctx = _ctx(datasets, "european_football_2", oracle_lm)
        uk = ctx.filter_uk_leagues(ctx.frame("League"))
        assert sorted(uk["name"].tolist()) == sorted(oracle.uk_leagues())

    def test_races_with_circuits_disambiguates_names(
        self, datasets, oracle_lm
    ):
        ctx = _ctx(datasets, "formula_1", oracle_lm)
        joined = pipelines.races_with_circuits(ctx)
        assert "race_name" in joined.columns
        assert "circuit_name" in joined.columns

    def test_comments_for_post_title_keeps_comment_columns(
        self, datasets, oracle_lm
    ):
        ctx = _ctx(datasets, "codebase_community", oracle_lm)
        comments = pipelines.post_comments(
            ctx, "How does gentle boosting differ from AdaBoost?"
        )
        for column in ("Text", "Score", "UserId", "CreationDate"):
            assert column in comments.columns
        assert len(comments) == 6

    def test_street_circuit_filter_with_oracle(self, datasets, oracle_lm):
        ctx = _ctx(datasets, "formula_1", oracle_lm)
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        assert sorted(street["name"].tolist()) == sorted(
            oracle.street_circuits()
        )


@pytest.fixture()
def noise_free_lm():
    """An oracle LM with judgment and ranking noise switched off."""
    from repro.lm import concepts

    old = (
        concepts.RANK_JITTER,
        concepts.PAIR_MARGIN,
        concepts.TEXT_MARGIN,
    )
    concepts.RANK_JITTER = 0.0
    concepts.PAIR_MARGIN = 0.0
    concepts.TEXT_MARGIN = 0.0
    try:
        yield SimulatedLM(LMConfig(seed=0, skepticism=0.0))
    finally:
        (
            concepts.RANK_JITTER,
            concepts.PAIR_MARGIN,
            concepts.TEXT_MARGIN,
        ) = old


class _SummarisedRows(PipelineContext):
    """The LM binding, keeping the rows handed to ``aggregate`` instead
    of summarising them."""

    def aggregate(self, frame, instruction, columns):
        self.rows = frame.to_records()
        return ""


class TestOraclePipelinesAgree:
    """With an oracle LM and no judgment noise, every hand-written
    pipeline should reproduce its gold answer, and every aggregation
    program should summarise the rows its quality oracles are read
    from — a strong cross-check that the two bindings implement the
    same verbs."""

    def test_knowledge_pipelines_match_gold_with_oracle_lm(
        self, suite, datasets, noise_free_lm
    ):
        from repro.bench.evaluate import exact_match

        mismatches = []
        for spec in suite:
            if spec.gold is None:
                continue
            ctx = PipelineContext(
                dataset=datasets[spec.domain],
                ops=SemanticOperators(noise_free_lm, batch_size=32),
                lm=noise_free_lm,
            )
            answer = spec.pipeline(ctx)
            gold = spec.gold(datasets[spec.domain])
            if not exact_match(
                answer, gold, ordered=spec.query_type == "ranking"
            ):
                mismatches.append((spec.qid, answer, gold))
        assert not mismatches, mismatches[:5]

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_aggregation_rows_match_oracle_with_oracle_lm(
        self, suite, noise_free_lm, seed
    ):
        from repro.data import load_all

        datasets = load_all(seed=seed)
        aggregation = [s for s in suite if s.query_type == "aggregation"]
        assert len(aggregation) == 20
        mismatches = []
        for spec in aggregation:
            dataset = datasets[spec.domain]
            ctx = _SummarisedRows(
                dataset=dataset,
                ops=SemanticOperators(noise_free_lm, batch_size=32),
                lm=noise_free_lm,
            )
            spec.pipeline(ctx)
            if ctx.rows != spec.pipeline(OracleContext(dataset)):
                mismatches.append(spec.qid)
        assert not mismatches
