"""Unit tests for the knowledge base and its fuzzy view."""

import pytest

from repro.knowledge import FuzzyKnowledge, KnowledgeBase


class TestKnowledgeBase:
    def test_default_is_populated(self, kb):
        assert len(kb) > 200

    def test_lookup_case_insensitive(self, kb):
        assert kb.person_height_cm("stephen curry") == 188.0

    def test_region_membership(self, kb):
        valley = kb.cities_in_region("silicon valley")
        assert "Palo Alto" in valley
        assert "Fresno" not in valley
        assert "Atlantis" not in valley

    def test_cities_in_region(self, kb):
        bay = kb.cities_in_region("bay area")
        assert "San Francisco" in bay
        assert "Los Angeles" not in bay

    def test_race_years(self, kb):
        years = kb.race_years("Sepang International Circuit")
        assert years[0] == 1999
        assert years[-1] == 2017
        assert len(years) == 19

    def test_grand_prix_name(self, kb):
        assert kb.value("grand_prix_name", "Sepang International Circuit") == (
            "Malaysian Grand Prix"
        )

    def test_uses_euro(self, kb):
        assert kb.value("uses_euro", "Slovakia") is True
        assert kb.value("uses_euro", "Czech Republic") is False

    def test_confidence_validation(self):
        store = KnowledgeBase()
        with pytest.raises(ValueError):
            store.add("r", "s", True, confidence=0.0)
        with pytest.raises(ValueError):
            store.add("r", "s", True, confidence=1.5)

    def test_facts_for_relation(self, kb):
        facts = kb.facts_for_relation("height_cm")
        assert all(fact.relation == "height_cm" for fact in facts)
        assert len(facts) > 10


class TestFuzzyKnowledge:
    def test_full_confidence_facts_never_flip(self, kb):
        for seed in range(25):
            fuzzy = FuzzyKnowledge(kb, seed=seed)
            assert fuzzy.believed_height_cm("Stephen Curry") == 188.0
            assert fuzzy.believes_in_region("San Jose", "silicon valley")

    def test_determinism_per_seed(self, kb):
        first = FuzzyKnowledge(kb, seed=3)
        second = FuzzyKnowledge(kb, seed=3)
        for city in ("Gilroy", "Santa Cruz", "Fremont", "Vallejo"):
            assert first.believes_in_region(
                city, "bay area"
            ) == second.believes_in_region(city, "bay area")

    def test_marginal_facts_flip_across_seeds(self, kb):
        # Gilroy/Silicon Valley has confidence 0.55: across many seeds
        # the belief must disagree with the canonical value sometimes.
        canonical = kb.value("in_region", ("Gilroy", "silicon valley"))
        beliefs = {
            FuzzyKnowledge(kb, seed=seed).believes_in_region(
                "Gilroy", "silicon valley"
            )
            for seed in range(40)
        }
        assert beliefs == {True, False}
        assert canonical is False

    def test_flip_rate_tracks_confidence(self, kb):
        flips = sum(
            FuzzyKnowledge(kb, seed=seed).believes_in_region(
                "Sacramento", "bay area"
            )
            for seed in range(200)
        )
        # Confidence 0.95 -> ~5% flips; allow generous slack.
        assert flips < 30

    def test_skepticism_zero_is_oracle(self, kb):
        fuzzy = FuzzyKnowledge(kb, seed=0, skepticism=0.0)
        for fact in kb.facts_for_relation("in_region"):
            city, region = fact.subject
            assert fuzzy.believes_in_region(city, region) == fact.value

    def test_numeric_drift_when_wrong(self, kb):
        # Find a seed where a low-confidence height is misremembered.
        for seed in range(60):
            fuzzy = FuzzyKnowledge(kb, seed=seed, skepticism=1.0)
            believed = fuzzy.believed_height_cm("Esteban Ocon")
            if believed != 186.0:
                assert believed == pytest.approx(186.0, rel=0.08)
                return
        pytest.fail("no drift observed over 60 seeds for a 0.7-conf fact")

    def test_tuple_facts_truncate_when_wrong(self, kb):
        canonical = kb.race_years("Baku City Circuit")
        for seed in range(80):
            fuzzy = FuzzyKnowledge(kb, seed=seed)
            believed = fuzzy.believed_race_years("Baku City Circuit")
            assert believed in (canonical, canonical[:-1])

    def test_unknown_subject_returns_default(self, kb):
        fuzzy = FuzzyKnowledge(kb, seed=0)
        assert fuzzy.believe("height_cm", "Nobody Real", None) is None
