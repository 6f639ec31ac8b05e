"""Generator scale knobs: structures hold at non-default sizes."""

import pytest

from repro.data import (
    california_schools,
    codebase_community,
    debit_card_specializing,
    european_football_2,
    formula_1,
)


class TestScaleParameters:
    def test_schools_per_city(self):
        dataset = california_schools.build(seed=1, schools_per_city=2)
        cities = len(dataset.frame("schools")["City"].unique())
        assert len(dataset.frame("schools")) == cities * 2

    def test_schools_scores_still_unique_when_dense(self):
        dataset = california_schools.build(seed=2, schools_per_city=8)
        maths = dataset.frame("satscores")["AvgScrMath"].tolist()
        assert len(maths) == len(set(maths))

    def test_comments_per_post(self):
        dataset = codebase_community.build(seed=3, comments_per_post=9)
        posts = len(dataset.frame("posts"))
        assert len(dataset.frame("comments")) == posts * 9

    def test_player_count(self):
        dataset = european_football_2.build(seed=4, players=50)
        assert len(dataset.frame("Player")) == 50
        assert len(dataset.frame("Player_Attributes")) == 50

    def test_results_per_race(self):
        dataset = formula_1.build(seed=5, results_per_race=6)
        races = len(dataset.frame("races"))
        assert len(dataset.frame("results")) == races * 6

    def test_debit_sizes(self):
        dataset = debit_card_specializing.build(
            seed=6, customers=10, stations=5, transactions=40
        )
        assert len(dataset.frame("customers")) == 10
        assert len(dataset.frame("gasstations")) == 5
        assert len(dataset.frame("transactions_1k")) == 40
        assert len(dataset.frame("yearmonth")) == 30

    def test_race_history_invariant_under_scaling(self, kb):
        # The Sepang 1999-2017 alignment with the fact store must hold
        # regardless of the results_per_race knob.
        dataset = formula_1.build(seed=7, results_per_race=3)
        years = dataset.db.execute(
            "SELECT r.year FROM races r JOIN circuits c "
            "ON r.circuitId = c.circuitId "
            "WHERE c.name = 'Sepang International Circuit' "
            "ORDER BY r.year"
        ).column("year")
        assert years == list(kb.race_years("Sepang International Circuit"))
