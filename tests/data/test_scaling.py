"""Generator scale knobs: structures hold at non-default sizes."""

import threading

import pytest

from repro.data import (
    california_schools,
    codebase_community,
    debit_card_specializing,
    european_football_2,
    formula_1,
)
from repro.errors import BenchmarkError


def _build_error(build, **sizes):
    """What ``build(**sizes)`` raises (None if it returns), run on a
    thread so a builder that loops forever fails instead of hanging."""
    outcome = []

    def run():
        try:
            build(seed=0, **sizes)
        except Exception as error:  # noqa: BLE001
            outcome.append(error)
        else:
            outcome.append(None)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert outcome, f"build({sizes}) did not return"
    return outcome[0]


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


class TestSizeLimits:
    """Sizes past a generator's pool of unique values raise a typed
    error naming the limit, instead of looping forever."""

    def test_players_past_the_name_pool(self):
        error = _build_error(european_football_2.build, players=401)
        assert isinstance(error, BenchmarkError)
        assert "400" in str(error)
        assert _build_error(european_football_2.build, players=400) is None

    def test_schools_past_the_math_score_pool(self):
        error = _build_error(california_schools.build, schools_per_city=9)
        assert isinstance(error, BenchmarkError)
        assert "241" in str(error)
