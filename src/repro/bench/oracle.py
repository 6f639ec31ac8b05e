"""The oracle binding: gold answers without the LM.

Gold answers stand in for the paper's human labels, so they consult the
*canonical* knowledge base and the *noise-free* text scorers — never
the fuzzy LM view.  :class:`OracleContext` offers the same verbs as the
LM binding (:class:`repro.bench.pipelines.PipelineContext`), and a
query's gold is its one program run under it.  Any method (including
hand-written TAG) can therefore be wrong relative to gold, exactly as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.data.base import Dataset
from repro.frame import DataFrame
from repro.knowledge import KnowledgeBase
from repro.text.sarcasm import sarcasm_score
from repro.text.sentiment import sentiment_score
from repro.text.technicality import technicality_score

#: Judgment thresholds shared by gold labels and (with boundary noise)
#: the simulated LM — see repro.lm.concepts.
SENTIMENT_POSITIVE_THRESHOLD = 0.05
SARCASM_THRESHOLD = 0.4
TECHNICAL_THRESHOLD = 0.3

#: Per text quality: the column it reads, its noise-free score, and the
#: score above which a text has the quality.
_QUALITIES = {
    "positive": ("Text", sentiment_score, SENTIMENT_POSITIVE_THRESHOLD),
    "negative": (
        "Text",
        lambda text: -sentiment_score(text),
        SENTIMENT_POSITIVE_THRESHOLD,
    ),
    "sarcastic": ("Text", sarcasm_score, SARCASM_THRESHOLD),
    "technical": ("Title", technicality_score, TECHNICAL_THRESHOLD),
}


@lru_cache(maxsize=1)
def oracle_kb() -> KnowledgeBase:
    """The shared canonical knowledge base (cached)."""
    return KnowledgeBase.default()


def cities_in_region(region: str) -> set[str]:
    """Canonical member cities of a region."""
    return oracle_kb().cities_in_region(region)


def person_height(person: str) -> float:
    """Canonical height in cm; raises ValueError if unknown."""
    height = oracle_kb().person_height_cm(person)
    if height is None:
        raise ValueError(f"no canonical height for {person!r}")
    return height


def _subjects(relation: str) -> set[str]:
    """Subjects whose ``relation`` fact is canonically true."""
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation(relation)
        if fact.value
    }


def euro_countries() -> set[str]:
    """Countries that canonically use the Euro."""
    return _subjects("uses_euro")


def eu_countries() -> set[str]:
    """Countries canonically in the European Union."""
    return _subjects("in_eu")


def street_circuits() -> set[str]:
    """Circuits canonically classified as street circuits."""
    return _subjects("street_circuit")


def circuits_in_region(region: str) -> set[str]:
    """Circuits canonically located in ``region``."""
    lowered = region.strip().lower()
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation("circuit_region")
        if fact.value == lowered
    }


def uk_leagues() -> set[str]:
    """Leagues whose country is a UK home nation."""
    uk_nations = _subjects("uk_home_nation")
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation("league_country")
        if str(fact.value) in uk_nations
    }


@dataclass
class OracleContext:
    """The oracle binding: the same verbs as the LM binding, answered
    from canonical facts and noise-free scores."""

    dataset: Dataset

    def frame(self, table: str) -> DataFrame:
        return self.dataset.frame(table)

    def filter_by_region(self, frame: DataFrame, region: str) -> DataFrame:
        return frame[frame["City"].isin(cities_in_region(region))]

    def filter_players_by_height(
        self, frame: DataFrame, person: str, direction: str
    ) -> DataFrame:
        threshold = person_height(person)
        if direction == "taller":
            return frame[frame["height"] > threshold]
        return frame[frame["height"] < threshold]

    def filter_euro_countries(self, frame: DataFrame) -> DataFrame:
        return frame[frame["Country"].isin(euro_countries())]

    def filter_eu_countries(self, frame: DataFrame) -> DataFrame:
        return frame[frame["Country"].isin(eu_countries())]

    def filter_currency_of(
        self, frame: DataFrame, country: str
    ) -> DataFrame:
        return frame[
            frame["Currency"] == oracle_kb().value("currency", country)
        ]

    def filter_street_circuits(self, circuits: DataFrame) -> DataFrame:
        return circuits[circuits["name"].isin(street_circuits())]

    def filter_circuits_in_region(
        self, circuits: DataFrame, region: str
    ) -> DataFrame:
        return circuits[circuits["name"].isin(circuits_in_region(region))]

    def filter_uk_leagues(self, leagues: DataFrame) -> DataFrame:
        return leagues[leagues["name"].isin(uk_leagues())]

    def filter_text(self, frame: DataFrame, quality: str) -> DataFrame:
        threshold = _QUALITIES[quality][2]
        return frame.filter_mask(
            [score > threshold for score in _scores(frame, quality)]
        )

    def topk_text(self, frame: DataFrame, quality: str, k: int) -> DataFrame:
        """A stable sort on the noise-free score, best first."""
        scores = _scores(frame, quality)
        order = sorted(
            range(len(scores)), key=scores.__getitem__, reverse=True
        )
        return frame.take(order[:k])

    def aggregate(
        self, frame: DataFrame, instruction: str, columns: list[str]
    ) -> list[dict]:
        """The rows a complete and faithful summary must rest on."""
        return frame.to_records()


def _scores(frame: DataFrame, quality: str) -> list[float]:
    column, score, _ = _QUALITIES[quality]
    return [score(str(text)) for text in frame[column].tolist()]
