"""Gold-answer helpers: the oracle side of the benchmark.

Gold answers stand in for the paper's human labels, so they consult the
*canonical* knowledge base and the *noise-free* text scorers — never
the fuzzy LM view.  Any method (including hand-written TAG) can
therefore be wrong relative to gold, exactly as in the paper.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=1)
def oracle_kb() -> KnowledgeBase:
    """The shared canonical knowledge base (cached)."""
    return KnowledgeBase.default()


def cities_in_region(region: str) -> set[str]:
    """Canonical member cities of a region."""
    return oracle_kb().cities_in_region(region)


def filter_by_region(
    frame: DataFrame, region: str, city_column: str = "City"
) -> DataFrame:
    """Rows whose city is canonically in ``region``."""
    cities = cities_in_region(region)
    return frame[frame[city_column].isin(cities)]


def person_height(person: str) -> float:
    """Canonical height in cm; raises ValueError if unknown."""
    height = oracle_kb().person_height_cm(person)
    if height is None:
        raise ValueError(f"no canonical height for {person!r}")
    return height


def euro_countries() -> set[str]:
    """Countries that canonically use the Euro."""
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation("uses_euro")
        if fact.value
    }


def eu_countries() -> set[str]:
    """Countries canonically in the European Union."""
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation("in_eu")
        if fact.value
    }


def street_circuits() -> set[str]:
    """Circuits canonically classified as street circuits."""
    return {
        str(fact.subject)
        for fact in oracle_kb().facts_for_relation("street_circuit")
        if fact.value
    }


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
    kb = oracle_kb()
    uk_nations = {
        str(fact.subject)
        for fact in kb.facts_for_relation("uk_home_nation")
        if fact.value
    }
    return {
        str(fact.subject)
        for fact in kb.facts_for_relation("league_country")
        if str(fact.value) in uk_nations
    }


# -- text judgments (noise-free versions of the LM's scorers) -------------


def is_positive(text: str) -> bool:
    """Noise-free positive-sentiment judgment (gold labels)."""
    return sentiment_score(text) > SENTIMENT_POSITIVE_THRESHOLD


def is_negative(text: str) -> bool:
    """Noise-free negative-sentiment judgment (gold labels)."""
    return sentiment_score(text) < -SENTIMENT_POSITIVE_THRESHOLD


def is_sarcastic(text: str) -> bool:
    """Noise-free sarcasm judgment (gold labels)."""
    return sarcasm_score(text) > SARCASM_THRESHOLD


def is_technical(text: str) -> bool:
    """Noise-free technicality judgment (gold labels)."""
    return technicality_score(text) > TECHNICAL_THRESHOLD

