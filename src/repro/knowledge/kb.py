"""The fact store and its two views (oracle and fuzzy).

Facts are (relation, subject) -> (value, confidence) entries.  Subjects
are strings or tuples of strings and are matched case-insensitively.

:class:`KnowledgeBase` is the *oracle*: canonical truth, used by dataset
generators and by the benchmark's gold-answer functions.

:class:`FuzzyKnowledge` is the *LM's belief*: a deterministic seeded view
in which a fact of confidence ``c`` is misremembered with probability
``1 - c`` (booleans flip, numbers drift, strings are sometimes unknown).
This models how a real LM is reliable on famous facts and unreliable on
marginal ones, which is precisely what separates the paper's 50-60%
hand-written-TAG accuracy from 100%.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.knowledge import business, football, formula1, geography, people

Subject = str | tuple[str, ...]


@dataclass(frozen=True)
class Fact:
    relation: str
    subject: Subject
    value: Any
    confidence: float


def _normalize(subject: Subject) -> tuple[str, ...]:
    if isinstance(subject, str):
        return (subject.strip().lower(),)
    return tuple(part.strip().lower() for part in subject)


class KnowledgeBase:
    """Canonical world knowledge (the oracle view)."""

    def __init__(self) -> None:
        self._facts: dict[tuple[str, tuple[str, ...]], Fact] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add(
        self,
        relation: str,
        subject: Subject,
        value: Any,
        confidence: float = 1.0,
    ) -> None:
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside (0, 1]")
        fact = Fact(relation, subject, value, confidence)
        self._facts[(relation, _normalize(subject))] = fact

    @classmethod
    def default(cls) -> "KnowledgeBase":
        """The standard fact store used across the library."""
        kb = cls()
        for city, region, member, confidence in geography.CITY_REGION_FACTS:
            kb.add("in_region", (city, region), member, confidence)
        for person, height, confidence in people.PERSON_HEIGHT_FACTS:
            kb.add("height_cm", person, height, confidence)
        for person, year, confidence in people.PERSON_BIRTH_YEAR_FACTS:
            kb.add("birth_year", person, year, confidence)
        for circuit in formula1.CIRCUITS:
            kb.add("circuit_location", circuit.name, circuit.location)
            kb.add("circuit_country", circuit.name, circuit.country)
            street_confidence = formula1.CIRCUIT_FACT_CONFIDENCE.get(
                (circuit.name, "street"), 0.95
            )
            kb.add(
                "street_circuit", circuit.name, circuit.street,
                street_confidence,
            )
            region_confidence = formula1.CIRCUIT_FACT_CONFIDENCE.get(
                (circuit.name, "region"), 0.95
            )
            kb.add(
                "circuit_region", circuit.name, circuit.region,
                region_confidence,
            )
        for circuit_name, gp_name in formula1.GRAND_PRIX_NAME.items():
            kb.add("grand_prix_name", circuit_name, gp_name)
        for circuit_name, years in formula1.RACE_HISTORY.items():
            kb.add("race_years", circuit_name, tuple(years))
        for year, champion in formula1.WORLD_CHAMPIONS.items():
            kb.add("world_champion", str(year), champion, 0.9)
        for driver, nationality, confidence in formula1.DRIVER_NATIONALITY:
            kb.add("driver_nationality", driver, nationality, confidence)
        for country, flag, confidence in business.COUNTRY_EURO_FACTS:
            kb.add("uses_euro", country, flag, confidence)
        for country, flag, confidence in business.COUNTRY_EU_FACTS:
            kb.add("in_eu", country, flag, confidence)
        for country, code, confidence in business.COUNTRY_CURRENCY_FACTS:
            kb.add("currency", country, code, confidence)
        for company, vertical, confidence in business.COMPANY_VERTICAL_FACTS:
            kb.add("company_vertical", company, vertical, confidence)
        for league, country, confidence in football.LEAGUE_COUNTRY_FACTS:
            kb.add("league_country", league, country, confidence)
        for league, member, confidence in football.BIG_FIVE_LEAGUE_FACTS:
            kb.add("big_five_league", league, member, confidence)
        for country, member, confidence in football.UK_HOME_NATION_FACTS:
            kb.add("uk_home_nation", country, member, confidence)
        return kb

    # ------------------------------------------------------------------
    # oracle lookups
    # ------------------------------------------------------------------

    def get(self, relation: str, subject: Subject) -> Fact | None:
        return self._facts.get((relation, _normalize(subject)))

    def value(
        self, relation: str, subject: Subject, default: Any = None
    ) -> Any:
        fact = self.get(relation, subject)
        return default if fact is None else fact.value

    def facts_for_relation(self, relation: str) -> list[Fact]:
        return [
            fact
            for (fact_relation, _), fact in self._facts.items()
            if fact_relation == relation
        ]

    def __len__(self) -> int:
        return len(self._facts)

    # -- geography -------------------------------------------------------

    def cities_in_region(self, region: str) -> set[str]:
        return {
            fact.subject[0]
            for fact in self.facts_for_relation("in_region")
            if fact.subject[1] == region.strip().lower() and fact.value
        }

    # -- people ------------------------------------------------------------

    def person_height_cm(self, person: str) -> float | None:
        return self.value("height_cm", person)

    # -- formula 1 ----------------------------------------------------------

    def race_years(self, circuit: str) -> tuple[int, ...]:
        return tuple(self.value("race_years", circuit, ()))



class FuzzyKnowledge:
    """The simulated LM's belief about the world.

    A fact of confidence ``c`` is returned wrong with probability
    ``(1 - c) * skepticism``, decided by a deterministic hash of
    ``(seed, relation, subject)``, so the same model seed always holds
    the same (possibly wrong) beliefs — queries are reproducible and a
    belief never flip-flops within a run.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        seed: int = 0,
        skepticism: float = 1.0,
    ) -> None:
        self._kb = kb
        self._seed = seed
        self._skepticism = skepticism

    def _unit(self, relation: str, subject: Subject) -> float:
        """Deterministic pseudo-random in [0, 1) for one fact."""
        key = "|".join(
            (str(self._seed), relation) + _normalize(subject)
        )
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _is_wrong(self, fact: Fact, relation: str, subject: Subject) -> bool:
        error_probability = (1.0 - fact.confidence) * self._skepticism
        return self._unit(relation, subject) < error_probability

    def believe(
        self, relation: str, subject: Subject, default: Any = None
    ) -> Any:
        """The LM's belief for a fact; ``default`` when truly unknown."""
        fact = self._kb.get(relation, subject)
        if fact is None:
            return default
        if not self._is_wrong(fact, relation, subject):
            return fact.value
        if isinstance(fact.value, bool):
            return not fact.value
        if isinstance(fact.value, (int, float)):
            # Misremembered magnitude: drift by 2-6%.
            drift = 0.02 + 0.04 * self._unit(relation + "#drift", subject)
            sign = 1 if self._unit(relation + "#sign", subject) < 0.5 else -1
            return type(fact.value)(round(fact.value * (1 + sign * drift), 1))
        if isinstance(fact.value, tuple):
            # Misremembered list: drop the last element.
            return fact.value[:-1] if len(fact.value) > 1 else fact.value
        return default  # forgotten string-valued fact

    # -- typed conveniences mirroring the oracle API ------------------------

    def believes_in_region(self, city: str, region: str) -> bool:
        return bool(self.believe("in_region", (city, region), False))

    def believed_height_cm(self, person: str) -> float | None:
        return self.believe("height_cm", person)

    def believed_race_years(self, circuit: str) -> tuple[int, ...]:
        return tuple(self.believe("race_years", circuit, ()))

    def believed_uses_euro(self, country: str) -> bool:
        return bool(self.believe("uses_euro", country, False))
