"""Quantitative evaluation of aggregation answers.

The paper evaluates its 20 aggregation queries qualitatively and
explicitly "leave[s] quantitative analysis to future work" (§4.3).
This module is that future work: two reference-based metrics scored
against per-query oracles.

- **entity coverage** — the fraction of gold entities (the values a
  complete answer must mention: Sepang's 19 seasons, the UK league
  names, ...) that appear in the answer.  Figure 2's qualitative
  contrast, made a number.
- **numeric faithfulness** — the fraction of numbers asserted by the
  answer that actually occur in the query's source rows (or gold
  entities), catching hallucinated figures.  Small enumeration counts
  (1-30) are exempt, since "There are 19 records" style framing is not
  a data claim.
"""

from __future__ import annotations

import re

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
#: Integers up to this are enumeration framing, not data claims.
_MAX_FRAMING_INT = 30


def entity_coverage(answer: str, entities: list[str]) -> float:
    """Fraction of gold entities mentioned in the answer, in [0, 1]."""
    if not entities:
        raise ValueError("entity_coverage requires a non-empty gold set")
    text = answer.lower()
    hits = sum(1 for entity in entities if str(entity).lower() in text)
    return hits / len(entities)


def numeric_faithfulness(answer: str, source_values: set[str]) -> float:
    """Fraction of the answer's numbers grounded in the source values.

    Numbers are compared textually after normalisation (so ``2257.8``
    grounds ``2257.8`` and ``2257.80``); integers up to 30 are treated
    as framing ("3 records", "top 5") rather than data claims.  An
    answer with no data numbers is fully faithful (1.0).
    """
    normalized_sources = set()
    for value in source_values:
        for number in _NUMBER_RE.findall(str(value)):
            normalized_sources.add(_normalize_number(number))
    claims = []
    for number in _NUMBER_RE.findall(answer):
        normalized = _normalize_number(number)
        try:
            if (
                float(normalized).is_integer()
                and abs(int(float(normalized))) <= _MAX_FRAMING_INT
            ):
                continue
        except ValueError:  # pragma: no cover
            pass
        claims.append(normalized)
    if not claims:
        return 1.0
    grounded = sum(
        1 for claim in claims if _grounded(claim, normalized_sources)
    )
    return grounded / len(claims)


def _normalize_number(text: str) -> str:
    value = float(text)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _grounded(claim: str, sources: set[str]) -> bool:
    if claim in sources:
        return True
    # Dates serialize as e.g. 1999-03-27: the components ground too.
    return any(claim in source for source in sources)


def source_numbers(records: list[dict]) -> set[str]:
    """All value strings of the rows a query's pipeline touched."""
    values: set[str] = set()
    for record in records:
        for value in record.values():
            values.add(str(value))
    return values
