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

:func:`mean_quality` averages both over a benchmark run (E12).
"""

from __future__ import annotations

import re
from collections.abc import Iterable

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


def mean_quality(
    records: Iterable, suite: Iterable, datasets: dict, methods: list[str]
) -> dict[str, dict[str, float]]:
    """Per method, mean coverage and faithfulness of its aggregation
    answers among ``records`` (the benchmark's ``QueryRecord`` rows).

    A query whose oracle names no entity (at seed 2 no comment on the
    most viewed post is positive) has nothing to cover: it is left out
    of the coverage mean, and its faithfulness still counts.
    """
    specs = {
        spec.qid: spec for spec in suite if spec.query_type == "aggregation"
    }
    scores: dict[str, dict[str, list[float]]] = {
        method: {"coverage": [], "faithfulness": []} for method in methods
    }
    for record in records:
        spec = specs.get(record.qid)
        if spec is None or record.method not in scores:
            continue
        dataset = datasets[spec.domain]
        answer = str(record.answer)
        entities = spec.agg_entities(dataset)
        if entities:
            scores[record.method]["coverage"].append(
                entity_coverage(answer, entities)
            )
        scores[record.method]["faithfulness"].append(
            numeric_faithfulness(
                answer, source_numbers(spec.agg_source(dataset))
            )
        )
    return {
        method: {
            metric: sum(values) / len(values)
            for metric, values in metrics.items()
        }
        for method, metrics in scores.items()
    }
