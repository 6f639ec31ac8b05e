"""The LM's understanding of schema vocabulary.

A real instruction-tuned LM knows that "grade span" means the
``GSoffered`` column and that "popularity" of a post is its
``ViewCount`` — knowledge absorbed from pre-training and the BIRD prompt
conventions.  This module is that knowledge made explicit: an ordered
phrase bank mapping natural-language phrases to (table, column) pairs,
consulted by both the Text2SQL semantic parser and the in-context
answer handler.

Longer (more specific) phrases are matched first.  A phrase only
resolves when its table exists in the schema at hand, so the same bank
serves every benchmark domain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

#: (phrase, table, column).  Table may be None (resolve against any
#: table containing the column).  Order within the list breaks ties;
#: match order is by descending phrase length then list order.
PHRASE_HINTS: list[tuple[str, str | None, str]] = [
    # california_schools
    ("grade span offered", "schools", "GSoffered"),
    ("grade span", "schools", "GSoffered"),
    ("average score in math", "satscores", "AvgScrMath"),
    ("average math score", "satscores", "AvgScrMath"),
    ("math score", "satscores", "AvgScrMath"),
    ("average score in reading", "satscores", "AvgScrRead"),
    ("reading score", "satscores", "AvgScrRead"),
    ("average score in writing", "satscores", "AvgScrWrite"),
    ("writing score", "satscores", "AvgScrWrite"),
    ("test takers", "satscores", "NumTstTakr"),
    ("free meal count", "frpm", "FreeMealCount"),
    ("free meals", "frpm", "FreeMealCount"),
    ("enrollment", "frpm", "Enrollment"),
    ("longitude", "schools", "Longitude"),
    ("latitude", "schools", "Latitude"),
    ("charter", "schools", "Charter"),
    ("county", "schools", "County"),
    ("district", "schools", "District"),
    ("cities", "schools", "City"),
    ("city", "schools", "City"),
    ("school", "schools", "School"),
    # codebase_community
    ("view count", "posts", "ViewCount"),
    ("views", "posts", "ViewCount"),
    ("popularity", "posts", "ViewCount"),
    ("popular", "posts", "ViewCount"),
    ("titles", "posts", "Title"),
    ("title", "posts", "Title"),
    ("comments", "comments", "Text"),
    ("comment", "comments", "Text"),
    ("reputation", "users", "Reputation"),
    ("display name", "users", "DisplayName"),
    ("answer count", "posts", "AnswerCount"),
    ("posts", "posts", "Title"),
    ("post", "posts", "Title"),
    # formula_1
    ("circuit", "circuits", "name"),
    ("races", "races", "name"),
    ("race", "races", "name"),
    ("season", "races", "year"),
    ("year", "races", "year"),
    ("round", "races", "round"),
    ("points", "results", "points"),
    ("position", "results", "position"),
    ("nationality", "drivers", "nationality"),
    ("surname", "drivers", "surname"),
    ("drivers", "drivers", "surname"),
    ("driver", "drivers", "surname"),
    # european_football_2
    ("overall rating", "Player_Attributes", "overall_rating"),
    ("sprint speed", "Player_Attributes", "sprint_speed"),
    ("volley score", "Player_Attributes", "volleys"),
    ("volleys", "Player_Attributes", "volleys"),
    ("volley", "Player_Attributes", "volleys"),
    ("dribbling", "Player_Attributes", "dribbling"),
    ("finishing", "Player_Attributes", "finishing"),
    ("height", "Player", "height"),
    ("weight", "Player", "weight"),
    ("players", "Player", "player_name"),
    ("player", "Player", "player_name"),
    ("league", "League", "name"),
    ("teams", "Team", "team_long_name"),
    ("team", "Team", "team_long_name"),
    # debit_card_specializing
    ("consumption", "yearmonth", "Consumption"),
    ("gas stations", "gasstations", "Country"),
    ("gas station", "gasstations", "Country"),
    ("transactions", "transactions_1k", "Amount"),
    ("transaction", "transactions_1k", "Amount"),
    ("amount", "transactions_1k", "Amount"),
    ("price", "transactions_1k", "Price"),
    ("currency", "customers", "Currency"),
    ("segment", "customers", "Segment"),
    ("country", "gasstations", "Country"),
    ("customers", "customers", "CustomerID"),
    ("customer", "customers", "CustomerID"),
    # movies example
    ("revenue", "movies", "revenue"),
    ("grossing", "movies", "revenue"),
    ("reviews", "movies", "review"),
    ("review", "movies", "review"),
    ("genre", "movies", "genre"),
    ("movies", "movies", "movie_title"),
    ("movie", "movies", "movie_title"),
    ("film", "movies", "movie_title"),
    # generic
    ("scores", None, "Score"),
    ("score", None, "Score"),
]

#: The bank in match order (longest phrase first, ties in list order).
_ORDERED_HINTS = tuple(sorted(PHRASE_HINTS, key=lambda hint: -len(hint[0])))


@dataclass(frozen=True)
class Mention:
    """One recognised phrase -> column binding in a question."""

    phrase: str
    table: str
    column: str
    position: int


@functools.lru_cache(maxsize=len(PHRASE_HINTS))
def _phrase_pattern(phrase: str) -> re.Pattern[str]:
    return re.compile(
        r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE
    )


def find_mentions(
    question: str, tables: dict[str, list[str]]
) -> list[Mention]:
    """All phrase mentions resolvable against ``tables``, sorted by
    position; overlapping shorter matches are suppressed."""
    schema = tuple(
        (table, tuple(columns)) for table, columns in tables.items()
    )
    claimed: list[tuple[int, int]] = []
    mentions: list[Mention] = []
    for phrase, pattern, table_name, column_name in _schema_hints(schema):
        for match in pattern.finditer(question):
            span = (match.start(), match.end())
            if any(
                span[0] < end and start < span[1]
                for start, end in claimed
            ):
                continue
            claimed.append(span)
            mentions.append(
                Mention(phrase, table_name, column_name, match.start())
            )
    mentions.sort(key=lambda mention: mention.position)
    return mentions


@functools.lru_cache(maxsize=64)
def _schema_hints(
    schema: tuple[tuple[str, tuple[str, ...]], ...],
) -> tuple[tuple[str, re.Pattern[str], str, str], ...]:
    """The hints that resolve against ``schema`` (ordered ``(table,
    columns)`` pairs), in match order, as (phrase, pattern, table,
    column): resolved once per distinct schema, since a schema recurs
    in every question over it."""
    lowered_tables = {
        table.lower(): (table, columns) for table, columns in schema
    }
    hints = []
    for phrase, hint_table, column in _ORDERED_HINTS:
        resolved = _resolve(hint_table, column, lowered_tables)
        if resolved is not None:
            hints.append((phrase, _phrase_pattern(phrase), *resolved))
    return tuple(hints)


def _resolve(
    hint_table: str | None,
    column: str,
    lowered_tables: dict[str, tuple[str, tuple[str, ...]]],
) -> tuple[str, str] | None:
    if hint_table is not None:
        entry = lowered_tables.get(hint_table.lower())
        if entry is None:
            return None
        table_name, columns = entry
        for actual in columns:
            if actual.lower() == column.lower():
                return table_name, actual
        return None
    for table_name, columns in lowered_tables.values():
        for actual in columns:
            if actual.lower() == column.lower():
                return table_name, actual
    return None


def match_record_key(phrase: str, keys: list[str]) -> str | None:
    """Best record key for a phrase (used over serialized data points).

    Tries the hint bank first (ignoring tables), then containment of
    normalised names.
    """
    normalized = _normalize(phrase)
    for hint_phrase, _table, column in _ORDERED_HINTS:
        if _normalize(hint_phrase) in normalized or normalized in (
            _normalize(hint_phrase)
        ):
            for key in keys:
                if key.lower() == column.lower():
                    return key
    for key in keys:
        key_normalized = _normalize(key)
        if key_normalized and (
            key_normalized in normalized or normalized in key_normalized
        ):
            return key
    return None


_NON_ALNUM_RE = re.compile(r"[^a-z0-9]")


@functools.lru_cache(maxsize=1024)
def _normalize(text: str) -> str:
    return _NON_ALNUM_RE.sub("", text.lower())
