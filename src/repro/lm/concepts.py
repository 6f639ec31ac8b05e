"""Natural-language condition interpretation for the simulated LM.

When a semantic operator (or a UDF inside SQL) asks the LM a question
like *"Palo Alto is a city in the Silicon Valley region — true?"* or
*"rate how technical this title is"*, this module is what "understands"
the phrasing: a pattern bank maps condition text onto either a
world-knowledge relation (answered through the fuzzy KB view, so
marginal facts can be wrong) or a text-analysis capability (sentiment /
sarcasm / technicality / relevance, with boundary noise).

Everything is deterministic given (seed, condition text), mirroring a
temperature-0 LM: the same question always gets the same answer within
a run.
"""

from __future__ import annotations

import hashlib
import operator
import re
from collections.abc import Callable

from repro.knowledge import FuzzyKnowledge
from repro.knowledge.movies import MOVIE_FACTS
from repro.text.sarcasm import sarcasm_score
from repro.text.sentiment import sentiment_score
from repro.text.similarity import jaccard_similarity
from repro.text.technicality import technicality_score
from repro.text.tokenize import has_content_token

# --------------------------------------------------------------------------
# deterministic noise
# --------------------------------------------------------------------------


def _unit(seed: int, *parts: str) -> float:
    key = "|".join((str(seed),) + tuple(part.lower() for part in parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def noisy_threshold(
    score: float,
    threshold: float,
    margin: float,
    seed: int,
    key: str,
) -> bool:
    """Threshold test with an uncertainty band.

    Outside ``threshold ± margin`` the judgment is deterministic; inside
    the band (a genuinely ambiguous item) the model resolves the call by
    a seeded coin weighted by where the score sits in the band — the
    mechanism behind residual TAG errors on borderline reasoning items.
    """
    if score >= threshold + margin:
        return True
    if score <= threshold - margin:
        return False
    lean = (score - (threshold - margin)) / (2 * margin)
    return _unit(seed, "judge", key) < lean


# --------------------------------------------------------------------------
# condition patterns
# --------------------------------------------------------------------------

_CITY_REGIONS = (
    "silicon valley|bay area|southern california|central valley"
)
_REGION_RE = re.compile(
    r"^(?P<city>.+?) is a city in (?:the )?['\"]?(?P<region>"
    + _CITY_REGIONS
    + r")['\"]?(?: region)?[.?]?$",
    re.IGNORECASE,
)
_REGION_PART_RE = re.compile(
    r"^(?P<city>.+?) is (?:part of|located in|in) (?:the )?"
    r"['\"]?(?P<region>" + _CITY_REGIONS + r")['\"]?"
    r"(?: region| area)?[.?]?$",
    re.IGNORECASE,
)
_EURO_RE = re.compile(
    r"^(?P<country>.+?) (?:uses the euro|is in the eurozone"
    r"|is a eurozone country)[.?]?$",
    re.IGNORECASE,
)
_EU_RE = re.compile(
    r"^(?P<country>.+?) is (?:a member of|in) the (?:EU|European Union)"
    r"[.?]?$",
    re.IGNORECASE,
)
_BIG_FIVE_RE = re.compile(
    r"^(?P<league>.+?) is one of (?:Europe's |the )?"
    r"['\"]?big five['\"]? (?:football )?leagues[.?]?$",
    re.IGNORECASE,
)
_UK_RE = re.compile(
    r"^(?P<country>.+?) is (?:part of|in) the (?:UK|United Kingdom)[.?]?$",
    re.IGNORECASE,
)
_STREET_RE = re.compile(
    r"^(?P<circuit>.+?) is a (?:temporary )?street circuit[.?]?$",
    re.IGNORECASE,
)
_CIRCUIT_REGION_RE = re.compile(
    r"^(?P<circuit>.+?) is (?:a circuit )?(?:located |based )?in "
    r"(?P<region>southeast asia|east asia|europe|north america"
    r"|south america|middle east|oceania|asia)[.?]?$",
    re.IGNORECASE,
)
_TALLER_RE = re.compile(
    r"^(?:a player (?:with height|who is) )?(?P<height>\d+(?:\.\d+)?)\s*"
    r"(?:cm )?is taller than (?P<person>.+?)[.?]?$",
    re.IGNORECASE,
)
_SHORTER_RE = re.compile(
    r"^(?:a player (?:with height|who is) )?(?P<height>\d+(?:\.\d+)?)\s*"
    r"(?:cm )?is shorter than (?P<person>.+?)[.?]?$",
    re.IGNORECASE,
)
_NATIONALITY_RE = re.compile(
    r"^(?P<driver>.+?) is (?:a )?(?P<nationality>[A-Za-z]+)"
    r"(?: driver| national)?[.?]?$",
    re.IGNORECASE,
)
_CLASSIC_MOVIE_RE = re.compile(
    r"^(?:the (?:movie|film) )?['\"]?(?P<title>.+?)['\"]? is "
    r"(?:considered )?a ['\"]?classic['\"]?(?: film| movie)?[.?]?$",
    re.IGNORECASE,
)
_VERTICAL_RE = re.compile(
    r"^(?P<company>.+?) is (?:in|part of) the ['\"]?"
    r"(?P<vertical>[a-z]+)['\"]? vertical[.?]?$",
    re.IGNORECASE,
)
_CURRENCY_RE = re.compile(
    r"^(?P<code>[A-Z]{3}) is the currency (?:of|used in) "
    r"(?P<country>.+?)[.?]?$",
    re.IGNORECASE,
)
_SENTIMENT_POSITIVE_RE = re.compile(
    r"^the (?:review|comment|text) ['\"](?P<text>.*)['\"] is positive[.?]?$",
    re.IGNORECASE | re.DOTALL,
)
_SENTIMENT_NEGATIVE_RE = re.compile(
    r"^the (?:review|comment|text) ['\"](?P<text>.*)['\"] is negative[.?]?$",
    re.IGNORECASE | re.DOTALL,
)
_SARCASTIC_RE = re.compile(
    r"^the (?:comment|text|post) ['\"](?P<text>.*)['\"] is sarcastic[.?]?$",
    re.IGNORECASE | re.DOTALL,
)
_TECHNICAL_RE = re.compile(
    r"^the (?:title|text|post) ['\"](?P<text>.*)['\"] is "
    r"(?:highly )?technical[.?]?$",
    re.IGNORECASE | re.DOTALL,
)

_CLASSIC_MOVIES = {
    title.lower(): (classic, confidence)
    for title, _, _, _, classic, confidence in MOVIE_FACTS
}

#: Ambiguity half-width for text-scorer thresholds (set to 0 for an
#: oracle judge in tests).
TEXT_MARGIN = 0.04

#: Amplitude of per-item jitter on graded ranking judgments.
RANK_JITTER = 0.25

#: Score margin under which pairwise comparisons become coin flips.
PAIR_MARGIN = 0.25

# --------------------------------------------------------------------------
# verdicts: how a matched condition is answered (None: undecided)
# --------------------------------------------------------------------------

Verdict = Callable[[re.Match[str], FuzzyKnowledge, int, str], bool | None]


def _in_region(match, fuzzy, seed, condition):
    return fuzzy.believes_in_region(
        match.group("city").strip(), match.group("region").strip()
    )


def _uses_euro(match, fuzzy, seed, condition):
    return fuzzy.believed_uses_euro(match.group("country").strip())


def _believed_flag(relation: str, group: str) -> Verdict:
    """A yes/no fact about the subject in ``group``."""

    def verdict(match, fuzzy, seed, condition):
        return bool(
            fuzzy.believe(relation, match.group(group).strip(), False)
        )

    return verdict


def _in_circuit_region(match, fuzzy, seed, condition):
    believed = fuzzy.believe("circuit_region", match.group("circuit").strip())
    return (
        believed is not None
        and believed == match.group("region").strip().lower()
    )


def _height(beats: Callable[[float, float], bool]) -> Verdict:
    """``height`` against the believed height of ``person``."""

    def verdict(match, fuzzy, seed, condition):
        reference = fuzzy.believed_height_cm(match.group("person").strip())
        if reference is None:
            return False
        return beats(float(match.group("height")), reference)

    return verdict


def _in_vertical(match, fuzzy, seed, condition):
    believed = fuzzy.believe(
        "company_vertical", match.group("company").strip()
    )
    return (
        believed is not None
        and str(believed).lower() == match.group("vertical").strip().lower()
    )


def _is_currency(match, fuzzy, seed, condition):
    believed = fuzzy.believe("currency", match.group("country").strip())
    return (
        believed is not None
        and str(believed).upper() == match.group("code").upper()
    )


def _is_classic(match, fuzzy, seed, condition):
    title = match.group("title").strip().lower()
    entry = _CLASSIC_MOVIES.get(title)
    if entry is None:
        return False
    classic, confidence = entry
    if _unit(seed, "classic", title) < 1.0 - confidence:
        return not classic
    return classic


def _text_above(
    scorer: Callable[[str], float], threshold: float
) -> Verdict:
    """The quoted ``text`` scores above ``threshold``, noisily."""

    def verdict(match, fuzzy, seed, condition):
        score = scorer(match.group("text"))
        return noisy_threshold(score, threshold, TEXT_MARGIN, seed, condition)

    return verdict


def _has_nationality(match, fuzzy, seed, condition):
    believed = fuzzy.believe(
        "driver_nationality", match.group("driver").strip()
    )
    if believed is None:
        return None
    return str(believed).lower() == match.group("nationality").strip().lower()


#: The condition bank in the order ``judge`` tries it: a pattern, the
#: lowercase literals one of which every match of it contains, and its
#: verdict.
_BANK: tuple[tuple[re.Pattern[str], tuple[str, ...], Verdict], ...] = (
    (_REGION_RE, (" is a city in ",), _in_region),
    (_REGION_PART_RE, ("valley", "bay area", "california"), _in_region),
    (_EURO_RE, ("euro",), _uses_euro),
    (_EU_RE, (" the eu",), _believed_flag("in_eu", "country")),
    (_BIG_FIVE_RE, ("big five",), _believed_flag("big_five_league", "league")),
    (
        _UK_RE,
        (" the uk", " the united kingdom"),
        _believed_flag("uk_home_nation", "country"),
    ),
    (
        _STREET_RE,
        ("street circuit",),
        _believed_flag("street_circuit", "circuit"),
    ),
    (
        _CIRCUIT_REGION_RE,
        ("asia", "europe", "america", "middle east", "oceania"),
        _in_circuit_region,
    ),
    (_TALLER_RE, ("is taller than ",), _height(operator.gt)),
    (_SHORTER_RE, ("is shorter than ",), _height(operator.lt)),
    (_VERTICAL_RE, (" vertical",), _in_vertical),
    (_CURRENCY_RE, (" is the currency ",), _is_currency),
    (_CLASSIC_MOVIE_RE, ("classic",), _is_classic),
    (
        _SENTIMENT_POSITIVE_RE,
        (" is positive",),
        _text_above(sentiment_score, 0.05),
    ),
    (
        _SENTIMENT_NEGATIVE_RE,
        (" is negative",),
        _text_above(lambda text: -sentiment_score(text), 0.05),
    ),
    (_SARCASTIC_RE, (" is sarcastic",), _text_above(sarcasm_score, 0.4)),
    (_TECHNICAL_RE, ("technical",), _text_above(technicality_score, 0.3)),
    (_NATIONALITY_RE, (" is ",), _has_nationality),
)


def judge(condition: str, fuzzy: FuzzyKnowledge, seed: int) -> bool:
    """Boolean LM judgment of a filled-in natural-language condition.

    The first pattern of ``_BANK`` that matches and decides gives the
    verdict.  An ASCII condition is lowered once, and a pattern is tried
    only when the lowered text holds one of its literals.  A non-ASCII
    condition tries every pattern: under ``re.IGNORECASE`` the letters
    ``ſ``, ``K`` (U+212A), ``İ`` and ``ı`` match ASCII ones that
    ``str.lower()`` never produces, so a substring test could miss.
    """
    condition = condition.strip()
    lowered = condition.lower() if condition.isascii() else None
    for pattern, literals, verdict in _BANK:
        if lowered is not None:
            for literal in literals:
                if literal in lowered:
                    break
            else:
                continue
        match = pattern.match(condition)
        if match:
            answer = verdict(match, fuzzy, seed, condition)
            if answer is not None:
                return answer
    # Unknown condition: the model guesses from lexical overlap, the way
    # an LM extrapolates from surface cues on out-of-distribution asks.
    return _lexical_guess(condition, seed)


def _lexical_guess(condition: str, seed: int) -> bool:
    if not has_content_token(condition):
        return False
    return _unit(seed, "guess", condition) < 0.25


# --------------------------------------------------------------------------
# graded judgments (ranking criteria, relevance)
# --------------------------------------------------------------------------

_CRITERION_SCORERS = (
    ("technical", technicality_score),
    ("sarcastic", sarcasm_score),
    ("positive", sentiment_score),
    ("negative", lambda text: -sentiment_score(text)),
    ("critical", lambda text: -sentiment_score(text)),
    ("enthusiastic", sentiment_score),
)


def score(criterion: str, item: str, seed: int) -> float:
    """Graded LM judgment of ``item`` against a ranking ``criterion``.

    A small deterministic jitter models the LM's inconsistency on near-
    ties (the paper notes ranking is TAG's weakest query type because
    exact ordering is hard).
    """
    lowered = criterion.lower()
    base = 0.0
    recognised = False
    for keyword, scorer in _CRITERION_SCORERS:
        if keyword in lowered:
            base = scorer(item)
            recognised = True
            break
    if not recognised:
        base = jaccard_similarity(criterion, item)
    jitter = (_unit(seed, "rank", criterion, item) - 0.5) * RANK_JITTER
    return base + jitter


def compare(criterion: str, left: str, right: str, seed: int) -> bool:
    """Pairwise LM comparison: does ``left`` beat ``right``?

    Real LM comparators are *inconsistent on near-ties*: when two items
    score within a small margin, the call is resolved by a seeded coin
    keyed to the (unordered) pair.  This is the mechanism that makes
    exact top-k ordering the hardest part of ranking queries (§4.3).
    """
    left_score = score(criterion, left, seed)
    right_score = score(criterion, right, seed)
    margin = PAIR_MARGIN
    if abs(left_score - right_score) >= margin:
        return left_score >= right_score
    first, second = sorted((left, right))
    flip = _unit(seed, "pair", criterion, first, second) < 0.5
    return flip if left == first else not flip


def relevance(query: str, document: str, seed: int) -> float:
    """Relevance in [0, 1] of ``document`` to ``query`` (reranking)."""
    base = jaccard_similarity(query, document)
    jitter = (_unit(seed, "relevance", query, document) - 0.5) * 0.1
    return max(0.0, min(1.0, base + jitter))
