"""The simulated judge's condition bank, pinned against a frozen copy.

``judge`` with its eighteen condition patterns, ``_lexical_guess``,
``_unit`` and ``noisy_threshold`` are copied below exactly as they
stood when this file was written.  They are what the live bank gets
rewritten from, so ``repro.lm.concepts`` cannot be its own oracle.
Every test asks both for a verdict on the same condition and requires
the same answer (or the same exception), at seeds 0 and 7, with an
oracle knowledge view (skepticism 0) and with the calibrated default.

The conditions come from five places:

- strings each pattern matches in full, so every branch is reached;
- the same strings with ``s``/``k``/``i`` swapped for ``ſ``, ``K``
  (U+212A), ``İ`` and ``ı``, which ``re.IGNORECASE`` matches to ASCII
  letters although ``str.lower()`` never produces them;
- ``'<text>' is a positive review``, the shape the SQL ``LLM`` UDF
  sends;
- every condition the hand-written TAG pipelines send over the suite;
- arbitrary text.
"""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.knowledge import FuzzyKnowledge
from repro.knowledge.movies import MOVIE_FACTS
from repro.lm import LMConfig, SimulatedLM, concepts, prompts
from repro.lm.udf import judgment_udf_prompt
from repro.methods.handwritten import HandwrittenTAGMethod
from repro.text.sarcasm import sarcasm_score
from repro.text.sentiment import sentiment_score
from repro.text.technicality import technicality_score
from repro.text.tokenize import content_tokens

# ---------------------------------------------------------------------------
# The frozen reference (verbatim copies; do not "tidy")
# ---------------------------------------------------------------------------


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
    if score >= threshold + margin:
        return True
    if score <= threshold - margin:
        return False
    lean = (score - (threshold - margin)) / (2 * margin)
    return _unit(seed, "judge", key) < lean


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

TEXT_MARGIN = 0.04


def ref_judge(condition: str, fuzzy: FuzzyKnowledge, seed: int) -> bool:
    """Boolean LM judgment of a filled-in natural-language condition."""
    condition = condition.strip()

    match = _REGION_RE.match(condition) or _REGION_PART_RE.match(condition)
    if match:
        return fuzzy.believes_in_region(
            match.group("city").strip(), match.group("region").strip()
        )
    match = _EURO_RE.match(condition)
    if match:
        return fuzzy.believed_uses_euro(match.group("country").strip())
    match = _EU_RE.match(condition)
    if match:
        return bool(
            fuzzy.believe("in_eu", match.group("country").strip(), False)
        )
    match = _BIG_FIVE_RE.match(condition)
    if match:
        return bool(
            fuzzy.believe(
                "big_five_league", match.group("league").strip(), False
            )
        )
    match = _UK_RE.match(condition)
    if match:
        return bool(
            fuzzy.believe(
                "uk_home_nation", match.group("country").strip(), False
            )
        )
    match = _STREET_RE.match(condition)
    if match:
        return bool(
            fuzzy.believe(
                "street_circuit", match.group("circuit").strip(), False
            )
        )
    match = _CIRCUIT_REGION_RE.match(condition)
    if match:
        believed = fuzzy.believe(
            "circuit_region", match.group("circuit").strip()
        )
        return (
            believed is not None
            and believed == match.group("region").strip().lower()
        )
    match = _TALLER_RE.match(condition)
    if match:
        reference = fuzzy.believed_height_cm(match.group("person").strip())
        if reference is None:
            return False
        return float(match.group("height")) > reference
    match = _SHORTER_RE.match(condition)
    if match:
        reference = fuzzy.believed_height_cm(match.group("person").strip())
        if reference is None:
            return False
        return float(match.group("height")) < reference
    match = _VERTICAL_RE.match(condition)
    if match:
        believed = fuzzy.believe(
            "company_vertical", match.group("company").strip()
        )
        return (
            believed is not None
            and str(believed).lower()
            == match.group("vertical").strip().lower()
        )
    match = _CURRENCY_RE.match(condition)
    if match:
        believed = fuzzy.believe(
            "currency", match.group("country").strip()
        )
        return (
            believed is not None
            and str(believed).upper() == match.group("code").upper()
        )
    match = _CLASSIC_MOVIE_RE.match(condition)
    if match:
        title = match.group("title").strip().lower()
        entry = _CLASSIC_MOVIES.get(title)
        if entry is None:
            return False
        classic, confidence = entry
        if _unit(seed, "classic", title) < 1.0 - confidence:
            return not classic
        return classic
    match = _SENTIMENT_POSITIVE_RE.match(condition)
    if match:
        score = sentiment_score(match.group("text"))
        return noisy_threshold(score, 0.05, TEXT_MARGIN, seed, condition)
    match = _SENTIMENT_NEGATIVE_RE.match(condition)
    if match:
        score = -sentiment_score(match.group("text"))
        return noisy_threshold(score, 0.05, TEXT_MARGIN, seed, condition)
    match = _SARCASTIC_RE.match(condition)
    if match:
        score = sarcasm_score(match.group("text"))
        return noisy_threshold(score, 0.4, TEXT_MARGIN, seed, condition)
    match = _TECHNICAL_RE.match(condition)
    if match:
        score = technicality_score(match.group("text"))
        return noisy_threshold(score, 0.3, TEXT_MARGIN, seed, condition)
    match = _NATIONALITY_RE.match(condition)
    if match:
        believed = fuzzy.believe(
            "driver_nationality", match.group("driver").strip()
        )
        if believed is not None:
            lowered = match.group("nationality").strip().lower()
            return str(believed).lower() == lowered
    # Unknown condition: the model guesses from lexical overlap, the way
    # an LM extrapolates from surface cues on out-of-distribution asks.
    return _lexical_guess(condition, seed)


def _lexical_guess(condition: str, seed: int) -> bool:
    words = content_tokens(condition)
    if not words:
        return False
    return _unit(seed, "guess", condition) < 0.25


PATTERNS = [
    _REGION_RE,
    _REGION_PART_RE,
    _EURO_RE,
    _EU_RE,
    _BIG_FIVE_RE,
    _UK_RE,
    _STREET_RE,
    _CIRCUIT_REGION_RE,
    _TALLER_RE,
    _SHORTER_RE,
    _NATIONALITY_RE,
    _CLASSIC_MOVIE_RE,
    _VERTICAL_RE,
    _CURRENCY_RE,
    _SENTIMENT_POSITIVE_RE,
    _SENTIMENT_NEGATIVE_RE,
    _SARCASTIC_RE,
    _TECHNICAL_RE,
]

# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

#: (seed, skepticism): an oracle knowledge view and the calibrated one.
VIEWS = [
    (seed, skepticism)
    for seed in (0, 7)
    for skepticism in (0.0, LMConfig().skepticism)
]


@pytest.fixture(scope="module")
def views(kb):
    return [
        (FuzzyKnowledge(kb, seed=seed, skepticism=skepticism), seed)
        for seed, skepticism in VIEWS
    ]


def outcome(judge, condition, fuzzy, seed):
    try:
        return ("ok", judge(condition, fuzzy, seed))
    except Exception as exc:  # noqa: BLE001 - an error must match too
        return ("raised", type(exc).__name__, str(exc))


def assert_same_verdicts(views, conditions) -> None:
    for condition in conditions:
        for fuzzy, seed in views:
            assert outcome(concepts.judge, condition, fuzzy, seed) == outcome(
                ref_judge, condition, fuzzy, seed
            ), (condition, seed)


#: ASCII letters ``re.IGNORECASE`` also matches to a non-ASCII one.
FOLDS = {"s": "ſ", "S": "ſ", "k": "K", "K": "K", "i": "İı", "I": "İı"}


def folded_variants(text: str) -> list[str]:
    """``text`` with every foldable letter swapped, one spelling each."""
    variants = []
    for ascii_letter, spellings in FOLDS.items():
        if ascii_letter in text:
            for spelling in spellings:
                variants.append(text.replace(ascii_letter, spelling))
    return variants


# ---------------------------------------------------------------------------
# (a) every branch, and its case-folded spellings
# ---------------------------------------------------------------------------


def test_the_bank_is_eighteen_patterns():
    assert len(PATTERNS) == 18
    assert len({pattern.pattern for pattern in PATTERNS}) == 18


@pytest.mark.parametrize(
    "pattern", PATTERNS, ids=[f"p{index}" for index in range(18)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_full_matches_of_each_pattern(views, pattern, data):
    condition = data.draw(st.from_regex(pattern, fullmatch=True))
    assert_same_verdicts(views, [condition] + folded_variants(condition))


#: Conditions whose verdict takes each pattern's branch, and the
#: spellings ``str.lower()`` does not fold but the regexes do.
KNOWN = [
    "Palo Alto is a city in the Silicon Valley region",
    "Oakland is part of the Bay Area",
    "Slovakia uses the euro",
    "Poland is a member of the European Union",
    "England Premier League is one of Europe's 'big five' football leagues",
    "Scotland is part of the United Kingdom",
    "Circuit de Monaco is a street circuit",
    "Sepang International Circuit is located in southeast asia",
    "190 is taller than Stephen Curry",
    "a player with height 165.5 is shorter than Lionel Messi",
    "Lewis Hamilton is a British driver",
    "Casablanca is considered a 'classic'",
    "Acme Corp is in the 'fintech' vertical",
    "EUR is the currency of Germany",
    "The review 'Excellent answer, wonderful and helpful.' is positive",
    "The comment 'A terrible, confusing mess.' is negative",
    "The comment 'Oh great, another broken proof.' is sarcastic",
    "The title 'Eigenvalue shrinkage in covariance estimation' is technical",
    "Sepang International Circuit is in aſia",
    "Circuit de Monaco is a ſtreet circuit",
    "Poland is in the EU.",
    "Poland is in the european union?",
    "Acme Corp is in the 'fintecK' vertical",
    "The title 'x' is technİcal",
    "The title 'x' is technıcal",
    "the review 'good' is poſitive",
    "",
    "   ",
    "is",
    "the and of",
]


def test_known_conditions_and_their_folds(views):
    conditions = list(KNOWN)
    for condition in KNOWN:
        conditions += folded_variants(condition)
    assert_same_verdicts(views, conditions)


# ---------------------------------------------------------------------------
# (b) the SQL ``LLM`` UDF's shape
# ---------------------------------------------------------------------------

#: Words that sit near a pattern's literals, so a review text can make
#: a condition look like another pattern's.
REVIEW_WORDS = [
    "the", "food", "was", "great", "awful", "and", "service", "felt",
    "is", "a", "positive", "negative", "review", "comment", "text",
    "sarcastic", "technical", "classic", "euro", "EU", "UK", "big five",
    "leagues", "street circuit", "asia", "vertical", "currency of",
    "taller than", "190", "'", '"', ".", "?", "(h3)", "ſ", "K", "İ", "ı",
]  # fmt: skip

review_texts = st.one_of(
    st.lists(st.sampled_from(REVIEW_WORDS), max_size=12).map(" ".join),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(text=review_texts)
@example(text="the food was great and the service felt awful (h3)")
@example(text="the service is positive")
@example(text="")
def test_positive_review_conditions(views, text):
    conditions = [f"'{text}' is a positive review"]
    conditions += folded_variants(conditions[0])
    assert_same_verdicts(views, conditions)


@settings(max_examples=100, deadline=None)
@given(
    text=review_texts,
    task=st.sampled_from(
        ["a positive review", "positive", "sarcastic", "a classic", "in the EU"]
    ),
)
def test_udf_prompt_conditions(views, text, task):
    prompt = judgment_udf_prompt(task, text)
    condition = prompt[prompt.index("Statement: ") + len("Statement: ") :]
    assert_same_verdicts(views, [condition])


# ---------------------------------------------------------------------------
# (c) what the hand-written TAG pipelines ask
# ---------------------------------------------------------------------------


class RecordingLM(SimulatedLM):
    """A ``SimulatedLM`` that keeps every prompt it is sent."""

    def __init__(self) -> None:
        super().__init__(LMConfig(seed=0))
        self.asked: list[str] = []

    def complete(self, prompt, max_tokens=None):
        self.asked.append(prompt)
        return super().complete(prompt, max_tokens)

    def complete_batch(self, prompts, max_tokens=None):
        self.asked.extend(prompts)
        return super().complete_batch(prompts, max_tokens)


@pytest.fixture(scope="module")
def pipeline_conditions(suite, datasets):
    lm = RecordingLM()
    method = HandwrittenTAGMethod(lm)
    for spec in suite:
        method.answer(spec, datasets[spec.domain])
    marker = "Statement: "
    return list(
        dict.fromkeys(
            prompt[prompt.index(marker) + len(marker) :]
            for prompt in lm.asked
            if prompt.startswith(prompts.JUDGMENT_HEADER)
        )
    )


def test_hand_written_pipeline_conditions(views, pipeline_conditions):
    assert len(pipeline_conditions) > 100
    # Both the knowledge bank and the text scorers are reached.
    assert any(" is a city in " in c for c in pipeline_conditions)
    assert any(c.startswith("The comment '") for c in pipeline_conditions)
    assert_same_verdicts(views, pipeline_conditions)


# ---------------------------------------------------------------------------
# (d) anything
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(condition=st.text())
@example(condition="Kelvin İs ſtrange")
@example(condition="\n190 is taller than Stephen Curry\n")
def test_arbitrary_text(views, condition):
    assert_same_verdicts(views, [condition] + folded_variants(condition))
