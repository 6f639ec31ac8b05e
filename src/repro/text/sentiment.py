"""Lexicon-based sentiment scoring with negation and intensifiers.

``sentiment_score`` returns a value in [-1, 1].  The lexicon covers the
vocabulary the synthetic review/comment generators draw from plus a broad
set of common evaluative English, so scores behave sensibly on free text.
"""

from __future__ import annotations

from repro.text.tokenize import score_tiebreak, tokens

POSITIVE_WORDS = frozenset(
    """
    amazing awesome beautiful best breathtaking brilliant captivating
    charming classic compelling delightful elegant enjoyable excellent
    exceptional fantastic fascinating flawless fun glorious good great
    gripping happy heartwarming helpful impressive incredible inspiring
    love loved lovely magnificent masterful masterpiece memorable moving
    outstanding perfect phenomenal pleasant powerful recommend refreshing
    remarkable rich satisfying solid spectacular splendid strong stunning
    superb sweet terrific thrilling timeless touching unforgettable
    wonderful worthwhile
    """.split()
)

NEGATIVE_WORDS = frozenset(
    """
    annoying awful bad bland boring broken clumsy confusing disappointing
    disappointment dreadful dull failure flawed forgettable frustrating
    hate hated horrible inconsistent lackluster lazy mediocre mess messy
    miserable painful pathetic pointless poor predictable regret
    regrettable ridiculous sloppy slow terrible tedious tiresome
    underwhelming uneven unpleasant unwatchable waste weak worst
    """.split()
)

NEGATIONS = frozenset(
    "not no never neither nor hardly barely scarcely isnt wasnt dont "
    "didnt doesnt cant cannot couldnt wont wouldnt".split()
)

INTENSIFIERS = {
    "very": 1.5,
    "extremely": 2.0,
    "incredibly": 2.0,
    "really": 1.3,
    "truly": 1.3,
    "absolutely": 1.8,
    "utterly": 1.8,
    "so": 1.2,
    "quite": 1.1,
    "somewhat": 0.6,
    "slightly": 0.5,
    "a-bit": 0.5,
}

_NEGATION_WINDOW = 3


def sentiment_score(text: str) -> float:
    """Polarity of ``text`` in [-1, 1]; 0 means neutral/unknown."""
    words = [word.replace("'", "") for word in tokens(text)]
    if not words:
        return 0.0
    total = 0.0
    hits = 0
    for position, word in enumerate(words):
        polarity = 0.0
        if word in POSITIVE_WORDS:
            polarity = 1.0
        elif word in NEGATIVE_WORDS:
            polarity = -1.0
        else:
            continue
        weight = 1.0
        window = words[max(0, position - _NEGATION_WINDOW) : position]
        for preceding in window:
            if preceding in NEGATIONS:
                polarity = -polarity
            multiplier = INTENSIFIERS.get(preceding)
            if multiplier is not None:
                weight *= multiplier
        total += polarity * weight
        hits += 1
    if hits == 0:
        return score_tiebreak(text)
    # Normalise by hit count with diminishing returns on volume.
    score = total / (hits + 1.0)
    return max(-1.0, min(1.0, score)) + score_tiebreak(text)

