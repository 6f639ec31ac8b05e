"""Word and sentence tokenisation."""

from __future__ import annotations

import re
import zlib

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9'_-]*|\d+(?:\.\d+)?")
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")

#: Common English function words excluded from frequency statistics.
STOPWORDS = frozenset(
    """
    a an and are as at be but by for from has have he her his i if in is
    it its me my no nor not of on or our she so that the their them they
    this to was we were what when which who will with you your
    """.split()
)


def tokens(text: str, lowercase: bool = True) -> list[str]:
    """Word tokens of ``text`` (letters/digits, keeps in-word hyphens)."""
    found = _WORD_RE.findall(text)
    if lowercase:
        return [token.lower() for token in found]
    return found


def content_tokens(text: str) -> list[str]:
    """Lower-cased tokens with stopwords removed."""
    return [token for token in tokens(text) if token not in STOPWORDS]


def has_content_token(text: str) -> bool:
    """Whether :func:`content_tokens` would keep any token of ``text``,
    answered at the first one it keeps."""
    for match in _WORD_RE.finditer(text):
        if match.group().lower() not in STOPWORDS:
            return True
    return False


def score_tiebreak(text: str) -> float:
    """A tiny deterministic per-text epsilon in [0, 1e-4).

    Text scorers add this so that distinct texts never score exactly
    equal — rankings become total orders, and the gold labels and the
    simulated LM break ties identically.
    """
    return (zlib.crc32(text.encode("utf-8")) % 10_000) * 1e-8


def sentences(text: str) -> list[str]:
    """Split text into sentences on terminal punctuation."""
    stripped = text.strip()
    if not stripped:
        return []
    pieces = _SENTENCE_END_RE.split(stripped)
    return [piece.strip() for piece in pieces if piece.strip()]
