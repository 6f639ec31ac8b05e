r"""Token counting for the simulated LM.

Uses the standard byte-pair-encoding approximation: a token is roughly
four characters of English text, floored by the word count (every word
is at least one token).  Good enough for context-window accounting and
the latency model — exactly the two things the evaluation needs.

The count is exact without always splitting.  Every word of
``text.split()`` ends at a whitespace character or at the end of the
text, so there are at most (whitespace characters + 1) words.  The
whitespace characters are the ten ASCII ones ``str.split`` breaks on
(``\x1c``-``\x1f`` among them), counted as the bytes one
``bytes.translate`` deletes from ``text.encode("ascii", "ignore")``, plus
at most every non-ASCII character (``\x85``, ``\xa0``, U+3000, ...).
When that bound does not exceed ``ceil(len / 4)``, the character term
is the maximum and the split is skipped; otherwise the text is split.
No count is stored between calls.
"""

from __future__ import annotations

import math

_CHARS_PER_TOKEN = 4.0

#: The ASCII characters ``str.split()`` treats as whitespace.
_ASCII_WHITESPACE = b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


def count_tokens(text: str) -> int:
    """Approximate token count of ``text``:
    ``max(ceil(len / 4), len(text.split()), 1)``."""
    if not text:
        return 0
    by_chars = math.ceil(len(text) / _CHARS_PER_TOKEN)
    encoded = text.encode("ascii", "ignore")
    spaces = len(encoded) - len(encoded.translate(None, _ASCII_WHITESPACE))
    if spaces + len(text) - len(encoded) < by_chars:
        return by_chars
    by_words = len(text.split())
    return max(by_chars, by_words, 1)
