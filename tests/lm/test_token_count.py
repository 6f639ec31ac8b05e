"""The token count, pinned against a frozen copy of the one that split
every text.

``count_tokens`` skips ``str.split`` when an upper bound on the word
count (the whitespace characters + 1, every non-ASCII character counted
as one) is no larger than ``ceil(len / 4)``.  ``ref_count_tokens`` below
is the function as it stood before that; it is the oracle, so the
in-repo function cannot be its own.  The texts are drawn from an
alphabet of letters, ``é``, every ASCII whitespace character ``split``
knows and three non-ASCII spaces; they are built on both sides of the
point where the word count overtakes ``ceil(len / 4)``; and they are
every prompt (and response) of ``test_handler_memo.py``'s golden set.

The one place the word count alone decides an error is pinned too: a
word-dense prompt that is short in characters overflows the context
window on ``SimulatedLM.complete`` and, through ``BatchingLM``, gets
the same error and metering from its single replay.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ContextLengthError
from repro.lm import LMConfig, SimulatedLM, count_tokens, prompts
from repro.serve import BatchingLM
from tests.lm.test_handler_memo import golden  # noqa: F401 - a fixture

# ---------------------------------------------------------------------------
# The frozen reference (verbatim copy; do not "tidy")
# ---------------------------------------------------------------------------

_CHARS_PER_TOKEN = 4.0


def ref_count_tokens(text: str) -> int:
    """Approximate token count of ``text``."""
    if not text:
        return 0
    by_chars = math.ceil(len(text) / _CHARS_PER_TOKEN)
    by_words = len(text.split())
    return max(by_chars, by_words, 1)


# ---------------------------------------------------------------------------
# Texts
# ---------------------------------------------------------------------------

#: The ten ASCII characters ``str.split()`` breaks on.
ASCII_SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
#: Non-ASCII characters ``str.split()`` breaks on.
OTHER_SPACES = "\x85\xa0　"
ALPHABET = "abcxyz" + "é" + ASCII_SPACES + OTHER_SPACES


def _crossover_texts(space: str) -> list[str]:
    """Texts over one separator whose word count is just below, equal
    to and just above ``ceil(len / 4)``."""
    return [
        (letter + space) * words + letter * pad
        for letter in ("a", "é")
        for words in range(0, 40)
        for pad in range(max(0, 2 * words - 2), 2 * words + 7)
    ]


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=120))
@example("　a" * 9)
@example("a\x1f" * 9)
@example("\x85")
def test_count_equals_reference_over_the_alphabet(text):
    assert count_tokens(text) == ref_count_tokens(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_count_equals_reference_over_any_text(text):
    assert count_tokens(text) == ref_count_tokens(text)


@pytest.mark.parametrize(
    "unit", ["a ", "a\x1f", "é ", "　a", "\xa0a", "a\x85", " "]
)
def test_repeated_units_equal_reference(unit):
    for n in range(0, 300):
        text = unit * n
        assert count_tokens(text) == ref_count_tokens(text), (unit, n)


@pytest.mark.parametrize("space", list(ASCII_SPACES + OTHER_SPACES))
def test_both_sides_of_the_crossover_equal_reference(space):
    gaps = set()
    for text in _crossover_texts(space):
        assert count_tokens(text) == ref_count_tokens(text), repr(text)
        gaps.add(len(text.split()) - math.ceil(len(text) / _CHARS_PER_TOKEN))
    assert {-1, 0, 1} <= gaps  # the texts really straddle the crossover


def test_golden_prompts_and_responses_equal_reference(golden):  # noqa: F811
    asked, expected = golden
    for prompt in asked:
        assert count_tokens(prompt) == ref_count_tokens(prompt)
        assert count_tokens(prompt[: len(prompt) // 3]) == ref_count_tokens(
            prompt[: len(prompt) // 3]
        )
    for text, *_ in expected.values():
        assert count_tokens(text) == ref_count_tokens(text)


# ---------------------------------------------------------------------------
# The word count decides a context-length error
# ---------------------------------------------------------------------------

WINDOW = 250


@pytest.fixture(params=["a ", "　a"], ids=["ascii", "ideographic"])
def word_dense(request) -> str:
    """A prompt under ``WINDOW`` by characters and over it by words."""
    prompt = prompts.judgment_prompt(request.param * 300)
    assert math.ceil(len(prompt) / _CHARS_PER_TOKEN) < WINDOW
    assert len(prompt.split()) > WINDOW
    return prompt


def _direct(prompt: str) -> tuple[ContextLengthError, object]:
    lm = SimulatedLM(LMConfig(seed=0, context_window=WINDOW))
    with pytest.raises(ContextLengthError) as raised:
        lm.complete(prompt)
    return raised.value, lm.usage.snapshot()


def test_word_count_alone_overflows_the_window(word_dense):
    error, usage = _direct(word_dense)
    assert error.prompt_tokens == ref_count_tokens(word_dense)
    assert error.prompt_tokens == len(word_dense.split())
    assert error.context_window == WINDOW
    assert usage.context_errors == 1
    assert usage.calls == 0


def test_batching_replays_the_overflow_single(word_dense, monkeypatch):
    expected_error, expected_usage = _direct(word_dense)
    inner = SimulatedLM(LMConfig(seed=0, context_window=WINDOW))
    singles: list[str] = []
    batched: list[str] = []
    complete, complete_batch = inner.complete, inner.complete_batch

    def single(prompt, *args, **kwargs):
        singles.append(prompt)
        return complete(prompt, *args, **kwargs)

    def batch(prompt_list, *args, **kwargs):
        batched.extend(prompt_list)
        return complete_batch(prompt_list, *args, **kwargs)

    monkeypatch.setattr(inner, "complete", single)
    monkeypatch.setattr(inner, "complete_batch", batch)
    facade = BatchingLM(inner, window=4)
    fine = prompts.judgment_prompt(
        "Palo Alto is a city in the Silicon Valley region"
    )
    sessions = [facade.open_session(order=i) for i in range(2)]
    outcomes: dict[int, object] = {}

    def work(index: int, prompt: str) -> None:
        with sessions[index]:
            try:
                outcomes[index] = facade.complete(prompt)
            except Exception as exc:  # noqa: BLE001
                outcomes[index] = exc

    threads = [
        threading.Thread(target=work, args=(0, word_dense)),
        threading.Thread(target=work, args=(1, fine)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    error = outcomes[0]
    assert isinstance(error, ContextLengthError)
    assert str(error) == str(expected_error)
    assert error.prompt_tokens == expected_error.prompt_tokens
    assert outcomes[1].text == "yes"
    assert singles == [word_dense]
    assert batched == [fine]
    usage = inner.usage.snapshot()
    assert usage.context_errors == expected_usage.context_errors == 1
    alone = SimulatedLM(LMConfig(seed=0, context_window=WINDOW))
    alone.complete_batch([fine])
    assert usage.since(alone.usage) == expected_usage
