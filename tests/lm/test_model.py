"""Unit tests for the SimulatedLM core: tokenizer, latency, model ops."""

import pytest

from repro.errors import ContextLengthError, PromptRoutingError
from repro.lm import LMConfig, LatencyModel, SimulatedLM, count_tokens
from repro.lm.prompts import judgment_prompt


class TestTokenizer:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_roughly_four_chars_per_token(self):
        assert count_tokens("a" * 400) == 100

    def test_word_floor(self):
        text = "a b c d e"
        assert count_tokens(text) >= 5

    def test_monotone_in_length(self):
        assert count_tokens("x" * 100) <= count_tokens("x" * 200)


class TestLatencyModel:
    def test_call_components(self):
        model = LatencyModel(
            overhead_s=1.0, prefill_s_per_1k=2.0, decode_s_per_token=0.5
        )
        assert model.call_seconds(1000, 10) == pytest.approx(
            1.0 + 2.0 + 5.0
        )

    def test_empty_batch_is_free(self):
        assert LatencyModel().batch_seconds([]) == 0.0

    def test_batching_amortises(self):
        model = LatencyModel()
        requests = [(100, 5)] * 16
        batched = model.batch_seconds(requests)
        sequential = sum(
            model.call_seconds(prompt, output)
            for prompt, output in requests
        )
        assert batched < sequential / 3

    def test_parallelism_capped(self):
        model = LatencyModel(max_parallel=4)
        small = model.batch_seconds([(100, 1)] * 4)
        large = model.batch_seconds([(100, 1)] * 8)
        assert large > small


class TestSimulatedLM:
    def test_deterministic_output(self):
        prompt = judgment_prompt(
            "Palo Alto is a city in the Silicon Valley region"
        )
        first = SimulatedLM(LMConfig(seed=0)).complete(prompt)
        second = SimulatedLM(LMConfig(seed=0)).complete(prompt)
        assert first.text == second.text == "yes"

    def test_usage_accounting(self, lm):
        prompt = judgment_prompt("Fresno is a city in the Bay Area region")
        response = lm.complete(prompt)
        assert lm.usage.calls == 1
        assert lm.usage.prompt_tokens == response.prompt_tokens
        assert lm.usage.simulated_seconds == pytest.approx(
            response.latency_s
        )

    def test_batch_shares_overhead(self):
        lm = SimulatedLM(LMConfig(seed=0))
        prompts = [
            judgment_prompt(f"{city} is a city in the Bay Area region")
            for city in ("Oakland", "Fresno", "San Jose", "Napa")
        ]
        responses = lm.complete_batch(prompts)
        batched_total = sum(r.latency_s for r in responses)
        solo = SimulatedLM(LMConfig(seed=0))
        sequential_total = sum(
            solo.complete(prompt).latency_s for prompt in prompts
        )
        assert batched_total < sequential_total
        assert lm.usage.batches == 1
        assert lm.usage.calls == 4

    def test_empty_batch(self, lm):
        assert lm.complete_batch([]) == []

    def test_context_window_enforced(self):
        lm = SimulatedLM(LMConfig(seed=0, context_window=50))
        with pytest.raises(ContextLengthError):
            lm.complete(judgment_prompt("x" * 1000))
        assert lm.usage.context_errors == 1

    def test_max_tokens_truncates(self, lm, datasets):
        from repro.lm.prompts import answer_prompt

        records = datasets["formula_1"].frames["races"].to_records()[:10]
        prompt = answer_prompt(
            "Provide information about the races.", records,
            aggregation=True,
        )
        response = lm.complete(prompt, max_tokens=5)
        assert response.output_tokens <= 5

    def test_truncation_invariant_output_tokens_match_text(
        self, lm, datasets
    ):
        """Regression: ``output_tokens == count_tokens(text)`` always.

        The old truncation sliced to ``budget * 4`` characters and
        *reported* ``budget`` tokens; whitespace-dense text re-counts
        higher than that, so the meter and the text disagreed.
        """
        from repro.lm.prompts import answer_prompt

        records = datasets["formula_1"].frames["races"].to_records()[:10]
        prompt = answer_prompt(
            "Provide information about the races.", records,
            aggregation=True,
        )
        for budget in (1, 3, 5, 17, 64):
            response = lm.complete(prompt, max_tokens=budget)
            assert response.output_tokens == count_tokens(response.text)
            assert response.output_tokens <= budget

    def test_truncate_to_tokens_respects_word_floor(self):
        # 40 one-char words: 2 chars per word, so the 4-chars-per-token
        # inverse alone would keep 5 * 4 = 20 chars = 10 words.
        text = " ".join("a" * 40)
        truncated = SimulatedLM._truncate_to_tokens(text, 5)
        assert count_tokens(truncated) <= 5
        # Maximal: one more character must break the budget.
        longer = text[: len(truncated) + 1]
        assert count_tokens(longer) > 5 or longer == truncated

    def test_truncate_to_tokens_zero_budget(self):
        assert SimulatedLM._truncate_to_tokens("anything at all", 0) == ""

    def test_truncate_to_tokens_noop_within_budget(self):
        assert SimulatedLM._truncate_to_tokens("short", 10) == "short"

    def test_unroutable_prompt_raises(self, lm):
        with pytest.raises(PromptRoutingError):
            lm.complete("complete gibberish with no recognised header")

    def test_usage_snapshot_since(self, lm):
        before = lm.usage.snapshot()
        lm.complete(judgment_prompt("Napa is a city in the Bay Area region"))
        delta = lm.usage.since(before)
        assert delta.calls == 1
        assert delta.simulated_seconds > 0
