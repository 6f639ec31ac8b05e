"""Equivalence and determinism tests for the micro-batching LM facade.

The determinism guarantee behind every ET number in the tables:

- ``complete_batch(prompts)`` returns exactly the texts and token
  counts of per-prompt ``complete`` (batching buys latency, nothing
  else);
- ``BatchingLM`` under real concurrency matches a single-threaded
  ``SimulatedLM`` answer-for-answer and token-for-token, and its
  simulated seconds are identical across reruns.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ContextLengthError,
    PromptRoutingError,
    TransientLMError,
)
from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM, prompts
from repro.obs import Tracer, trace
from repro.serve import BatchingLM, VirtualClock

CONDITIONS = [
    "Palo Alto is a city in the Silicon Valley region",
    "Fresno is a city in the Bay Area region",
    "Oakland is a city in the Bay Area region",
    "Napa is a city in the Bay Area region",
    "San Jose is a city in the Silicon Valley region",
]

PROMPT_POOL = [
    *[prompts.judgment_prompt(condition) for condition in CONDITIONS],
    prompts.scoring_prompt("is technical", "the drivetrain torque map"),
    prompts.relevance_prompt("formula one races", "- name: Sepang"),
    prompts.comparison_prompt("is more technical", "gearbox", "picnic"),
    prompts.summary_prompt("Summarize the rows", ["- a: 1", "- a: 2"]),
]


def fresh_lm() -> SimulatedLM:
    return SimulatedLM(LMConfig(seed=0))


class TestBatchSequentialEquivalence:
    """complete_batch must equal per-prompt complete on the inner LM."""

    @given(
        st.lists(
            st.sampled_from(PROMPT_POOL), min_size=1, max_size=12
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_texts_and_tokens_match(self, prompt_list):
        batched = fresh_lm().complete_batch(prompt_list)
        sequential_lm = fresh_lm()
        sequential = [
            sequential_lm.complete(prompt) for prompt in prompt_list
        ]
        assert [r.text for r in batched] == [r.text for r in sequential]
        assert [r.prompt_tokens for r in batched] == [
            r.prompt_tokens for r in sequential
        ]
        assert [r.output_tokens for r in batched] == [
            r.output_tokens for r in sequential
        ]

    @given(
        st.lists(st.sampled_from(PROMPT_POOL), min_size=1, max_size=12)
    )
    @settings(max_examples=25, deadline=None)
    def test_usage_tokens_match(self, prompt_list):
        batched_lm = fresh_lm()
        batched_lm.complete_batch(prompt_list)
        sequential_lm = fresh_lm()
        for prompt in prompt_list:
            sequential_lm.complete(prompt)
        assert batched_lm.usage.calls == sequential_lm.usage.calls
        assert (
            batched_lm.usage.prompt_tokens
            == sequential_lm.usage.prompt_tokens
        )
        assert (
            batched_lm.usage.output_tokens
            == sequential_lm.usage.output_tokens
        )
        # Batching buys latency: never slower than sequential.
        assert (
            batched_lm.usage.simulated_seconds
            <= sequential_lm.usage.simulated_seconds
        )


def run_concurrent(
    worker_prompts: list[list[str]], window: int, cache_size: int = 0
) -> tuple[list[list], SimulatedLM, VirtualClock]:
    """Run each worker's prompt sequence through one shared BatchingLM."""
    inner = fresh_lm()
    clock = VirtualClock()
    facade = BatchingLM(
        inner, window=window, cache_size=cache_size, clock=clock
    )
    sessions = [
        facade.open_session(order=index)
        for index in range(len(worker_prompts))
    ]
    outputs: list[list] = [[] for _ in worker_prompts]
    errors: list[Exception] = []

    def work(index: int) -> None:
        with sessions[index]:
            try:
                for prompt in worker_prompts[index]:
                    outputs[index].append(facade.complete(prompt))
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(len(worker_prompts))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    return outputs, inner, clock


class TestConcurrentDeterminism:
    def test_matches_single_threaded_simulated_lm(self):
        worker_prompts = [
            [PROMPT_POOL[(worker + step) % len(PROMPT_POOL)]
             for step in range(3)]
            for worker in range(6)
        ]
        outputs, _, _ = run_concurrent(worker_prompts, window=4)
        reference = fresh_lm()
        for worker, prompt_list in enumerate(worker_prompts):
            for step, prompt in enumerate(prompt_list):
                expected = reference.complete(prompt)
                got = outputs[worker][step]
                assert got.text == expected.text
                assert got.prompt_tokens == expected.prompt_tokens
                assert got.output_tokens == expected.output_tokens

    def test_simulated_seconds_reproducible_across_runs(self):
        worker_prompts = [
            [PROMPT_POOL[(worker * 2 + step) % len(PROMPT_POOL)]
             for step in range(4)]
            for worker in range(5)
        ]
        runs = [
            run_concurrent(worker_prompts, window=3) for _ in range(3)
        ]
        seconds = [
            inner.usage.simulated_seconds for _, inner, _ in runs
        ]
        clocks = [clock.now() for _, _, clock in runs]
        assert seconds[0] == seconds[1] == seconds[2]
        assert clocks[0] == clocks[1] == clocks[2]
        texts = [
            [[r.text for r in worker] for worker in outputs]
            for outputs, _, _ in runs
        ]
        assert texts[0] == texts[1] == texts[2]

    def test_wider_window_never_slower(self):
        worker_prompts = [
            [PROMPT_POOL[(worker + step) % len(PROMPT_POOL)]
             for step in range(3)]
            for worker in range(8)
        ]
        _, narrow, _ = run_concurrent(worker_prompts, window=1)
        _, wide, _ = run_concurrent(worker_prompts, window=8)
        assert wide.usage.prompt_tokens == narrow.usage.prompt_tokens
        assert wide.usage.output_tokens == narrow.usage.output_tokens
        assert (
            wide.usage.simulated_seconds
            < narrow.usage.simulated_seconds
        )

    def test_clock_advances_by_total_batch_latency(self):
        worker_prompts = [[PROMPT_POOL[0]], [PROMPT_POOL[1]]]
        _, inner, clock = run_concurrent(worker_prompts, window=8)
        assert clock.now() == pytest.approx(
            inner.usage.simulated_seconds
        )


class TestFacadeInterface:
    def test_drop_in_single_call(self):
        facade = BatchingLM(fresh_lm(), window=4)
        expected = fresh_lm().complete(PROMPT_POOL[0])
        got = facade.complete(PROMPT_POOL[0])
        assert got.text == expected.text
        assert got.output_tokens == expected.output_tokens

    def test_facade_complete_batch(self):
        facade = BatchingLM(fresh_lm(), window=2)
        expected = fresh_lm().complete_batch(PROMPT_POOL[:5])
        got = facade.complete_batch(PROMPT_POOL[:5])
        assert [r.text for r in got] == [r.text for r in expected]

    def test_empty_batch(self):
        assert BatchingLM(fresh_lm()).complete_batch([]) == []

    def test_window_validated(self):
        with pytest.raises(ValueError):
            BatchingLM(fresh_lm(), window=0)

    def test_usage_is_shared_with_inner(self):
        inner = fresh_lm()
        facade = BatchingLM(inner)
        facade.complete(PROMPT_POOL[0])
        assert facade.usage is inner.usage
        assert inner.usage.calls == 1


class TestErrorIsolation:
    def test_oversized_prompt_matches_unbatched_error(self):
        inner = SimulatedLM(LMConfig(seed=0, context_window=50))
        facade = BatchingLM(inner, window=4)
        with pytest.raises(ContextLengthError):
            facade.complete(prompts.judgment_prompt("x" * 1000))
        assert inner.usage.context_errors == 1
        assert inner.usage.calls == 0

    def test_oversized_prompt_spares_batch_mates(self):
        inner = SimulatedLM(LMConfig(seed=0, context_window=60))
        facade = BatchingLM(inner, window=4)
        oversized = prompts.judgment_prompt("y" * 1000)
        fine = prompts.judgment_prompt(CONDITIONS[0])
        sessions = [facade.open_session(order=i) for i in range(2)]
        outcomes: dict[int, object] = {}

        def work(index: int, prompt: str) -> None:
            with sessions[index]:
                try:
                    outcomes[index] = facade.complete(prompt)
                except Exception as exc:  # noqa: BLE001
                    outcomes[index] = exc

        threads = [
            threading.Thread(target=work, args=(0, oversized)),
            threading.Thread(target=work, args=(1, fine)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert isinstance(outcomes[0], ContextLengthError)
        assert outcomes[1].text == "yes"

    def test_unroutable_prompt_spares_batch_mates(self):
        facade = BatchingLM(fresh_lm(), window=4)
        sessions = [facade.open_session(order=i) for i in range(2)]
        outcomes: dict[int, object] = {}

        def work(index: int, prompt: str) -> None:
            with sessions[index]:
                try:
                    outcomes[index] = facade.complete(prompt)
                except Exception as exc:  # noqa: BLE001
                    outcomes[index] = exc

        threads = [
            threading.Thread(
                target=work, args=(0, "gibberish with no header")
            ),
            threading.Thread(
                target=work,
                args=(1, prompts.judgment_prompt(CONDITIONS[0])),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert isinstance(outcomes[0], PromptRoutingError)
        assert outcomes[1].text == "yes"


class TestPromptCache:
    def test_hit_returns_identical_text_at_zero_latency(self):
        inner = fresh_lm()
        facade = BatchingLM(inner, cache_size=8)
        first = facade.complete(PROMPT_POOL[0])
        second = facade.complete(PROMPT_POOL[0])
        assert second.text == first.text
        assert second.output_tokens == first.output_tokens
        assert second.latency_s == 0.0
        assert inner.usage.cache_hits == 1
        assert inner.usage.cache_misses == 1

    def test_hits_do_not_double_meter(self):
        inner = fresh_lm()
        facade = BatchingLM(inner, cache_size=8)
        facade.complete(PROMPT_POOL[0])
        calls = inner.usage.calls
        tokens = inner.usage.prompt_tokens + inner.usage.output_tokens
        seconds = inner.usage.simulated_seconds
        facade.complete(PROMPT_POOL[0])
        assert inner.usage.calls == calls
        assert (
            inner.usage.prompt_tokens + inner.usage.output_tokens
            == tokens
        )
        assert inner.usage.simulated_seconds == seconds

    def test_max_tokens_is_part_of_the_key(self):
        inner = fresh_lm()
        facade = BatchingLM(inner, cache_size=8)
        facade.complete(PROMPT_POOL[0], max_tokens=4)
        facade.complete(PROMPT_POOL[0], max_tokens=8)
        assert inner.usage.cache_hits == 0
        assert inner.usage.cache_misses == 2

    def test_inflight_duplicates_coalesce(self):
        """Concurrent identical prompts share one inner call."""
        outputs, inner, _ = run_concurrent(
            [[PROMPT_POOL[0]], [PROMPT_POOL[0]], [PROMPT_POOL[0]]],
            window=8,
            cache_size=8,
        )
        texts = {worker[0].text for worker in outputs}
        assert len(texts) == 1
        assert inner.usage.calls == 1
        assert inner.usage.cache_misses == 1
        assert inner.usage.cache_hits == 2

    def test_coalesced_call_is_led_by_the_earliest_session(self):
        """Session 1 submits first and session 0 rides its call; the
        flush still hands the call to session 0, so which request is
        billed for it never depends on thread timing."""
        facade = BatchingLM(fresh_lm(), cache_size=8)
        early, late = facade.open_session(0), facade.open_session(1)
        tracer = Tracer()

        def submit_first():
            with late, tracer.request("late", 1):
                facade.complete(PROMPT_POOL[0])

        thread = threading.Thread(target=submit_first)
        thread.start()
        while not late.waiting:
            time.sleep(0.001)
        with early, tracer.request("early", 0):
            facade.complete(PROMPT_POOL[0])
        thread.join()
        vias = [
            [
                span.attrs["via"]
                for span in root.walk()
                if span.name == "lm.call"
            ]
            for _, root in tracer.roots
        ]
        assert vias == [["miss"], ["coalesced"]]

    def test_a_retried_leader_leaves_the_hit_with_its_follower(self):
        """Session 1 re-submits a prompt that errored (a retry, so no
        miss is counted) and session 0 rides it (a hit is counted).
        After the flush hands the call to session 0, the two requests'
        charged hits still add up to what Usage counted."""
        faulty = FaultyLM(fresh_lm(), FaultPlan(script=("transient",)))
        facade = BatchingLM(faulty, cache_size=8)
        with pytest.raises(TransientLMError):
            facade.complete(PROMPT_POOL[0])
        early, late = facade.open_session(0), facade.open_session(1)
        scopes = {}

        def submit_retry():
            with late, trace.request(None, "late", 1) as scope:
                facade.complete(PROMPT_POOL[0])
            scopes["late"] = scope

        thread = threading.Thread(target=submit_retry)
        thread.start()
        while not late.waiting:
            time.sleep(0.001)
        with early, trace.request(None, "early", 0) as scope:
            facade.complete(PROMPT_POOL[0])
        scopes["early"] = scope
        thread.join()
        assert facade.usage.cache_hits == 1
        assert facade.usage.cache_misses == 1
        assert (scopes["early"].lm_calls, scopes["early"].cache_hits) == (1, 0)
        assert (scopes["late"].lm_calls, scopes["late"].cache_hits) == (0, 1)

    def test_disabled_cache_meters_nothing(self):
        inner = fresh_lm()
        facade = BatchingLM(inner, cache_size=0)
        facade.complete(PROMPT_POOL[0])
        facade.complete(PROMPT_POOL[0])
        assert inner.usage.cache_hits == 0
        assert inner.usage.cache_misses == 0
        assert inner.usage.calls == 2

    def test_capacity_two_evicts_least_recently_used(self):
        """A, B, A, C, B at capacity 2: the second A promotes A, so C
        evicts B and the last B misses (first-in eviction would hit)."""
        inner = fresh_lm()
        facade = BatchingLM(inner, cache_size=2)
        a, b, c = PROMPT_POOL[:3]
        for prompt in (a, b, a, c, b):
            facade.complete(prompt)
        assert inner.usage.cache_hits == 1
        assert inner.usage.cache_misses == 4
        assert inner.usage.calls == 4
