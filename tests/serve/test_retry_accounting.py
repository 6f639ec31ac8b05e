"""Regression tests pinning Usage counters on the retry/fallback path.

The bug class under test: a retried request being re-metered as a fresh
cache miss (double-counting ``cache_misses``), and a partially failed
batch re-executing — and re-billing — prompts that had already
succeeded.  Each test scripts an exact fault schedule and pins the
exact counter values, so any re-metering regression flips a number.
"""

from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM
from repro.lm.prompts import summary_prompt
from repro.lm.tokenizer import count_tokens
from repro.serve import BatchingLM
from repro.serve.resilience import (
    ResiliencePolicy,
    ResilientLM,
    RetryPolicy,
)

PROMPT_A = summary_prompt("Summarize the notes", ["hello", "world"])
PROMPT_B = summary_prompt("Summarize the letters", ["alpha", "beta"])


def stack(script, cache_size=0):
    """FaultyLM (scripted) -> BatchingLM -> ResilientLM."""
    faulty = FaultyLM(
        SimulatedLM(LMConfig(seed=0)), FaultPlan(script=script)
    )
    batching = BatchingLM(faulty, cache_size=cache_size)
    resilient = ResilientLM(
        batching, ResiliencePolicy(retry=RetryPolicy(max_attempts=3))
    )
    return resilient


class TestRetryMeteringWithCache:
    def test_retried_request_meters_one_cache_miss(self):
        """One transient fault then success: exactly one logical miss.

        The first submission misses (metered), errors, and is retried;
        the retry is a continuation of the same logical request, so it
        must NOT be metered as a second miss (the pre-fix behaviour)
        nor as a hit.
        """
        resilient = stack(("transient", None), cache_size=4)
        response = resilient.complete(PROMPT_A)
        usage = resilient.usage
        assert usage.cache_misses == 1
        assert usage.cache_hits == 0
        assert usage.retries == 1
        assert usage.faults_injected == 1
        # The model ran once: the fault was injected before the call.
        assert usage.calls == 1
        assert usage.prompt_tokens == count_tokens(PROMPT_A)
        assert response.prompt_tokens == count_tokens(PROMPT_A)

    def test_post_retry_completion_is_a_genuine_hit(self):
        """After the retried call lands in the cache, a fresh request
        for the same prompt is a normal (metered) hit."""
        resilient = stack(("transient", None), cache_size=4)
        resilient.complete(PROMPT_A)
        resilient.complete(PROMPT_A)
        usage = resilient.usage
        assert usage.cache_misses == 1
        assert usage.cache_hits == 1
        assert usage.calls == 1

    def test_healthy_path_unchanged(self):
        resilient = stack((None,), cache_size=4)
        resilient.complete(PROMPT_A)
        usage = resilient.usage
        assert usage.cache_misses == 1
        assert usage.cache_hits == 0
        assert usage.retries == 0
        assert usage.calls == 1

    def test_two_retries_meter_two_backoffs_and_still_one_miss(self):
        """Each backoff sleep is one ``retries``; no other resilience
        counter moves, and the logical request stays one miss."""
        resilient = stack(("transient", "transient", None), cache_size=4)
        resilient.complete(PROMPT_A)
        usage = resilient.usage
        assert usage.retries == 2
        assert usage.breaker_trips == 0
        assert usage.deadline_exceeded == 0
        assert usage.cache_misses == 1
        assert usage.cache_hits == 0
        assert usage.faults_injected == 2
        assert usage.calls == 1


class TestPartialBatchRetry:
    def test_failed_slot_retries_without_rebilling_successes(self):
        """Batch of two, second slot faults: only the failure re-runs.

        Script: the batch pre-flight peek rejects the batch (slot 1 is
        a fault), the per-prompt replay consumes slot 0 (success,
        billed) and slot 1 (transient error), and the resilience layer
        retries only PROMPT_B, consuming slot 2 (success).  PROMPT_A's
        already-billed response is reused, so its tokens appear exactly
        once.
        """
        resilient = stack((None, "transient", None))
        responses = resilient.complete_batch([PROMPT_A, PROMPT_B])
        assert len(responses) == 2
        usage = resilient.usage
        assert usage.calls == 2
        assert usage.retries == 1
        assert usage.faults_injected == 1
        assert usage.prompt_tokens == (
            count_tokens(PROMPT_A) + count_tokens(PROMPT_B)
        )
