"""Tests for repro.serve.resilience: retries, deadlines, breaker."""

import pytest

from repro.errors import (
    CircuitOpenError,
    ContextLengthError,
    DeadlineExceededError,
    TransientLMError,
)
from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM
from repro.lm.prompts import summary_prompt
from repro.serve import VirtualClock
from repro.serve.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientLM,
    RetryPolicy,
)

PROMPT = summary_prompt("Summarize the notes", ["hello", "world"])


def faulty(script, **plan_overrides) -> FaultyLM:
    return FaultyLM(
        SimulatedLM(LMConfig(seed=0)),
        FaultPlan(script=script, **plan_overrides),
    )


class TestRetryPolicy:
    def test_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_s=1.0,
            backoff_multiplier=2.0,
            max_backoff_s=4.0,
            jitter=0.0,
        )
        sleeps = [
            policy.backoff_seconds(PROMPT, attempt)
            for attempt in (1, 2, 3, 4, 5)
        ]
        assert sleeps == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, jitter=0.25, seed=3
        )
        first = policy.backoff_seconds(PROMPT, 1)
        assert first == policy.backoff_seconds(PROMPT, 1)
        assert 0.75 <= first <= 1.25
        # Different prompts and seeds jitter differently.
        assert first != policy.backoff_seconds(PROMPT + "!", 1)
        reseeded = RetryPolicy(base_backoff_s=1.0, jitter=0.25, seed=4)
        assert first != reseeded.backoff_seconds(PROMPT, 1)


class TestResilientLMRetry:
    def test_retries_through_transient_faults(self):
        lm = ResilientLM(
            faulty(("transient", "rate_limit", None)),
            ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
        )
        response = lm.complete(PROMPT)
        assert response.text
        assert lm.usage.retries == 2
        assert lm.usage.faults_injected == 2
        assert lm.usage.calls == 1

    def test_backoff_costs_simulated_seconds_on_the_clock(self):
        clock = VirtualClock()
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff_s=3.0, jitter=0.0)
        )
        lm = ResilientLM(faulty(("transient", None)), policy, clock=clock)
        lm.complete(PROMPT)
        assert clock.now() == pytest.approx(3.0)

    def test_exhausted_retries_reraise(self):
        lm = ResilientLM(
            faulty(("transient", "transient", "transient")),
            ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
        )
        with pytest.raises(TransientLMError):
            lm.complete(PROMPT)
        assert lm.usage.retries == 1  # one backoff between two attempts

    def test_no_retry_policy_fails_on_first_fault(self):
        lm = ResilientLM(
            faulty(("transient", None)), ResiliencePolicy.no_retry()
        )
        with pytest.raises(TransientLMError):
            lm.complete(PROMPT)
        assert lm.usage.retries == 0

    def test_non_retryable_errors_pass_through(self):
        lm = ResilientLM(
            FaultyLM(SimulatedLM(LMConfig(seed=0)), FaultPlan()),
            ResiliencePolicy(retry=RetryPolicy(max_attempts=4)),
        )
        huge = summary_prompt("Summarize", ["x" * 40000])
        with pytest.raises(ContextLengthError):
            lm.complete(huge)
        assert lm.usage.retries == 0

    def test_healthy_path_is_a_strict_noop(self):
        clock = VirtualClock()
        guarded = ResilientLM(
            FaultyLM(SimulatedLM(LMConfig(seed=0)), FaultPlan()),
            ResiliencePolicy(
                deadline_s=60.0, breaker=BreakerPolicy()
            ),
            clock=clock,
        )
        reference = SimulatedLM(LMConfig(seed=0))
        for _ in range(3):
            assert (
                guarded.complete(PROMPT).text
                == reference.complete(PROMPT).text
            )
        assert guarded.usage == reference.usage
        assert clock.now() == 0.0  # no backoff ever billed


class TestDeadlines:
    def test_deadline_kills_slow_request(self):
        # Each timeout burns 30 simulated seconds; a 40-second budget
        # survives one timeout but dies before paying a second one.
        lm = ResilientLM(
            faulty(
                ("timeout", "timeout", None), timeout_s=30.0
            ),
            ResiliencePolicy(
                retry=RetryPolicy(
                    max_attempts=5, base_backoff_s=1.0, jitter=0.0
                ),
                deadline_s=40.0,
            ),
        )
        with pytest.raises(DeadlineExceededError) as caught:
            lm.complete(PROMPT)
        assert lm.usage.deadline_exceeded == 1
        assert caught.value.deadline_s == 40.0
        assert caught.value.elapsed_s >= 30.0
        # The deadline kill names its cause.
        assert isinstance(caught.value.__cause__, TransientLMError)

    def test_generous_deadline_lets_retries_finish(self):
        lm = ResilientLM(
            faulty(("timeout", None), timeout_s=30.0),
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3, jitter=0.0),
                deadline_s=300.0,
            ),
        )
        assert lm.complete(PROMPT).text
        assert lm.usage.deadline_exceeded == 0


class TestCircuitBreakerStateMachine:
    """Satellite: closed -> open -> half-open -> closed, driven purely
    by the virtual clock."""

    def test_full_cycle(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=3, reset_timeout_s=60.0),
            clock,
        )
        assert breaker.state == CircuitBreaker.CLOSED
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third failure trips it
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.cooldown_remaining() == pytest.approx(60.0)

        clock.advance(59.0)
        assert not breaker.allow()  # still cooling down
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe may proceed

        # Probe fails: re-open with a fresh cooldown.
        assert breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.cooldown_remaining() == pytest.approx(60.0)

        clock.advance(60.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()  # probe succeeds: closed again
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_consecutive_count(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, reset_timeout_s=10.0),
            clock,
        )
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # never 2 in a row

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout_s=0.0)


class TestBreakerInResilientLM:
    def test_open_breaker_fails_fast_with_zero_lm_latency(self):
        """Satellite: an open breaker rejects instantly — no calls, no
        tokens, no simulated seconds."""
        lm = ResilientLM(
            faulty(("transient",) * 8),
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=1),
                breaker=BreakerPolicy(
                    failure_threshold=2, reset_timeout_s=1000.0
                ),
            ),
        )
        for _ in range(2):
            with pytest.raises(TransientLMError):
                lm.complete(PROMPT)
        assert lm.usage.breaker_trips == 1
        before = lm.usage.snapshot()
        for _ in range(5):
            with pytest.raises(CircuitOpenError):
                lm.complete(PROMPT)
        after = lm.usage.since(before)
        assert after.calls == 0
        assert after.faults_injected == 0
        assert after.simulated_seconds == 0.0

    def test_breaker_recovers_via_probe(self):
        timeline = VirtualClock()
        lm = ResilientLM(
            faulty(("transient", "transient", None, None)),
            ResiliencePolicy(
                retry=RetryPolicy(max_attempts=1),
                breaker=BreakerPolicy(
                    failure_threshold=2, reset_timeout_s=4.0
                ),
            ),
            timeline=timeline,
        )
        for _ in range(2):
            with pytest.raises(TransientLMError):
                lm.complete(PROMPT)
        assert lm.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            lm.complete(PROMPT)
        timeline.advance(4.0)  # cooldown elapses in simulated time
        assert lm.breaker.state == CircuitBreaker.HALF_OPEN
        assert lm.complete(PROMPT).text  # the probe succeeds
        assert lm.breaker.state == CircuitBreaker.CLOSED
