"""Tests for repro.lm.faults: plans, injection, and schedule determinism."""

import pytest

from repro.errors import (
    LMTimeoutError,
    MalformedOutputError,
    RateLimitError,
    TransientLMError,
)
from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM
from repro.serve import ResiliencePolicy, RetryPolicy, TagServer, demo

from repro.lm.prompts import summary_prompt

PROMPT = summary_prompt("Summarize the notes", ["hello", "world"])


@pytest.fixture(scope="module")
def movie_dataset():
    return demo.build_dataset()


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rate_limit_rate=0.6, timeout_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(script=("explode",))
        with pytest.raises(ValueError):
            FaultPlan(latency_spike_factor=0.5)

    def test_uniform_splits_rate(self):
        plan = FaultPlan.uniform(0.2, seed=7)
        assert plan.rate_limit_rate == pytest.approx(0.05)
        assert plan.malformed_rate == pytest.approx(0.05)
        assert plan.seed == 7
        assert not plan.is_healthy

    def test_healthy_plan(self):
        assert FaultPlan().is_healthy
        assert not FaultPlan(script=(None,)).is_healthy

    def test_draw_is_pure(self):
        plan = FaultPlan.uniform(0.5, seed=3)
        draws = [plan.draw(f"p{i}", None, 0) for i in range(64)]
        again = [plan.draw(f"p{i}", None, 0) for i in range(64)]
        assert draws == again
        assert any(kind is not None for kind in draws)
        assert any(kind is None for kind in draws)

    def test_draw_varies_with_seed_and_attempt(self):
        base = FaultPlan.uniform(0.5, seed=0)
        reseeded = FaultPlan.uniform(0.5, seed=1)
        prompts = [f"p{i}" for i in range(64)]
        assert [base.draw(p, None, 0) for p in prompts] != [
            reseeded.draw(p, None, 0) for p in prompts
        ]
        assert [base.draw(p, None, 0) for p in prompts] != [
            base.draw(p, None, 1) for p in prompts
        ]


class TestFaultyLM:
    def test_healthy_plan_is_passthrough(self):
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), FaultPlan())
        reference = SimulatedLM(LMConfig(seed=0))
        assert (
            faulty.complete(PROMPT).text == reference.complete(PROMPT).text
        )
        assert faulty.usage == reference.usage
        assert faulty.usage.faults_injected == 0

    def test_scripted_faults_fire_in_order(self):
        plan = FaultPlan(
            script=("rate_limit", "timeout", "transient", None),
            timeout_s=30.0,
        )
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        with pytest.raises(RateLimitError):
            faulty.complete(PROMPT)
        with pytest.raises(LMTimeoutError) as caught:
            faulty.complete(PROMPT)
        assert caught.value.latency_s == 30.0
        with pytest.raises(TransientLMError):
            faulty.complete(PROMPT)
        response = faulty.complete(PROMPT)
        assert response.text
        assert faulty.usage.faults_injected == 3

    def test_fault_latency_billed_to_usage(self):
        plan = FaultPlan(script=("timeout",), timeout_s=12.0)
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        with pytest.raises(LMTimeoutError):
            faulty.complete(PROMPT)
        assert faulty.usage.simulated_seconds == pytest.approx(12.0)
        assert faulty.usage.calls == 0  # the model never ran

    def test_malformed_ran_the_model(self):
        plan = FaultPlan(script=("malformed",))
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        with pytest.raises(MalformedOutputError) as caught:
            faulty.complete(PROMPT)
        # The compute ran: the call is billed and the error carries a
        # full call's latency plus the garbled payload.
        assert faulty.usage.calls == 1
        assert caught.value.latency_s > 0.0
        assert caught.value.text.endswith("\N{REPLACEMENT CHARACTER}")

    def test_latency_spike_inflates_response(self):
        plan = FaultPlan(
            script=("latency_spike",), latency_spike_factor=10.0
        )
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        reference = SimulatedLM(LMConfig(seed=0))
        spiked = faulty.complete(PROMPT)
        normal = reference.complete(PROMPT)
        assert spiked.text == normal.text
        assert spiked.latency_s == pytest.approx(normal.latency_s * 10.0)
        assert faulty.usage.faults_injected == 1
        # The inflated latency is billed, keeping usage consistent
        # with the sum of response latencies.
        assert faulty.usage.simulated_seconds == pytest.approx(
            spiked.latency_s
        )

    def test_batch_peek_rejects_without_consuming(self):
        plan = FaultPlan(script=("transient", None, None))
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        prompts = [PROMPT, PROMPT + " again"]
        with pytest.raises(TransientLMError):
            faulty.complete_batch(prompts)
        # Nothing consumed or billed by the rejected batch...
        assert faulty.usage.faults_injected == 0
        assert faulty.usage.calls == 0
        # ...so the per-prompt replay sees the script from the start.
        with pytest.raises(TransientLMError):
            faulty.complete(prompts[0])
        assert faulty.complete(prompts[1]).text
        assert faulty.usage.faults_injected == 1

    def test_clean_batch_passes_through(self):
        plan = FaultPlan(script=(None, None), transient_rate=0.0)
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        reference = SimulatedLM(LMConfig(seed=0))
        prompts = [PROMPT, PROMPT + " again"]
        assert [r.text for r in faulty.complete_batch(prompts)] == [
            r.text for r in reference.complete_batch(prompts)
        ]
        assert faulty.usage == reference.usage

    def test_retry_of_same_prompt_draws_fresh(self):
        plan = FaultPlan.uniform(0.6, seed=11)
        faulty = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        outcomes = []
        for _ in range(8):  # one evaluation per attempt index
            try:
                faulty.complete(PROMPT)
                outcomes.append("ok")
            except TransientLMError as error:
                outcomes.append(type(error).__name__)
        # At 60% fault rate the attempt sequence must mix outcomes.
        assert "ok" in outcomes
        assert len(set(outcomes)) > 1
        # And the sequence is exactly reproducible from a fresh wrapper.
        replay = FaultyLM(SimulatedLM(LMConfig(seed=0)), plan)
        replayed = []
        for _ in range(8):
            try:
                replay.complete(PROMPT)
                replayed.append("ok")
            except TransientLMError as error:
                replayed.append(type(error).__name__)
        assert replayed == outcomes


def _resilient_server(workers: int, plan: FaultPlan, dataset, window=1):
    return TagServer(
        demo.pipeline_factory(dataset),
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=window,
        fault_plan=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=4)),
    )


class TestServingDeterminismUnderFaults:
    """Satellite: same FaultPlan seed => identical fault schedule and
    identical ServeReport across runs and across worker counts."""

    def test_identical_reports_across_runs(self, movie_dataset):
        plan = FaultPlan.uniform(0.25, seed=5)

        def run():
            server = _resilient_server(4, plan, movie_dataset, window=4)
            return server.serve(demo.requests(12))

        first, second = run(), run()
        assert first.answers() == second.answers()
        assert first.simulated_seconds == second.simulated_seconds
        assert first.usage == second.usage
        assert [r.et_seconds for r in first.results] == [
            r.et_seconds for r in second.results
        ]
        assert [r.ok for r in first.results] == [
            r.ok for r in second.results
        ]
        assert first.usage.retries > 0
        assert first.usage.faults_injected > 0

    def test_identical_schedule_across_worker_counts(self, movie_dataset):
        """Faults are keyed on (seed, prompt, attempt), not call order,
        so the schedule survives re-sharding across workers.  At
        window=1 a single-request batch costs exactly an unbatched
        call, so even simulated seconds agree."""
        plan = FaultPlan.uniform(0.25, seed=5)
        reports = {
            workers: _resilient_server(
                workers, plan, movie_dataset, window=1
            ).serve(demo.requests(12))
            for workers in (1, 3, 12)
        }
        reference = reports[1]
        for report in reports.values():
            assert report.answers() == reference.answers()
            assert report.usage.faults_injected == (
                reference.usage.faults_injected
            )
            assert report.usage.retries == reference.usage.retries
            assert report.simulated_seconds == pytest.approx(
                reference.simulated_seconds
            )

    def test_zero_rate_plan_is_bit_identical_to_no_plan(
        self, movie_dataset
    ):
        """Acceptance: the resilience stack is a zero-cost no-op when
        healthy — with fault rate 0 the server reproduces the plain
        deployment's answers, seconds, and usage exactly."""
        plain = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=8,
        ).serve(demo.requests(10))
        guarded = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=8,
            fault_plan=FaultPlan.uniform(0.0, seed=9),
            resilience=ResiliencePolicy(),
        ).serve(demo.requests(10))
        assert guarded.answers() == plain.answers()
        assert guarded.simulated_seconds == plain.simulated_seconds
        assert guarded.usage == plain.usage
        assert [r.et_seconds for r in guarded.results] == [
            r.et_seconds for r in plain.results
        ]

    def test_faulty_run_degrades_gracefully_with_fallback(
        self, movie_dataset
    ):
        # A brutal plan: everything faults, retries can't save it.
        plan = FaultPlan.uniform(1.0, seed=2)
        server = TagServer(
            # The fallback tier answers with the raw rows: no LM call.
            demo.pipeline_factory(movie_dataset, fallback=True),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=4,
            fault_plan=plan,
            resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=2)),
        )
        report = server.serve(demo.requests(8))
        # Every request is answered (degraded), none errored.
        assert report.availability == 1.0
        assert report.degraded_count == len(report.results)
        for result in report.results:
            assert result.result.method == "table"
            assert result.result.fallbacks[0].method == "tag"
            assert result.result.fallbacks[0].error.kind in {
                "RateLimitError",
                "LMTimeoutError",
                "TransientLMError",
                "MalformedOutputError",
            }
