"""Trace determinism: identical bytes across runs AND worker counts.

The tentpole contract of :mod:`repro.obs`: span durations are pure
functions of each request's own work (token counts, row counts, fault
plans), never of batch composition or thread scheduling, so the
exported artifact is byte-identical for ``workers=1`` and
``workers=8``.  Requests here use distinct prompts with the cache off —
cross-request cache interactions (hit vs. coalesced) legitimately
depend on which requests are in flight together, which *is* a function
of the worker count.
"""

import pytest

from repro.core import (
    FixedQuerySynthesizer,
    SQLExecutor,
    SingleCallGenerator,
    TAGPipeline,
)
from repro.data import movies
from repro.lm import FaultPlan, LMConfig, SimulatedLM
from repro.obs import Tracer, to_chrome, to_jsonl
from repro.serve import TagServer
from repro.serve.resilience import ResiliencePolicy, RetryPolicy

ROMANCE_SQL = (
    "SELECT movie_title, review FROM movies "
    "WHERE genre = 'Romance' ORDER BY revenue DESC LIMIT 1"
)


@pytest.fixture(scope="module")
def movie_dataset():
    return movies.build()


def _serve(dataset, workers, fault_rate=0.0):
    def factory(lm) -> TAGPipeline:
        return TAGPipeline(
            FixedQuerySynthesizer(ROMANCE_SQL),
            SQLExecutor(dataset.db),
            SingleCallGenerator(lm, aggregation=True),
        )

    tracer = Tracer()
    server = TagServer(
        factory,
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=4,
        fault_plan=(
            FaultPlan.uniform(fault_rate, seed=0)
            if fault_rate
            else None
        ),
        resilience=(
            ResiliencePolicy(retry=RetryPolicy(max_attempts=4))
            if fault_rate
            else None
        ),
        tracer=tracer,
    )
    report = server.serve(
        [
            f"Summarize the reviews of the top romance movie (#{index})"
            for index in range(8)
        ]
    )
    return tracer, report


class TestWorkerCountInvariance:
    def test_chrome_bytes_identical_workers_1_vs_8(self, movie_dataset):
        tracer_1, report_1 = _serve(movie_dataset, workers=1)
        tracer_8, report_8 = _serve(movie_dataset, workers=8)
        assert to_chrome(tracer_1) == to_chrome(tracer_8)
        # Requests, errors and per-request ET are worker-count invariant
        # too; batch shape (and so the makespan's value) legitimately is
        # not.
        for report in (report_1, report_8):
            assert len(report.results) == 8
            assert report.errors == []
            assert all(r.et_seconds > 0.0 for r in report.results)
            assert report.usage.batches >= 1
            assert report.simulated_seconds > 0.0

    def test_jsonl_bytes_identical_workers_1_vs_8(self, movie_dataset):
        tracer_1, _ = _serve(movie_dataset, workers=1)
        tracer_8, _ = _serve(movie_dataset, workers=8)
        assert to_jsonl(tracer_1) == to_jsonl(tracer_8)

    def test_invariant_under_rate_based_faults(self, movie_dataset):
        """Rate faults draw from pure (prompt, attempt) hashes, so the
        retry spans they cause are worker-count invariant too."""
        tracer_1, report_1 = _serve(movie_dataset, 1, fault_rate=0.3)
        tracer_8, report_8 = _serve(movie_dataset, 8, fault_rate=0.3)
        assert report_1.usage.faults_injected > 0
        assert report_1.usage.retries == report_8.usage.retries
        assert to_jsonl(tracer_1) == to_jsonl(tracer_8)

    def test_identical_across_repeat_runs(self, movie_dataset):
        tracer_a, _ = _serve(movie_dataset, workers=3, fault_rate=0.3)
        tracer_b, _ = _serve(movie_dataset, workers=3, fault_rate=0.3)
        assert to_chrome(tracer_a) == to_chrome(tracer_b)


class TestTraceContent:
    def test_every_request_has_a_root(self, movie_dataset):
        tracer, report = _serve(movie_dataset, workers=3)
        assert [index for index, _ in tracer.roots] == list(range(8))
        for result, (_, root) in zip(report.results, tracer.roots):
            assert result.result.trace is root
            assert root.attrs["request"] == result.request

    def test_pipeline_steps_and_operators_present(self, movie_dataset):
        tracer, _ = _serve(movie_dataset, workers=2)
        _, root = tracer.roots[0]
        names = [span.name for span in root.walk()]
        assert "step:synthesis" in names
        assert "step:execution" in names
        assert "step:generation" in names
        assert any(name.startswith("op:Scan") for name in names)
        assert any(name.startswith("op:Limit") for name in names)
        assert "lm.call" in names

    def test_untraced_serving_report_unchanged(self, movie_dataset):
        """Tracing must not perturb the serving numbers it observes."""
        _, traced = _serve(movie_dataset, workers=3, fault_rate=0.3)

        def plain():
            def factory(lm):
                return TAGPipeline(
                    FixedQuerySynthesizer(ROMANCE_SQL),
                    SQLExecutor(movie_dataset.db),
                    SingleCallGenerator(lm, aggregation=True),
                )

            server = TagServer(
                factory,
                SimulatedLM(LMConfig(seed=0)),
                workers=3,
                window=4,
                fault_plan=FaultPlan.uniform(0.3, seed=0),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(max_attempts=4)
                ),
            )
            return server.serve(
                [
                    "Summarize the reviews of the top romance movie "
                    f"(#{index})"
                    for index in range(8)
                ]
            )

        untraced = plain()
        assert traced.simulated_seconds == untraced.simulated_seconds
        assert traced.usage == untraced.usage
        assert traced.answers() == untraced.answers()

