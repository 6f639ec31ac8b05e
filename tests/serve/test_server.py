"""Tests for TagServer: ordering, equivalence, survival, determinism."""

import pytest

from repro.core import (
    FixedQuerySynthesizer,
    SQLExecutor,
    SingleCallGenerator,
    TAGPipeline,
)
from repro.lm import LMConfig, SimulatedLM
from repro.serve import TagServer, demo


@pytest.fixture(scope="module")
def movie_dataset():
    return demo.build_dataset()


class TestTagServer:
    def test_serves_all_requests_in_order(self, movie_dataset):
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=8,
        )
        report = server.serve(demo.requests(10))
        assert [r.index for r in report.results] == list(range(10))
        assert all(r.ok for r in report.results)
        assert report.errors == []
        assert all(r.result.answer for r in report.results)

    def test_matches_unserved_pipeline_answers(self, movie_dataset):
        """Concurrent serving returns exactly the sequential answers."""
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=3,
            window=4,
        )
        served = server.serve(demo.requests(6)).answers()
        reference_lm = SimulatedLM(LMConfig(seed=0))
        pipeline = demo.pipeline_factory(movie_dataset)(reference_lm)
        sequential = [
            pipeline.run(request).answer for request in demo.requests(6)
        ]
        assert served == sequential

    def test_deterministic_across_runs(self, movie_dataset):
        def run():
            server = TagServer(
                demo.pipeline_factory(movie_dataset),
                SimulatedLM(LMConfig(seed=0)),
                workers=4,
                window=4,
            )
            return server.serve(demo.requests(9))

        first, second = run(), run()
        assert first.answers() == second.answers()
        assert first.simulated_seconds == second.simulated_seconds
        assert (
            first.usage.simulated_seconds
            == second.usage.simulated_seconds
        )
        assert [r.et_seconds for r in first.results] == [
            r.et_seconds for r in second.results
        ]

    def test_usage_additive_with_per_request_diagnostics(
        self, movie_dataset
    ):
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=8,
        )
        report = server.serve(demo.requests(8))
        assert (
            sum(r.lm_calls for r in report.results)
            == report.usage.calls
        )
        assert sum(
            r.et_seconds for r in report.results
        ) == pytest.approx(report.usage.simulated_seconds)
        # Makespan equals accelerator-serialized batch time.
        assert report.simulated_seconds == pytest.approx(
            report.usage.simulated_seconds
        )

    def test_identical_requests_are_charged_identical_et(
        self, movie_dataset
    ):
        """Three rounds of three identical-shape requests: every
        request is charged the same seconds, bit for bit.  ET is the
        sum of the request's own charges, not a difference of its
        worker's running totals, so no rounding differs by round."""
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=3,
            window=3,
        )
        report = server.serve(demo.requests(9))
        assert len({r.et_seconds for r in report.results}) == 1

    def test_batching_beats_single_worker(self, movie_dataset):
        def run(workers, window):
            server = TagServer(
                demo.pipeline_factory(movie_dataset),
                SimulatedLM(LMConfig(seed=0)),
                workers=workers,
                window=window,
            )
            return server.serve(demo.requests(12))

        solo = run(workers=1, window=1)
        batched = run(workers=12, window=12)
        assert batched.answers() == solo.answers()
        assert batched.simulated_seconds < solo.simulated_seconds
        assert batched.throughput_rps > solo.throughput_rps

    def test_cache_serves_repeated_requests(self, movie_dataset):
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=8,
            cache_size=64,
        )
        same = [demo.REQUEST] * 8
        report = server.serve(same)
        assert report.usage.cache_hits == 7
        assert report.usage.cache_misses == 1
        assert report.usage.calls == 1
        assert len(set(report.answers())) == 1

    def test_more_workers_than_requests(self, movie_dataset):
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=16,
            window=8,
        )
        report = server.serve(demo.requests(3))
        assert len(report.results) == 3
        assert all(r.ok for r in report.results)

    def test_empty_request_list(self, movie_dataset):
        server = TagServer(
            demo.pipeline_factory(movie_dataset), SimulatedLM(LMConfig(seed=0))
        )
        report = server.serve([])
        assert report.results == []
        assert report.throughput_rps == 0.0

    def test_workers_validated(self, movie_dataset):
        with pytest.raises(ValueError):
            TagServer(demo.pipeline_factory(movie_dataset), workers=0)

    def test_window_validated(self, movie_dataset):
        with pytest.raises(ValueError):
            TagServer(demo.pipeline_factory(movie_dataset), window=0)


class _ExplodingGenerator:
    """A buggy user-supplied generation step (not a ReproError)."""

    def generate(self, request, table):
        raise ValueError("buggy custom step")


class TestWorkerSurvival:
    def test_buggy_step_fails_request_not_run(self, movie_dataset):
        def factory(lm) -> TAGPipeline:
            return TAGPipeline(
                FixedQuerySynthesizer(demo.ROMANCE_SQL),
                SQLExecutor(movie_dataset.db),
                _ExplodingGenerator(),
            )

        server = TagServer(
            factory, SimulatedLM(LMConfig(seed=0)), workers=4
        )
        report = server.serve(demo.requests(6))
        assert len(report.results) == 6
        assert all(not r.ok for r in report.results)
        assert all(
            r.result.error.kind == "ValueError"
            and r.result.error.step_name == "generation"
            for r in report.results
        )

    def test_mixed_failures_isolated(self, movie_dataset):
        """One worker's broken pipeline never blocks the others."""
        calls = iter(range(100))

        def factory(lm) -> TAGPipeline:
            if next(calls) == 0:  # first worker gets the broken one
                return TAGPipeline(
                    FixedQuerySynthesizer(demo.ROMANCE_SQL),
                    SQLExecutor(movie_dataset.db),
                    _ExplodingGenerator(),
                )
            return demo.pipeline_factory(movie_dataset)(lm)

        server = TagServer(
            factory, SimulatedLM(LMConfig(seed=0)), workers=3
        )
        report = server.serve(demo.requests(9))
        failed = [r for r in report.results if not r.ok]
        succeeded = [r for r in report.results if r.ok]
        assert {r.worker for r in failed} == {0}
        assert len(succeeded) == 6
        assert all(r.result.answer for r in succeeded)

    def test_crashing_factory_fails_its_requests_only(
        self, movie_dataset
    ):
        workers_built = iter(range(100))

        def factory(lm) -> TAGPipeline:
            if next(workers_built) == 0:
                raise RuntimeError("factory exploded")
            return demo.pipeline_factory(movie_dataset)(lm)

        server = TagServer(
            factory, SimulatedLM(LMConfig(seed=0)), workers=3
        )
        report = server.serve(demo.requests(6))
        failed = [r for r in report.results if not r.ok]
        assert {r.worker for r in failed} == {0}
        assert all(
            r.result.error.kind == "RuntimeError"
            and r.result.error.step is None
            for r in failed
        )
        assert len([r for r in report.results if r.ok]) == 4


class _Fatal(BaseException):
    """Harsher than Exception: simulates a dying worker, not a bad step."""


class TestFatalWorkerSurfacing:
    def test_fatal_exception_reraises_instead_of_hanging(
        self, movie_dataset
    ):
        """A worker dying on a BaseException must surface from serve(),
        not hang the barrier or silently short-count results."""

        class DyingGenerator:
            def generate(self, request, table):
                raise _Fatal("worker killed")

        def factory(lm) -> TAGPipeline:
            return TAGPipeline(
                FixedQuerySynthesizer(demo.ROMANCE_SQL),
                SQLExecutor(movie_dataset.db),
                DyingGenerator(),
            )

        server = TagServer(
            factory, SimulatedLM(LMConfig(seed=0)), workers=3, window=2
        )
        with pytest.raises(_Fatal):
            server.serve(demo.requests(6))


class TestServeReportAccounting:
    def _report(self, et_seconds, ok_flags=None, degraded_flags=None):
        from repro.core import TAGError
        from repro.core.tag import TAGResult
        from repro.lm.usage import Usage
        from repro.serve import ServeReport, ServeResult

        count = len(et_seconds)
        ok_flags = ok_flags or [True] * count
        degraded_flags = degraded_flags or [False] * count
        results = []
        for index, (seconds, ok, degraded) in enumerate(
            zip(et_seconds, ok_flags, degraded_flags)
        ):
            result = TAGResult(
                request=f"q{index}",
                answer="a" if ok else None,
                error=None if ok else TAGError("X", "boom"),
                degraded=degraded,
            )
            results.append(
                ServeResult(
                    index=index,
                    request=f"q{index}",
                    result=result,
                    et_seconds=seconds,
                    worker=0,
                    lm_calls=1,
                    cache_hits=0,
                )
            )
        return ServeReport(
            results=results,
            simulated_seconds=sum(et_seconds),
            usage=Usage(),
            workers=1,
            window=1,
        )

    def test_availability_and_goodput(self):
        report = self._report(
            [1.0, 1.0, 1.0, 1.0],
            ok_flags=[True, True, False, True],
            degraded_flags=[False, True, False, False],
        )
        assert report.availability == 0.75
        assert report.degraded_count == 1
        assert report.goodput_rps == pytest.approx(3 / 4.0)
        assert report.throughput_rps == pytest.approx(4 / 4.0)

    def test_empty_report_is_fully_available(self):
        report = self._report([])
        assert report.availability == 1.0
        assert report.degraded_count == 0
        assert report.latency_percentile(0.95) == 0.0

    def test_latency_percentiles_nearest_rank(self):
        report = self._report([float(v) for v in range(1, 21)])
        assert report.latency_percentile(0.50) == 10.0
        assert report.latency_percentile(0.95) == 19.0
        assert report.latency_percentile(1.00) == 20.0
        with pytest.raises(ValueError):
            report.latency_percentile(0.0)
        with pytest.raises(ValueError):
            report.latency_percentile(1.5)


class TestNoReferenceCycles:
    """A failed request's error record keeps the exception but not its
    traceback, whose frames hold the very result the record sits in:
    nothing a pass leaves behind should need the cycle collector."""

    def test_serve_pass_leaves_nothing_for_the_cycle_collector(
        self, suite, datasets
    ):
        import gc
        from collections import Counter

        from repro.core import LMQuerySynthesizer

        domain_of = {spec.question: spec.domain for spec in suite}

        class Router:
            def __init__(self, lm) -> None:
                self.pipelines = {
                    name: TAGPipeline(
                        LMQuerySynthesizer(
                            lm, dataset, retrieval_mode=True
                        ),
                        SQLExecutor(dataset.db, analyze=True, max_rows=50),
                        SingleCallGenerator(lm),
                    )
                    for name, dataset in datasets.items()
                }

            def run(self, request: str):
                return self.pipelines[domain_of[request]].run(request)

        server = TagServer(
            Router, SimulatedLM(LMConfig(seed=0)), workers=2, window=8
        )
        questions = [spec.question for spec in suite]
        server.serve(questions)  # warm caches and lazy imports
        gc.collect()
        gc.disable()
        try:
            report = server.serve(questions)
            failed = [r for r in report.results if not r.ok]
            assert failed  # the pass does exercise the error path
            assert all(
                r.result.error.exception.__traceback__ is None
                for r in failed
            )
            del report, failed
            # Saved, not freed, so a failure can say what was in cycles:
            # the ten most common types, with counts.
            flags = gc.get_debug()
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            try:
                found = gc.collect()
                leaked = Counter(
                    type(garbage).__qualname__ for garbage in gc.garbage
                ).most_common(10)
            finally:
                gc.garbage.clear()
                gc.set_debug(flags)
            assert found < 20, f"{found} objects in cycles: {leaked}"
        finally:
            gc.enable()
