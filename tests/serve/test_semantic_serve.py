"""TagServer + semantic cache integration: equivalence, invariance,
admission pricing, tracing, race-cleanliness."""

from __future__ import annotations

import hashlib

import pytest

from repro.lm import LMConfig, SimulatedLM
from repro.obs import racecheck
from repro.obs.export import to_chrome
from repro.obs.racecheck import RaceChecker
from repro.obs.trace import Tracer
from repro.serve import (
    AdmissionPolicy,
    SemanticResultCache,
    SQLAdmissionEstimator,
    TagServer,
    demo,
)


@pytest.fixture(scope="module")
def movie_dataset():
    return demo.build_dataset()


def _server(dataset, workers=4, cache=None, **kwargs) -> TagServer:
    return TagServer(
        demo.pipeline_factory(dataset),
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=max(2, workers),
        semantic_cache=cache,
        **kwargs,
    )


def _strip_traces(report):
    return [
        (r.index, r.request, r.result, r.worker, r.semantic)
        for r in report.results
    ]


class TestHitEqualsFreshExecution:
    def test_cached_answers_byte_identical_to_fresh(self, movie_dataset):
        """The acceptance property: every semantic hit returns a
        TAGResult equal to what fresh execution would produce."""
        requests = demo.requests(6)
        cache = SemanticResultCache(capacity=64)
        warm_server = _server(movie_dataset, cache=cache)
        fresh = warm_server.serve(requests)
        assert all(r.semantic is None for r in fresh.results)
        cached = warm_server.serve(requests)
        assert [r.semantic for r in cached.results] == ["exact"] * 6
        # TAGResult equality covers query, table, answer, error,
        # method, degraded, fallbacks (trace is excluded by design).
        assert [r.result for r in cached.results] == [
            r.result for r in fresh.results
        ]
        cold = _server(movie_dataset).serve(requests)
        assert [r.result for r in cached.results] == [
            r.result for r in cold.results
        ]

    def test_all_hit_run_costs_zero_lm(self, movie_dataset):
        cache = SemanticResultCache(capacity=64)
        server = _server(movie_dataset, cache=cache)
        server.serve(demo.requests(4))
        report = server.serve(demo.requests(4))
        assert report.simulated_seconds == 0.0
        assert report.usage.calls == 0
        assert report.usage.prompt_tokens == 0
        assert report.usage.output_tokens == 0
        assert report.usage.semcache_hits == 4
        assert all(r.et_seconds == 0.0 for r in report.results)
        assert all(r.worker == -2 for r in report.results)

    def test_in_run_duplicates_coalesce_onto_leader(self, movie_dataset):
        cache = SemanticResultCache(capacity=64)
        server = _server(movie_dataset, cache=cache)
        requests = [
            "Summarize the reviews of the top romance movie",
            "summarize the review of the top romance movies!",
            "Summarize the reviews of the top romance movie (#1)",
            "Summarize the reviews of the top romance movie",
        ]
        report = server.serve(requests)
        assert [r.semantic for r in report.results] == [
            None,
            "coalesced",
            None,
            "coalesced",
        ]
        leader = report.results[0].result
        assert report.results[1].result.answer == leader.answer
        assert report.results[3].result.answer == leader.answer
        # Followers keep their own request text.
        assert report.results[1].result.request == requests[1]
        assert report.usage.semcache_hits == 2

    def test_invalidation_restores_fresh_execution(self, movie_dataset):
        cache = SemanticResultCache(capacity=64)
        server = _server(movie_dataset, cache=cache)
        requests = demo.requests(3)
        first = server.serve(requests)
        cache.invalidate()
        assert cache.usage.semcache_invalidations == 3
        third = server.serve(requests)
        assert all(r.semantic is None for r in third.results)
        assert third.answers() == first.answers()


class TestWorkerCountInvariance:
    REQUESTS = [
        "Summarize the reviews of the top romance movie",
        "Summarize the reviews of the top romance movie (#1)",
        "summarize the reviews of the top romance movies",
        "Summarize the reviews of the top romance movie (#2)",
        "Summarize the reviews of the top romance movie (#1)!",
        "Summarize the reviews of the top romance movie (#3)",
    ]

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_replay_byte_identical_with_cache_on(
        self, movie_dataset, workers
    ):
        """Serving the same stream twice from a cold start replays
        byte-identically at workers 1/4/8 with the cache on — timings,
        worker assignment, usage, cache state, everything."""

        def run():
            cache = SemanticResultCache(capacity=64)
            server = _server(movie_dataset, workers=workers, cache=cache)
            warm = server.serve(self.REQUESTS)
            hot = server.serve(self.REQUESTS)
            return (
                [
                    (r.index, r.request, r.result, r.worker,
                     r.semantic, r.et_seconds)
                    for report in (warm, hot)
                    for r in report.results
                ],
                warm.usage,
                hot.usage,
                warm.simulated_seconds,
                hot.simulated_seconds,
                cache.stats(),
            )

        assert run() == run()

    @pytest.mark.parametrize("workers", [4, 8])
    def test_outcomes_invariant_across_worker_counts(
        self, movie_dataset, workers
    ):
        """Per-request timings shift with micro-batch composition, but
        the TAG outcomes, the hit/miss/coalesce partition, the cache
        state, and the entire all-hit replay are worker-count pure."""

        def run(n):
            cache = SemanticResultCache(capacity=64)
            server = _server(movie_dataset, workers=n, cache=cache)
            warm = server.serve(self.REQUESTS)
            hot = server.serve(self.REQUESTS)
            return (
                [(r.index, r.result, r.semantic) for r in warm.results],
                _strip_traces(hot),
                hot.usage,
                hot.simulated_seconds,
                cache.stats(),
            )

        assert run(workers) == run(1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cache_state_pure_function_of_stream(
        self, movie_dataset, workers
    ):
        cache = SemanticResultCache(capacity=64)
        server = _server(movie_dataset, workers=workers, cache=cache)
        server.serve(demo.requests(5))
        assert len(cache) == 5
        assert cache.stats() == {
            "entries": 5,
            "index_rows": 5,
            "tombstones": 0,
        }


class TestAdmissionPricesHitsAtZero:
    def _admission(self, db, budget):
        return AdmissionPolicy(
            estimator=SQLAdmissionEstimator(db, demo.query_for),
            max_lm_calls=budget,
        )

    def test_decide_cached_admits_over_budget_request(
        self, movie_dataset
    ):
        policy = self._admission(movie_dataset.db, budget=1)
        fresh = policy.decide("deep scan of every review")
        assert not fresh.admit
        cached = policy.decide("deep scan of every review", cached=True)
        assert cached.admit

    def test_cached_hit_skips_admission_budget(self, movie_dataset):
        """A request too expensive to admit fresh is served once it is
        in the cache: the hit costs zero, so admission prices it zero."""
        cache = SemanticResultCache(capacity=16)
        generous = _server(
            movie_dataset,
            cache=cache,
            admission=self._admission(movie_dataset.db, budget=10_000),
        )
        request = demo.REQUEST
        warm = generous.serve([request])
        assert warm.results[0].ok and warm.admission_rejected == 0

        class _Rejecting:
            def __call__(self, request):
                raise AssertionError(
                    "estimator must not run for cached requests"
                )

        strict = _server(
            movie_dataset,
            cache=cache,
            admission=AdmissionPolicy(
                estimator=_Rejecting(), max_lm_calls=0
            ),
        )
        report = strict.serve([request])
        assert report.results[0].semantic == "exact"
        assert report.admission_rejected == 0


class TestSemanticTracing:
    def test_hit_trace_has_lookup_leaf(self, movie_dataset):
        cache = SemanticResultCache(capacity=16)
        tracer = Tracer()
        server = _server(movie_dataset, cache=cache, tracer=tracer)
        request = demo.REQUEST
        server.serve([request])
        tracer.clear()
        report = server.serve([request])
        assert report.results[0].semantic == "exact"
        roots = tracer.roots
        assert [index for index, _ in roots] == [0]
        root = roots[0][1]
        leaves = [span for span in root.walk() if span is not root]
        assert [leaf.name for leaf in leaves] == ["semcache.lookup"]
        assert leaves[0].attrs["outcome"] == "hit"
        assert leaves[0].attrs["via"] == "exact"
        assert leaves[0].attrs["similarity"] == 1.0
        assert report.results[0].result.trace is root

    def test_miss_trace_has_lookup_leaf(self, movie_dataset):
        cache = SemanticResultCache(capacity=16)
        tracer = Tracer()
        server = _server(movie_dataset, cache=cache, tracer=tracer)
        report = server.serve([demo.REQUEST])
        assert report.results[0].semantic is None
        root = tracer.roots[0][1]
        first = root.children[0]
        assert first.name == "semcache.lookup"
        assert first.attrs["outcome"] == "miss"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_hit_traces_worker_count_invariant(
        self, movie_dataset, workers
    ):
        """All-hit replay traces are identical at any worker count:
        every lookup resolves sequentially on the serve thread."""

        def spans(n):
            cache = SemanticResultCache(capacity=16)
            tracer = Tracer()
            server = _server(
                movie_dataset, workers=n, cache=cache, tracer=tracer
            )
            server.serve(demo.requests(4))
            tracer.clear()
            server.serve(demo.requests(4))
            return [
                (index, [(s.name, s.start_s, s.end_s) for s in root.walk()])
                for index, root in tracer.roots
            ]

        assert spans(workers) == spans(1)


class TestPinnedCachedServe:
    """A TagServer with a semantic cache, served warm then hot at
    workers 1 and 8: the ServeReports and the Chrome trace, pinned."""

    #: workers -> (sha256 of the per-result rows, worker per result,
    #: makespan of the warm run, warm-run LM batches).
    EXPECTED = {
        1: (
            "b69505a79bd27a92c50179a1fc5b67ca8de17f0e1eb65d8db9382f6944f9bca9",
            [0, 0, -2, 0, -2, 0] + [-2] * 6,
            5.1599,
            4,
        ),
        8: (
            "54f77a482d129473a03f531e253ebfe1af92523c9b17508c667f3bd817ff3397",
            [0, 1, -2, 2, -2, 3] + [-2] * 6,
            1.289975,
            1,
        ),
    }
    #: The same at every worker count: spans live on per-request
    #: virtual timelines.
    CHROME_SHA256 = (
        "e9b3df076a2b1a00b8cc894e2ed86e3240fd72f4512693e7146a823812af2a08"
    )

    @pytest.mark.parametrize("workers", [1, 8])
    def test_reports_and_trace(self, movie_dataset, workers):
        tracer = Tracer()
        server = _server(
            movie_dataset,
            workers=workers,
            cache=SemanticResultCache(capacity=64),
            tracer=tracer,
        )
        requests = TestWorkerCountInvariance.REQUESTS
        warm, hot = server.serve(requests), server.serve(requests)
        rows = [
            (r.index, r.request, r.worker, r.semantic, r.et_seconds,
             r.lm_calls, r.cache_hits, r.result.answer)
            for report in (warm, hot)
            for r in report.results
        ]
        digest, placed, makespan, batches = self.EXPECTED[workers]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
        assert [row[2] for row in rows] == placed
        assert [row[3] for row in rows] == (
            [None, None, "coalesced", None, "coalesced", None]
            + ["exact"] * 6
        )
        assert (warm.simulated_seconds, hot.simulated_seconds) == (
            makespan,
            0.0,
        )
        assert [
            (u.calls, u.batches, u.prompt_tokens, u.output_tokens,
             u.semcache_hits, u.semcache_misses)
            for u in (warm.usage, hot.usage)
        ] == [(4, batches, 447, 280, 2, 4), (0, 0, 0, 0, 6, 0)]
        assert (warm.semantic_entries, hot.semantic_entries) == (0, 4)
        chrome = to_chrome(tracer).encode("utf-8")
        assert hashlib.sha256(chrome).hexdigest() == self.CHROME_SHA256


class TestSemanticServeRaceClean:
    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_replay_clean_with_cache(self, movie_dataset, workers):
        checker = RaceChecker()
        cache = SemanticResultCache(capacity=64)
        server = _server(movie_dataset, workers=workers, cache=cache)
        with racecheck.checking(checker):
            warm = server.serve(demo.requests(9))
            hot = server.serve(demo.requests(9))
        assert all(r.ok for r in warm.results)
        assert all(r.semantic == "exact" for r in hot.results)
        report = checker.report()
        assert report.ok, report.render()
        assert report.threads >= workers + 1
        assert report.events > 0

