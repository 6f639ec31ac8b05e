"""Trace-replay race checking of real serve workloads (E19).

Runs the instrumented serving stack under an installed
:class:`RaceChecker` across a worker-count sweep and asserts the replay
is race-clean — and that the instrumentation does not perturb answers.
A deliberately broken cache (lock bypassed) proves the harness would
catch a regression.
"""

from __future__ import annotations

import pytest

from repro.core import (
    FixedQuerySynthesizer,
    SQLExecutor,
    SingleCallGenerator,
    TAGPipeline,
)
from repro.lm import LMConfig, SimulatedLM
from repro.obs import racecheck
from repro.obs.racecheck import RaceChecker
from repro.serve import TagServer, demo


@pytest.fixture(scope="module")
def movie_dataset():
    return demo.build_dataset()


def _checked_serve(dataset, workers: int, *, cache_size: int = 0):
    checker = RaceChecker()
    server = TagServer(
        demo.pipeline_factory(dataset),
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=max(2, workers),
        cache_size=cache_size,
    )
    with racecheck.checking(checker):
        report = server.serve(demo.requests(9))
    return report, checker.report()


class TestServeSweepIsRaceClean:
    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_serve_replay_clean(self, movie_dataset, workers):
        serve_report, race_report = _checked_serve(
            movie_dataset, workers
        )
        assert all(r.ok for r in serve_report.results)
        assert race_report.ok, race_report.render()
        # The replay really exercised the instrumented stack: the main
        # thread plus each tag-worker appears in the checker.
        assert race_report.threads == workers + 1
        assert race_report.events > 0
        assert race_report.variables > 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cached_serve_replay_clean(self, movie_dataset, workers):
        serve_report, race_report = _checked_serve(
            movie_dataset, workers, cache_size=16
        )
        assert all(r.ok for r in serve_report.results)
        assert race_report.ok, race_report.render()

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_sweep_covers_the_statement_cache(self, movie_dataset, workers):
        """Every request executes the same SELECT on the one shared
        ``Database``: the workers race on its first sight, then share
        its entry and its stored plan, under the checker's eyes."""
        cache = movie_dataset.db.statement_cache
        lookups = cache.hits + cache.misses
        checker = RaceChecker()
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=workers,
            window=max(2, workers),
        )
        with racecheck.checking(checker):
            report = server.serve(demo.requests(9))
        assert all(r.ok for r in report.results)
        assert checker.report().ok, checker.report().render()
        assert "StatementCache._entries" in checker._vars
        assert cache.hits + cache.misses == lookups + 9
        assert cache.plan_hits > 0
        assert movie_dataset.db._lookup(demo.ROMANCE_SQL).plan is not None

    def test_checker_does_not_perturb_answers(self, movie_dataset):
        checked, _ = _checked_serve(movie_dataset, workers=4)
        plain = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=4,
        ).serve(demo.requests(9))
        assert checked.answers() == plain.answers()
        assert checked.simulated_seconds == plain.simulated_seconds

    def test_metrics_sweep_counters(self, movie_dataset):
        checker = RaceChecker()
        server = TagServer(
            demo.pipeline_factory(movie_dataset),
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=4,
        )
        with racecheck.checking(checker):
            server.serve(demo.requests(6))
        report = checker.report()
        assert report.ok
        assert report.findings == []
        assert report.events > 0
        assert report.variables > 0
        assert report.threads == 5  # the serve thread and four workers


class TestHarnessCatchesSeededServeRace:
    def test_lockless_memo_cache_is_flagged(self, movie_dataset):
        """Re-introduce the memo cache's old bug (mutation without
        its lock) inside a serve replay: the checker must flag it."""

        class _LocklessCache:
            def __init__(self) -> None:
                self._hits = 0

            def poke(self) -> None:
                racecheck.read("LRUCache._entries")
                hits = self._hits
                racecheck.write("LRUCache._entries")
                self._hits = hits + 1

        shared = _LocklessCache()

        def factory(lm) -> TAGPipeline:
            class _PokingGenerator:
                def generate(self, request, table):
                    shared.poke()
                    return SingleCallGenerator(
                        lm, aggregation=True
                    ).generate(request, table)

            return TAGPipeline(
                FixedQuerySynthesizer(demo.ROMANCE_SQL),
                SQLExecutor(movie_dataset.db),
                _PokingGenerator(),
            )

        checker = RaceChecker()
        server = TagServer(
            factory,
            SimulatedLM(LMConfig(seed=0)),
            workers=4,
            window=4,
        )
        with racecheck.checking(checker):
            server.serve(demo.requests(12))
        report = checker.report()
        assert not report.ok
        assert any(
            f.variable == "LRUCache._entries"
            for f in report.findings
        )
