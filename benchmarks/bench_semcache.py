"""E20 — semantic serving cache: duplicate-rate x threshold sweep.

Production NL-query streams repeat themselves: the same dashboard
question arrives re-phrased, re-cased, or verbatim, many times a day.
The semantic serving cache (:mod:`repro.serve.semantic`) answers such
repeats from stored :class:`TAGResult`\\ s — canonical-equal repeats via
the exact fast path, paraphrases via embedding similarity above a
threshold — at zero LM cost and zero simulated seconds.

This benchmark sweeps the stream's duplicate rate against the cache's
near-match threshold and serves every stream twice, cache off and cache
on, over the same pipeline and seed.  Each stream arrives as successive
``serve()`` windows (results are stored between windows, as in a
long-running deployment), so repeats inside a window coalesce and
repeats across windows hit the cache.  Expected shape: at duplicate
rate 0 the cache changes nothing (lookups are free, answers identical);
at every positive duplicate rate cache-on strictly dominates cache-off
on goodput and on LM tokens; lowering the threshold converts paraphrase
misses into near hits and widens the win.  The acceptance gate is
*zero wrong-answer hits*: every answer in each cache-on run must be
byte-identical to the cache-off run's answer at the same index.

Smoke mode: set ``REPRO_SMOKE=1`` to shrink the sweep for CI-style
runs (folded into ``make bench-smoke``).
"""

import os

import pytest

from repro.lm import LMConfig, SimulatedLM
from repro.serve import SemanticResultCache, TagServer, demo

from benchmarks.conftest import write_artifact

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

REQUESTS = 12 if SMOKE else 36
WINDOW_REQUESTS = 6 if SMOKE else 12
DUPLICATE_RATES = (0.0, 0.5) if SMOKE else (0.0, 0.25, 0.5, 0.75)
THRESHOLDS = (0.85,) if SMOKE else (0.8, 0.9, 0.95)

_FACTORY = demo.pipeline_factory(demo.build_dataset())

#: Four-slot question generator.  The slot indices follow a linear
#: scheme over Z6 so any two distinct questions differ in at least two
#: content slots, keeping their canonical-embedding cosine below ~0.6 —
#: well clear of the near-match band, so the threshold sweep never
#: conflates genuinely different questions.
_VERBS = ("Summarize", "Rank", "Count", "Compare", "Describe", "Contrast")
_ATTRS = (
    "the reviews", "the revenues", "the ratings",
    "the genres", "the budgets", "the runtimes",
)
_SUBJECTS = (
    "of romance movies", "of horror films", "of comedy releases",
    "of drama pictures", "of action blockbusters", "of animated features",
)
_QUALS = (
    "from the nineties", "released after 2000", "with huge budgets",
    "from small studios", "praised by critics", "loved by audiences",
)


def _question(k: int) -> str:
    i, j = k % 6, k // 6
    return (
        f"{_VERBS[i]} {_ATTRS[j]} {_SUBJECTS[(i + j) % 6]} "
        f"{_QUALS[(i + 2 * j) % 6]}"
    )


#: Surface manglers for repeats of one underlying question.  0 is the
#: original; 1 and 2 are canonical-equal re-phrasings (exact fast
#: path); 3 appends a content word, so it canonicalizes differently
#: (cosine ~0.87-0.94) and can only be caught by the near-match path.
_MANGLERS = (
    lambda q: q,
    lambda q: q.lower() + "!",
    lambda q: q.upper(),
    lambda q: q + " overall",
)


def _stream(duplicate_rate: float) -> list[str]:
    """``REQUESTS`` questions over ``distinct`` underlying questions.

    Repeat ``r`` of a question uses surface mangler ``r % 4``, so a
    duplicate-heavy stream mixes verbatim repeats, canonical-equal
    re-phrasings, and near-paraphrases.
    """
    distinct = max(1, round(REQUESTS * (1.0 - duplicate_rate)))
    return [
        _MANGLERS[(index // distinct) % len(_MANGLERS)](
            _question(index % distinct)
        )
        for index in range(REQUESTS)
    ]


class _Run:
    """Aggregate of one stream served as successive windows."""

    def __init__(self, reports) -> None:
        self.reports = reports

    @property
    def answers(self) -> list[object]:
        return [a for report in self.reports for a in report.answers()]

    @property
    def ok(self) -> bool:
        return all(r.ok for rep in self.reports for r in rep.results)

    @property
    def simulated_seconds(self) -> float:
        return sum(r.simulated_seconds for r in self.reports)

    @property
    def goodput_rps(self) -> float:
        answered = sum(
            r.ok for rep in self.reports for r in rep.results
        )
        return answered / self.simulated_seconds

    @property
    def tokens(self) -> int:
        return sum(
            r.usage.prompt_tokens + r.usage.output_tokens
            for r in self.reports
        )

    def meter(self, name: str) -> int:
        return sum(
            getattr(r.usage, f"semcache_{name}") for r in self.reports
        )


def _serve(requests: list[str], threshold: float | None) -> _Run:
    cache = (
        None
        if threshold is None
        else SemanticResultCache(capacity=256, threshold=threshold)
    )
    server = TagServer(
        _FACTORY,
        SimulatedLM(LMConfig(seed=0)),
        workers=4,
        window=4,
        semantic_cache=cache,
    )
    return _Run(
        [
            server.serve(requests[start : start + WINDOW_REQUESTS])
            for start in range(0, len(requests), WINDOW_REQUESTS)
        ]
    )


def test_duplicate_rate_threshold_sweep(benchmark):
    """Acceptance: cache-on strictly dominates cache-off on goodput and
    LM tokens at every positive duplicate rate, with zero wrong-answer
    cache hits anywhere in the sweep."""

    def sweep():
        cells = {}
        for rate in DUPLICATE_RATES:
            requests = _stream(rate)
            baseline = _serve(requests, threshold=None)
            for threshold in THRESHOLDS:
                cells[(rate, threshold)] = (
                    baseline,
                    _serve(requests, threshold=threshold),
                )
        return cells

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"E20 semantic serving cache, {REQUESTS} requests, "
        "4 workers, window 4:",
        "",
        "  dup-rate  thresh   goodput off->on   tokens off->on"
        "   exact  near  miss",
    ]
    for (rate, threshold), (baseline, cached) in cells.items():
        lines.append(
            f"  {rate:8.2f}  {threshold:6.2f}  "
            f"{baseline.goodput_rps:7.2f} -> {cached.goodput_rps:7.2f}"
            f"  {baseline.tokens:6d} -> {cached.tokens:6d}"
            f"  {cached.meter('hits'):6d}"
            f"  {cached.meter('near_hits'):4d}"
            f"  {cached.meter('misses'):4d}"
        )
    write_artifact("semcache_sweep.txt", "\n".join(lines))

    for (rate, threshold), (baseline, cached) in cells.items():
        # Zero wrong-answer hits: byte-identical answers, index by
        # index, against the cache-off run of the same stream.
        assert cached.answers == baseline.answers, (rate, threshold)
        assert cached.ok
        if rate == 0.0:
            # All-distinct stream: the cache is pure overhead-free
            # bookkeeping — same tokens, same simulated time.
            assert cached.meter("hits") == 0
            assert cached.tokens == baseline.tokens
            assert (
                cached.simulated_seconds == baseline.simulated_seconds
            )
        else:
            hits = cached.meter("hits") + cached.meter("near_hits")
            assert hits > 0, (rate, threshold)
            assert cached.goodput_rps > baseline.goodput_rps, (
                rate,
                threshold,
            )
            assert cached.tokens < baseline.tokens, (rate, threshold)


@pytest.mark.skipif(SMOKE, reason="full sweep only")
def test_lower_threshold_catches_more_paraphrases(benchmark):
    """Near hits grow monotonically as the threshold loosens: the
    paraphrase variant scores between the extremes, so it flips from
    miss to near hit somewhere inside the sweep."""
    requests = _stream(0.75)

    def run():
        return {
            threshold: _serve(requests, threshold=threshold)
            for threshold in THRESHOLDS
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    near = [
        reports[threshold].meter("near_hits")
        for threshold in sorted(THRESHOLDS)
    ]
    for looser, tighter in zip(near, near[1:]):
        assert looser >= tighter
    assert near[0] > near[-1]
