"""E19 — concurrency safety: analyzer runtime and race-check overhead.

Two costs matter for the concurrency layer (:mod:`repro.analysis.concurrency`
static pass + :mod:`repro.obs.racecheck` dynamic checker):

- the static analyzer must stay fast enough to sit in ``make verify``
  (it re-reads and re-walks every file under ``src/`` each run);
- the dynamic hooks compiled into the serving stack must be ~free when
  no checker is installed — the same zero-cost-when-disabled contract
  the tracer pins in E15 — and must not perturb virtual numbers when
  one *is* installed.

Smoke mode: set ``REPRO_SMOKE=1`` to shrink the workload for CI-style
verification runs (``make verify``).
"""

import os
import time
from pathlib import Path

from repro.analysis.concurrency import analyze_tree
from repro.lm import LMConfig, SimulatedLM
from repro.obs import racecheck
from repro.obs.racecheck import RaceChecker
from repro.serve import TagServer, demo

from benchmarks.conftest import write_artifact

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
REQUESTS = 8 if SMOKE else 32
NOOP_CALLS = 20_000 if SMOKE else 200_000
ANALYZER_ROUNDS = 1 if SMOKE else 5
WORKERS = 4
WINDOW = 4

REPO_ROOT = Path(__file__).resolve().parents[1]

_FACTORY = demo.pipeline_factory(demo.build_dataset())


def _serve(checked: bool):
    checker = RaceChecker() if checked else None
    server = TagServer(
        _FACTORY,
        SimulatedLM(LMConfig(seed=0)),
        workers=WORKERS,
        window=WINDOW,
    )
    started = time.perf_counter()
    if checker is not None:
        with racecheck.checking(checker):
            report = server.serve(demo.requests(REQUESTS))
    else:
        report = server.serve(demo.requests(REQUESTS))
    elapsed = time.perf_counter() - started
    return report, checker, elapsed


def _time_noop_helpers() -> tuple[float, float]:
    """Seconds per iteration: disabled racecheck hooks vs. empty loop."""
    indices = range(NOOP_CALLS)
    started = time.perf_counter()
    for _ in indices:
        racecheck.write("bench.variable")
    hooked = (time.perf_counter() - started) / NOOP_CALLS
    started = time.perf_counter()
    for _ in indices:
        pass
    empty = (time.perf_counter() - started) / NOOP_CALLS
    return hooked, empty


def test_static_analyzer_runtime(benchmark):
    """Acceptance: a whole-tree analysis of src/ finishes in verify-gate
    time, stays clean, and covers the serving stack's shared surface."""
    report = benchmark.pedantic(
        lambda: analyze_tree(REPO_ROOT),
        rounds=ANALYZER_ROUNDS,
        iterations=1,
    )
    assert report.ok, report.render()
    assert report.files_analyzed > 0
    names = {entry.split(" ")[0] for entry in report.shared_classes}
    assert {"BatchingLM", "UDFMemoCache", "StatementCache"} <= names


def test_racecheck_preserves_serving_numbers(benchmark):
    """Acceptance: a checked replay reproduces the unchecked run's
    virtual numbers field for field, reports race-clean, and the
    disabled hooks cost nanoseconds."""
    (plain, _, wall_off), (checked, checker, wall_on) = (
        benchmark.pedantic(
            lambda: (_serve(checked=False), _serve(checked=True)),
            rounds=1,
            iterations=1,
        )
    )
    assert checked.simulated_seconds == plain.simulated_seconds
    assert checked.usage == plain.usage
    assert checked.answers() == plain.answers()
    race_report = checker.report()
    assert race_report.ok, race_report.render()
    assert race_report.threads == WORKERS + 1

    hooked, empty = _time_noop_helpers()
    write_artifact(
        "racecheck_overhead.txt",
        "\n".join(
            [
                f"Race checking, {REQUESTS} requests, "
                f"{WORKERS} workers, window {WINDOW}:",
                "",
                f"  unchecked wall      {wall_off:.6f} s",
                f"  checked   wall      {wall_on:.6f} s"
                f"  ({race_report.events} events, "
                f"{race_report.variables} vars)",
                f"  virtual identical   "
                f"{checked.simulated_seconds == plain.simulated_seconds}",
                f"  answers identical   "
                f"{checked.answers() == plain.answers()}",
                "",
                f"  disabled hook       {hooked * 1e9:8.1f} ns/call",
                f"  empty loop          {empty * 1e9:8.1f} ns/call",
            ]
        ),
    )
    # A disabled hook is one global read and a branch; 10 µs/call would
    # mean the disabled path allocates.
    assert hooked < 10e-6
    assert wall_off >= 0.0  # timed, reported in the artifact
