"""E13 — serving throughput: micro-batch window x concurrency sweep.

The paper credits hand-written TAG's low ET to vLLM-style batched
inference (§4.3); a *server* gets the same win across concurrent
requests by coalescing their LM calls into micro-batches
(:mod:`repro.serve`).  This benchmark sweeps the micro-batch window and
the worker count over a fixed request stream and reports simulated
requests/sec — deterministic, machine-independent numbers from the
virtual clock.

Expected shape: throughput grows monotonically with the window up to
the latency model's ``max_parallel`` (16), then flattens; at window 1
micro-batching is off and every request pays full per-call overhead.
"""

import pytest

from repro.lm import LMConfig, SimulatedLM
from repro.serve import TagServer, demo

from benchmarks.conftest import write_artifact

WINDOWS = (1, 2, 4, 8, 16)
WORKER_COUNTS = (1, 4, 16)
REQUESTS = 32

_FACTORY = demo.pipeline_factory(demo.build_dataset())


def _serve(workers: int, window: int):
    server = TagServer(
        _FACTORY,
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=window,
    )
    return server.serve(demo.requests(REQUESTS))


@pytest.mark.parametrize("window", WINDOWS)
def test_window_sweep(benchmark, window):
    report = benchmark.pedantic(
        lambda: _serve(workers=16, window=window),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nwindow={window}: {report.throughput_rps:.2f} req/s "
        f"({report.simulated_seconds:.2f}s simulated)"
    )
    assert all(result.ok for result in report.results)


def test_serving_throughput_monotone(benchmark):
    """Acceptance: throughput improves monotonically window 1 -> optimal."""
    reports = benchmark.pedantic(
        lambda: {
            window: _serve(workers=16, window=window)
            for window in WINDOWS
        },
        rounds=1,
        iterations=1,
    )
    lines = [
        f"TAG serving throughput, {REQUESTS} requests, 16 workers:",
        "",
        "  window   req/s   simulated-s   LM batches",
    ]
    lines += [
        f"  {window:6d}  {report.throughput_rps:6.2f}  "
        f"{report.simulated_seconds:11.2f}  {report.usage.batches:10d}"
        for window, report in reports.items()
    ]
    throughputs = [
        reports[window].throughput_rps for window in WINDOWS
    ]
    speedup = throughputs[-1] / throughputs[0]
    lines.append(f"\n  window-1 -> window-16 speedup: {speedup:.1f}x")

    concurrency_lines = ["", "Worker sweep at window 16:"]
    for workers in WORKER_COUNTS:
        report = _serve(workers=workers, window=16)
        concurrency_lines.append(
            f"  workers={workers:3d}  {report.throughput_rps:6.2f} req/s"
        )
    write_artifact(
        "serving_throughput.txt",
        "\n".join(lines + concurrency_lines),
    )

    # Strictly monotone up to the latency model's parallelism cap.
    for narrower, wider in zip(throughputs, throughputs[1:]):
        assert wider > narrower
    # Batching is the dominant serving win, as in the paper's §4.3.
    assert speedup >= 4.0
    # Every answer stays identical to the unbatched deployment's.
    answers = {
        window: report.answers() for window, report in reports.items()
    }
    assert all(
        answers[window] == answers[1] for window in WINDOWS
    )


def test_concurrency_without_batching_is_no_faster(benchmark):
    """Workers alone don't help: one simulated accelerator serializes
    unbatched calls, so the win must come from micro-batching."""
    solo, pooled = benchmark.pedantic(
        lambda: (_serve(workers=1, window=1), _serve(workers=16, window=1)),
        rounds=1,
        iterations=1,
    )
    assert pooled.throughput_rps == pytest.approx(
        solo.throughput_rps, rel=0.01
    )
