"""E14 — serving under failure: fault rate x retry policy sweep.

The TAG serving stack (E13) assumed a healthy LM.  This experiment
injects a deterministic fault schedule (:mod:`repro.lm.faults`) under
three client policies — no-retry, retry, retry+fallback
(:mod:`repro.serve.resilience`) — and measures availability (fraction
of requests answered, degraded included) and goodput (answered
requests per simulated second).  All numbers come off the virtual
clock, so a faulty run is exactly as reproducible as a healthy one.

Expected shape: availability falls with the fault rate for no-retry,
stays near one for retry, and is pinned at one for retry+fallback
(the fallback tier needs no LM call, so nothing can fault it); the
price is goodput — retries burn simulated seconds on backoff and
re-attempts.

Smoke mode: set ``REPRO_SMOKE=1`` to shrink the sweep for CI-style
verification runs (``make verify``).
"""

import os

import pytest

from repro.lm import FaultPlan, LMConfig, SimulatedLM
from repro.serve import ResiliencePolicy, RetryPolicy, TagServer, demo

from benchmarks.conftest import write_artifact

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
FAULT_RATES = (0.0, 0.3) if SMOKE else (0.0, 0.05, 0.15, 0.3)
REQUESTS = 8 if SMOKE else 32
WORKERS = 4
WINDOW = 4
FAULT_SEED = 7

_DATASET = demo.build_dataset()

_RETRY = ResiliencePolicy(retry=RetryPolicy(max_attempts=4))
#: name -> (resilience policy, use a fallback tier?)
POLICIES = {
    "no-retry": (ResiliencePolicy.no_retry(), False),
    "retry": (_RETRY, False),
    "retry+fallback": (_RETRY, True),
}


def _serve(rate: float, policy_name: str):
    resilience, fallback = POLICIES[policy_name]
    server = TagServer(
        demo.pipeline_factory(_DATASET, fallback=fallback),
        SimulatedLM(LMConfig(seed=0)),
        workers=WORKERS,
        window=WINDOW,
        fault_plan=FaultPlan.uniform(rate, seed=FAULT_SEED),
        resilience=resilience,
    )
    return server.serve(demo.requests(REQUESTS))


def _sweep():
    return {
        (rate, name): _serve(rate, name)
        for rate in FAULT_RATES
        for name in POLICIES
    }


def _render(reports) -> str:
    lines = [
        f"TAG serving under failure, {REQUESTS} requests, "
        f"{WORKERS} workers, window {WINDOW}:",
        "",
        "  rate  policy          avail  goodput   p50-s   p95-s"
        "  retries  degraded",
    ]
    for (rate, name), report in reports.items():
        lines.append(
            f"  {rate:4.2f}  {name:<14s}"
            f"  {report.availability:5.2f}"
            f"  {report.goodput_rps:7.3f}"
            f"  {report.latency_percentile(0.5):6.2f}"
            f"  {report.latency_percentile(0.95):6.2f}"
            f"  {report.usage.retries:7d}"
            f"  {report.degraded_count:8d}"
        )
    return "\n".join(lines)


def test_zero_fault_rate_matches_healthy_baseline(benchmark):
    """Acceptance: the whole resilience stack is a no-op when healthy —
    rate-0 serving reproduces the plain (PR-1) server bit for bit."""
    guarded, baseline = benchmark.pedantic(
        lambda: (
            _serve(0.0, "retry"),
            TagServer(
                demo.pipeline_factory(_DATASET),
                SimulatedLM(LMConfig(seed=0)),
                workers=WORKERS,
                window=WINDOW,
            ).serve(demo.requests(REQUESTS)),
        ),
        rounds=1,
        iterations=1,
    )
    assert guarded.answers() == baseline.answers()
    assert guarded.simulated_seconds == baseline.simulated_seconds
    assert guarded.usage == baseline.usage
    assert [r.et_seconds for r in guarded.results] == [
        r.et_seconds for r in baseline.results
    ]
    assert guarded.availability == 1.0
    assert guarded.usage.retries == 0


def test_fault_rate_x_policy_sweep(benchmark):
    """Acceptance: retries+fallback strictly dominates no-retry in
    availability at every nonzero fault rate, and the sweep is
    byte-identical across runs."""
    reports = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = _render(reports)
    write_artifact("resilience.txt", table)

    # Deterministic fault schedules: re-running the sweep reproduces
    # every number, so the artifact is byte-identical.
    assert _render(_sweep()) == table

    for rate in FAULT_RATES:
        if rate == 0.0:
            continue
        unguarded = reports[(rate, "no-retry")]
        guarded = reports[(rate, "retry+fallback")]
        assert guarded.availability > unguarded.availability
        assert guarded.availability == 1.0
        assert reports[(rate, "retry")].usage.retries > 0
        # Fallback degradation only happens when retries are exhausted.
        assert guarded.degraded_count <= len(guarded.results)
    # Availability never *increases* with the fault rate for the
    # unguarded policy (it can only lose requests).
    unguarded_avail = [
        reports[(rate, "no-retry")].availability for rate in FAULT_RATES
    ]
    assert unguarded_avail[0] == 1.0
    assert unguarded_avail[-1] < 1.0


@pytest.mark.skipif(SMOKE, reason="full sweep only")
def test_retries_trade_goodput_for_availability(benchmark):
    """Retries keep availability high but each saved request pays
    backoff + re-attempt simulated seconds."""
    unguarded, guarded = benchmark.pedantic(
        lambda: (_serve(0.3, "no-retry"), _serve(0.3, "retry")),
        rounds=1,
        iterations=1,
    )
    assert guarded.availability > unguarded.availability
    assert guarded.usage.simulated_seconds > unguarded.usage.simulated_seconds
