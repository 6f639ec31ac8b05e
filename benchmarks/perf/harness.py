"""Measure one workload in this process: set-up, window, checks, metrics.

This module runs in the per-workload subprocess ``cli.py`` starts (fresh
RSS, no cache warmth from another workload, ``PYTHONHASHSEED=0``).  The
untraced run gives the end-to-end metrics with span recording off; the
traced run repeats a fixed slice of the workload with proxies in place
and gives the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from pathlib import Path
from typing import Any

from benchmarks.perf import reference, spec
from benchmarks.perf.trace import Recorder, layer_self_seconds
from benchmarks.perf.workloads import WORKLOADS, Block, Workload

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: Blocks of the traced slice, and of the untraced base it is compared
#: with for ``obs.harness_overhead_ratio``.
TRACE_BLOCKS = {
    "tagbench": 2,
    "sql_analytic": 2,
    "sql_short": 3,
    "udf_scan": 2,
    "serve_replay": 6,
}
#: Workloads whose per-op digests are pinned in ``expected.json``; the
#: two SQL-only workloads are checked against SQLite instead.
PINNED = ("tagbench", "udf_scan", "serve_replay")
#: Workloads whose blocks are identical, so digests repeat pass to pass.
REPEATING = ("tagbench", "sql_analytic", "udf_scan", "serve_replay")


def import_program() -> float:
    """Import everything the workloads use; returns the seconds taken
    (part of ``setup_s``: a reproducer pays it on every run)."""
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.analysis  # noqa: F401
    import repro.bench.suite  # noqa: F401
    import repro.data  # noqa: F401
    import repro.db.optimizer  # noqa: F401
    import repro.lm.handlers.text2sql  # noqa: F401
    import repro.methods  # noqa: F401
    import repro.obs.explain  # noqa: F401
    import repro.serve  # noqa: F401

    return time.perf_counter() - started


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = max(math.ceil(quantile * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def window_metrics(blocks: list[Block]) -> dict[str, float]:
    """The four timing metrics of a sequence of passes, raw, over every
    op: ops / wall seconds inside their timed calls, process CPU seconds
    per 1,000 ops, nearest-rank latency percentiles."""
    samples = [latency for block in blocks for latency in block.latencies]
    ops = sum(len(block.outcomes) for block in blocks)
    return {
        "ops_per_s": ops / sum(block.busy_s for block in blocks),
        "latency_p50_ms": percentile(samples, 0.50) * 1e3,
        "latency_p95_ms": percentile(samples, 0.95) * 1e3,
        "cpu_s_per_kop": sum(block.cpu_s for block in blocks) / ops * 1e3,
    }


def _set_up(
    name: str, seed: int, recorder: Recorder | None, verify: bool
) -> tuple[Workload, float]:
    """Build a workload and run its warm-up block.  Returns the set-up
    seconds with oracle time (SQLite, the per-row path) taken out."""
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, recorder)
    workload.setup(verify=verify)
    workload.run_block(0)
    elapsed = time.perf_counter() - started - workload.oracle_s
    return workload, elapsed


def load_expected() -> dict[str, Any]:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {}


class Checker:
    """Counts errored and mismatching ops over the measured blocks.

    A *mismatch* is an op whose output differs from the independent
    oracle, from the pinned digest (``expected.json``, when the seed is
    pinned) or — on unpinned seeds — from the same op of the first
    measured block.  ``failed_share`` counts errored ops too: the
    ``ContextLengthError`` replies of ``serve_replay`` are *expected*
    outputs (their digests are pinned) and still count as failed ops.
    """

    def __init__(self, name: str, seed: int, rebaseline: bool) -> None:
        self.name = name
        pinned = load_expected().get(name, {}).get(str(seed))
        self.pinned = None if rebaseline else pinned
        self.reference: list[str] | None = (
            self.pinned["digests"] if self.pinned else None
        )
        self.attempted = 0
        self.errored = 0
        self.mismatched = 0
        self.failed = 0
        self.first: Block | None = None

    def add(self, block: Block) -> None:
        if self.first is None:
            self.first = block
            if self.reference is None and self.name in REPEATING:
                self.reference = [o.digest for o in block.outcomes]
        for position, outcome in enumerate(block.outcomes):
            mismatch = not outcome.matches or (
                self.reference is not None
                and outcome.digest != self.reference[position]
            )
            self.attempted += 1
            self.errored += not outcome.ok
            self.mismatched += mismatch
            self.failed += mismatch or not outcome.ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    @property
    def et_virtual_s_per_op(self) -> float:
        """Virtual seconds per op of the first measured block (blocks
        repeat exactly, so any whole block gives the same value)."""
        outcomes = self.first.outcomes
        return round(sum(o.virtual_s for o in outcomes) / len(outcomes), 9)

    def correct(self) -> bool:
        if self.mismatched:
            return False
        if self.pinned is None:
            return True
        return (
            self.failed_share == self.pinned["failed_share"]
            and self.et_virtual_s_per_op == self.pinned["et_virtual_s_per_op"]
        )

    def baseline(self) -> dict[str, Any]:
        return {
            "digests": [o.digest for o in self.first.outcomes],
            "failed_share": self.failed_share,
            "et_virtual_s_per_op": self.et_virtual_s_per_op,
        }


def _value(name: str, value: float | None) -> dict[str, Any]:
    return {"value": value, "unit": spec.UNITS[name]}


def _record(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    checker: Checker,
    metrics: dict[str, float | None],
    info: dict[str, Any],
) -> dict[str, Any]:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": checker.correct(),
        "attempted": checker.attempted,
        "succeeded": checker.attempted - checker.failed,
        "errored": checker.errored,
        # Ops that deviate from the checked expectation; this is what
        # the driver's ``failed`` field carries.
        "failed": checker.mismatched,
        "pinned": checker.pinned is not None,
        "metrics": {key: _value(key, metrics[key]) for key in metrics},
        "info": info,
    }


# ----------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ----------------------------------------------------------------------


def measure(
    name: str, seed: int, seconds: float, rebaseline: bool = False
) -> dict[str, Any]:
    import_s = import_program()
    workload, setup_s = _set_up(name, seed, None, verify=True)
    load_before = _loadavg()
    checker = Checker(name, seed, rebaseline)
    blocks: list[Block] = []
    bursts: list[float] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not blocks:
        block = workload.run_block(len(blocks) + 1)
        checker.add(block)
        blocks.append(block)
        bursts.append(reference.burst())
    window_s = time.perf_counter() - started
    workload.close()
    samples = [latency for block in blocks for latency in block.latencies]
    raw = window_metrics(blocks)
    raw["setup_s"] = import_s + setup_s
    # Every time of the run at reference machine speed (reference.py).
    speed = reference.NOMINAL_BURST_S * len(bursts) / sum(bursts)
    metrics = {
        name: value / speed if name == "ops_per_s" else value * speed
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    metrics["failed_share"] = checker.failed_share
    metrics["et_virtual_s_per_op"] = checker.et_virtual_s_per_op
    metrics = {metric.name: metrics[metric.name] for metric in spec.END_TO_END}
    info = {
        "samples": len(samples),
        "blocks": len(blocks),
        "ops_per_block": len(checker.first.outcomes),
        # Wall of the whole window, output checks between ops included.
        "window_s": window_s,
        # Wall inside the timed calls: the base of ops_per_s.
        "busy_s": sum(block.busy_s for block in blocks),
        "cpu_s": sum(block.cpu_s for block in blocks),
        "latency_max_ms": max(samples) * 1e3,
        # 1 = the reference sandbox in its fastest state.
        "speed": speed,
        "burst_s": bursts,
        # What the machine really did: the reported figures undone.
        "raw": raw,
        # Pass by pass, so that drift inside the window shows.
        "block_ops_per_s": [
            len(block.outcomes) / block.busy_s for block in blocks
        ],
        "import_s": import_s,
        "oracle_s": workload.oracle_s,
        "program_threads": workload.program_threads,
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
    }
    record = _record(name, seed, seconds, 0, checker, metrics, info)
    if rebaseline and name in PINNED:
        record["baseline"] = checker.baseline()
    return record


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# traced run: the per-layer metrics
# ----------------------------------------------------------------------


def measure_traced(name: str, seed: int, seconds: float) -> dict[str, Any]:
    from benchmarks.perf import layers

    import_program()
    count = TRACE_BLOCKS[name]
    # Untraced base for obs.harness_overhead_ratio: same code, same
    # blocks, no proxies.
    plain, _ = _set_up(name, seed, None, verify=False)
    base_ops = window_metrics(
        [plain.run_block(i + 1) for i in range(count)]
    )["ops_per_s"]
    plain.close()
    del plain
    gc.collect()

    recorder = Recorder()
    workload, _ = _set_up(name, seed, recorder, verify=True)
    # The warm-up block's spans are not part of the slice.
    recorder.spans.clear()
    recorder.op = 0
    usage_before = layers.usage_snapshot(workload)
    checker = Checker(name, seed, rebaseline=False)
    traced: list[Block] = []
    for i in range(count):
        block = workload.run_block(i + 1)
        checker.add(block)
        traced.append(block)
    usage = layers.usage_delta(workload, usage_before)
    traced_ops = window_metrics(traced)["ops_per_s"]
    spans = list(recorder.spans)
    recorder.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")

    # None = the workload bypasses the layer (or the metric's home
    # microbenchmark runs with another workload): null in the record,
    # told apart from a measured zero.
    metrics: dict[str, float | None] = {
        metric.name: None for metric in spec.PER_LAYER
    }
    metrics.update(layers.from_trace(workload, spans, traced, usage))
    metrics.update(layers.replay_sql(workload))
    metrics.update(layers.home(workload))
    metrics.update(
        {
            key: value
            for key, value in workload.phases.items()
            if key in metrics
        }
    )
    metrics["obs.harness_overhead_ratio"] = traced_ops / base_ops
    metrics["failed_share"] = checker.failed_share
    metrics["et_virtual_s_per_op"] = checker.et_virtual_s_per_op
    workload.close()

    self_seconds = layer_self_seconds(spans)
    op_wall = sum(block.busy_s for block in traced)
    info = {
        "samples": sum(len(block.latencies) for block in traced),
        "blocks": count,
        "spans": len(spans),
        "traced_op_wall_s": op_wall,
        "layer_self_s": self_seconds,
        # Self times of a span tree sum to its root by construction;
        # the check guards the recorder (lost or orphaned spans).
        "self_time_coverage": sum(self_seconds.values()) / op_wall,
        "base_ops_per_s": base_ops,
        "traced_ops_per_s": traced_ops,
        "trace_file": f"out/trace-{name}.jsonl",
        "program_threads": workload.program_threads,
    }
    record = _record(name, seed, seconds, 1, checker, metrics, info)
    if not 0.9 <= info["self_time_coverage"] <= 1.1:
        record["correct"] = False
    return record
