"""Smoke test of the wall-clock benchmark (NOT in tier-1 ``testpaths``).

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs every workload for one measured second, untraced and traced, and
checks that the vocabulary is complete: all eight end-to-end names and
every per-layer name are reported with their unit.
"""

import json
from pathlib import Path

import pytest

from benchmarks.perf import cli, compare, gen, spec
from benchmarks.perf.trace import Recorder, self_times

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced run of every workload, one measured
    second each (each in its own subprocess, as ``run`` starts them)."""
    return {
        (workload, trace): cli.run_child(
            workload, seed=0, seconds=1.0, trace=trace, rebaseline=False
        )
        for workload in spec.WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_reports_every_metric(records, workload):
    untraced = records[workload, 0]
    assert untraced["correct"], untraced
    assert untraced["failed"] == 0
    assert untraced["pinned"] == (
        workload in ("tagbench", "udf_scan", "serve_replay")
    )
    for metric in spec.END_TO_END:
        cell = untraced["metrics"][metric.name]
        assert cell["unit"] == metric.unit
        if metric.name not in spec.EXACT:
            assert cell["value"] > 0
    assert untraced["info"]["samples"] >= untraced["info"]["ops_per_block"]

    traced = records[workload, 1]
    assert traced["correct"], traced
    for metric in spec.contract_per_layer():
        assert traced["metrics"][metric.name]["unit"] == metric.unit
    assert traced["metrics"]["obs.harness_overhead_ratio"]["value"] > 0
    assert 0.9 <= traced["info"]["self_time_coverage"] <= 1.1
    # The exact metrics agree between the two kinds of run.
    for name in spec.EXACT:
        assert (
            traced["metrics"][name]["value"]
            == untraced["metrics"][name]["value"]
        )
    trace_file = ROOT / "benchmarks" / "perf" / traced["info"]["trace_file"]
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert {
        "id", "name", "layer", "start_us", "end_us", "parent", "op", "thread",
    } <= set(first)


def test_every_layer_metric_has_a_home(records):
    """Across the five traced runs every per-layer metric is measured
    at least once; null means 'this workload bypasses the layer'."""
    seen = {
        name
        for (_, trace), record in records.items()
        if trace
        for name, cell in record["metrics"].items()
        if cell["value"] is not None
    }
    assert {m.name for m in spec.PER_LAYER} <= seen
    # No BatchingLM in tagbench, no LM at all in the SQL-only workloads.
    tagbench = records["tagbench", 1]["metrics"]
    assert tagbench["serve.batching.mean_batch_size"]["value"] is None
    assert tagbench["lm.calls_per_op"]["value"] > 0
    assert records["sql_short", 1]["metrics"]["lm.calls_per_op"]["value"] is None
    # The driver's line carries a number for every declared name.
    line = json.loads(cli.contract_line(records["tagbench", 1]))
    assert line["metrics"]["serve.batching.mean_batch_size"]["value"] == 0


def test_generators_are_deterministic():
    assert gen.digest(3) == gen.digest(3)
    assert gen.digest(3) != gen.digest(4)


def test_benchmark_json_repeats_the_vocabulary():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in spec.bounded_end_to_end()
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in spec.contract_per_layer()]


def test_self_times_partition_the_root_even_across_threads():
    recorder = Recorder()
    with recorder.root("db/execute"):
        with recorder.span("lm/complete"):
            pass
    spans = recorder.spans
    # Two children on "other threads" overlapping inside the root.
    root, child = spans
    root.start, root.end = 0.0, 10.0
    child.start, child.end = 2.0, 6.0
    other = type(child)(2, "serve.batching/complete", 4.0, 8.0, 0, 0, "t2")
    own = self_times([root, child, other])
    assert sum(own.values()) == pytest.approx(10.0)
    assert own[root.id] == pytest.approx(4.0)  # 0-2 and 8-10
    assert own[child.id] == pytest.approx(3.0)  # 2-4 alone, 4-6 shared
    assert own[other.id] == pytest.approx(3.0)  # 4-6 shared, 6-8 alone


def test_compare_verdicts():
    lower = spec.Metric("latency_p50_ms", "ms", "lower", 0.10)
    assert compare.verdict(lower, [10, 10.1, 9.9], [10.2, 10.1, 10.3])[0] == (
        compare.WITHIN
    )
    assert compare.verdict(lower, [10, 10.1, 9.9], [12, 12.1, 11.9])[0] == (
        compare.WORSE
    )
    assert compare.verdict(lower, [10, 10.1, 9.9], [8, 8.1, 7.9])[0] == (
        compare.BETTER
    )
    assert compare.verdict(lower, [10, 13, 8], [11, 9, 12.5])[0] == (
        compare.UNRESOLVED
    )
    exact = spec.Metric("et_virtual_s_per_op", "sim_s", "lower", 0.0)
    assert compare.verdict(exact, [3.5, 3.5], [3.5, 3.5])[0] == compare.WITHIN
    assert compare.verdict(exact, [3.5, 3.5], [3.6, 3.6])[0] == compare.WORSE
