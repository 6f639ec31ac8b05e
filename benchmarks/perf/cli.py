"""Command line of the benchmark.

``run`` measures one workload (``--workload``) or all five (``--all``),
each in its own subprocess, checks outputs, and prints every metric by
name with its unit.  ``compare`` applies the benchmark's bounds to two
result files, or (``--repeat 2``) runs the same code as two sides and
asserts that they agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf import spec
from benchmarks.perf.compare import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Seconds a workload subprocess may take before it is killed.
CHILD_TIMEOUT_S = 175


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workload", choices=list(spec.WORKLOADS))
        sub.add_argument("--all", action="store_true")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--seconds",
            type=float,
            default=20.0,
            help="measured seconds after warm-up (same on both sides "
            "of any comparison)",
        )

    run = commands.add_parser("run", help="measure workloads")
    add_run_options(run)
    run.add_argument(
        "--trace",
        choices=("0", "1", "both"),
        default="0",
        help="0: end-to-end metrics, span recording off; 1: per-layer "
        "metrics from a traced slice; both: one run of each",
    )
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite expected.json for this seed from this run",
    )
    run.add_argument(
        "--out",
        type=Path,
        default=HERE / "out" / "results.json",
        help="where the result document is written",
    )

    cmp_ = commands.add_parser("compare", help="apply the bounds")
    cmp_.add_argument("files", nargs="*", type=Path, metavar="RESULTS.json")
    cmp_.add_argument(
        "--repeat",
        type=int,
        default=0,
        help="with no files: run the same code as this many sides and "
        "compare them (self-agreement)",
    )
    cmp_.add_argument("--runs", type=int, default=3, help="runs per side")
    add_run_options(cmp_)

    child = commands.add_parser("_child")
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, required=True)
    child.add_argument("--rebaseline", action="store_true")
    return parser


# ----------------------------------------------------------------------
# subprocess plumbing
# ----------------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    from benchmarks.perf import harness

    if args.trace:
        record = harness.measure_traced(
            args.workload, args.seed, args.seconds
        )
    else:
        record = harness.measure(
            args.workload, args.seed, args.seconds, args.rebaseline
        )
    print(json.dumps(record))
    return 0


def run_child(
    workload: str, seed: int, seconds: float, trace: int, rebaseline: bool
) -> dict[str, Any]:
    """One workload, one fresh interpreter; waits for it to end."""
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, "-m", "benchmarks.perf", "_child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if rebaseline:
        command.append("--rebaseline")
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def environment_record() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        loadavg = list(os.getloadavg())
    except OSError:
        loadavg = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": loadavg,
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def print_record(record: dict[str, Any]) -> None:
    info = record["info"]
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"seconds={record['seconds']:g}  trace={record['trace']} =="
    )
    print(
        f"ops: attempted {record['attempted']}  "
        f"succeeded {record['succeeded']}  errored {record['errored']}  "
        f"mismatched {record['failed']}  "
        f"({info['samples']} latency samples in {info['blocks']} blocks)  "
        f"correct={record['correct']}"
    )
    for name, cell in record["metrics"].items():
        if cell["value"] is None:
            print(f"  {name:<42}{'-':>16}  (layer bypassed)")
        else:
            print(f"  {name:<42}{cell['value']:>16.6g}  {cell['unit']}")
    if record["trace"]:
        wall = info["traced_op_wall_s"]
        print(
            f"  layer self time over {wall:.3f} s of traced op wall "
            f"(coverage {info['self_time_coverage']:.3f}):"
        )
        for layer, seconds in sorted(
            info["layer_self_s"].items(), key=lambda item: -item[1]
        ):
            print(f"    {layer:<20}{seconds:>10.4f} s{seconds / wall:>8.1%}")
        print(f"  spans written to benchmarks/perf/{info['trace_file']}")


def contract_line(record: dict[str, Any]) -> str:
    """The driver's result object: with ``--trace 0`` every bounded
    end-to-end metric, with ``--trace 1`` every per-layer metric (the
    driver wants a number for each, so a bypassed layer reads 0 here
    and only here)."""
    names = (
        spec.contract_per_layer()
        if record["trace"]
        else spec.bounded_end_to_end()
    )
    cells = {
        m.name: {
            "value": record["metrics"][m.name]["value"] or 0.0,
            "unit": m.unit,
        }
        for m in names
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": cells,
        }
    )


def collect(
    workloads: list[str],
    traces: list[int],
    seed: int,
    seconds: float,
    repeat: int = 1,
    rebaseline: bool = False,
    quiet: bool = False,
) -> dict[str, Any]:
    document = {
        "schema": 1,
        "env": environment_record(),
        "seed": seed,
        "seconds": seconds,
        "runs": [],
    }
    for _ in range(repeat):
        for workload in workloads:
            for trace in traces:
                record = run_child(
                    workload, seed, seconds, trace, rebaseline
                )
                document["runs"].append(record)
                if not quiet:
                    print_record(record)
                    sys.stdout.flush()
    return document


def _selected(args: argparse.Namespace) -> list[str]:
    if args.all == (args.workload is not None):
        raise SystemExit("give exactly one of --workload NAME and --all")
    return list(spec.WORKLOADS) if args.all else [args.workload]


def _run(args: argparse.Namespace) -> int:
    workloads = _selected(args)
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    document = collect(
        workloads, traces, args.seed, args.seconds, args.repeat,
        args.rebaseline,
    )
    if args.rebaseline:
        from benchmarks.perf.harness import EXPECTED_PATH, load_expected

        expected = load_expected()
        for record in document["runs"]:
            baseline = record.pop("baseline", None)
            if baseline is not None:
                expected.setdefault(record["workload"], {})[
                    str(args.seed)
                ] = baseline
        EXPECTED_PATH.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"rewrote {EXPECTED_PATH}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(document, indent=1) + "\n", encoding="utf-8"
    )
    print(f"results written to {args.out}")
    if len(document["runs"]) == 1:
        print(contract_line(document["runs"][0]))
    return 0 if all(run["correct"] for run in document["runs"]) else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _compare(args: argparse.Namespace) -> int:
    if args.files:
        if len(args.files) != 2 or args.repeat:
            raise SystemExit("compare takes two result files, or --repeat N")
        sides = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in args.files
        ]
    else:
        if args.repeat < 2:
            raise SystemExit("compare takes two result files, or --repeat N")
        workloads = _selected(args)
        sides = []
        # Alternate which side goes first run by run, so drift of the
        # machine lands on both.
        for run in range(args.runs):
            order = range(args.repeat)
            for side in reversed(order) if run % 2 else order:
                print(f"-- side {side}, run {run + 1}/{args.runs}")
                sys.stdout.flush()
                document = collect(
                    workloads, [0], args.seed, args.seconds, quiet=True
                )
                if run == 0:
                    sides.append(document)
                else:
                    sides[side]["runs"].extend(document["runs"])
    worse = 0
    for side in sides[1:]:
        lines, count = compare(sides[0], side)
        print("\n".join(lines))
        worse += count
    incorrect = sum(
        not run["correct"] for side in sides for run in side["runs"]
    )
    print(f"worse: {worse}  incorrect runs: {incorrect}")
    return 1 if worse or incorrect else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "_child":
        return _child(args)
    try:
        if args.command == "run":
            return _run(args)
        return _compare(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmarks.perf: workload subprocess: {exc}\n")
        return 3
