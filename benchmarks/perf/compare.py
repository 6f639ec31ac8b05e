"""Compare two result files by the benchmark's own bounds.

Each side holds k untraced runs per workload; the verdict for every
workload x end-to-end metric comes from the medians, with the spread
between a side's own runs deciding whether the difference can be
resolved at all.  Every ratio is printed with its base.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from benchmarks.perf import spec

#: Verdicts, in print order of severity.
BETTER, WITHIN, WORSE, UNRESOLVED = (
    "better", "within bound", "worse", "unresolved",
)


def _values(document: dict[str, Any]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values of the untraced runs."""
    table: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for run in document["runs"]:
        if run["trace"] != 0:
            continue
        for name, cell in run["metrics"].items():
            table[run["workload"]][name].append(cell["value"])
    return table


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (with
    fewer than four runs: the full range)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(
    metric: spec.Metric, base: list[float], new: list[float]
) -> tuple[str, float, float]:
    """``(verdict, change, spread)``: ``change`` is the share of the
    base median by which the new median is *worse* (negative = better)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    if base_median == 0:
        change = 0.0 if new_median == 0 else sign * float("inf")
    else:
        change = sign * (new_median - base_median) / abs(base_median)
    noise = max(spread(base), spread(new))
    bound = metric.bound or 0.0
    if noise > bound and bound > 0:
        # Too noisy to call, unless the two sides do not even overlap.
        # "Badness" is the value oriented so that higher is worse.
        bad_base = [sign * value for value in base]
        bad_new = [sign * value for value in new]
        if max(bad_new) < min(bad_base):
            return BETTER, change, noise
        if min(bad_new) > max(bad_base) and change > bound:
            return WORSE, change, noise
        return UNRESOLVED, change, noise
    if change > bound:
        return WORSE, change, noise
    if change < -bound:
        return BETTER, change, noise
    return WITHIN, change, noise


def compare(
    base: dict[str, Any], new: dict[str, Any]
) -> tuple[list[str], int]:
    """Report lines and the number of ``worse`` rows."""
    base_values, new_values = _values(base), _values(new)
    lines = [
        f"{'workload':<13}{'metric':<22}{'base':>12}{'new':>12}"
        f"{'new/base':>10}{'bound':>7}{'spread':>8}  verdict"
    ]
    worse = 0
    for workload in spec.WORKLOADS:
        if workload not in base_values or workload not in new_values:
            continue
        for metric in spec.END_TO_END:
            ours = base_values[workload].get(metric.name)
            theirs = new_values[workload].get(metric.name)
            if not ours or not theirs:
                continue
            outcome, _, noise = verdict(metric, ours, theirs)
            worse += outcome == WORSE
            base_median = statistics.median(ours)
            new_median = statistics.median(theirs)
            ratio = (
                f"{new_median / base_median:.3f}" if base_median else "-"
            )
            lines.append(
                f"{workload:<13}{metric.name:<22}{base_median:>12.4f}"
                f"{new_median:>12.4f}{ratio:>10}"
                f"{metric.bound:>7.2f}{noise:>8.3f}  {outcome}"
                f" (n={len(ours)}/{len(theirs)})"
            )
    return lines, worse
