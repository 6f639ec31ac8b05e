"""Deterministic observability: tracing, counters, EXPLAIN ANALYZE.

The paper's core claim is about *where* work happens — SQL operators
vs. LM calls vs. post-hoc reasoning — and this package makes that
attribution visible without sacrificing the repro's determinism
guarantees:

- :mod:`repro.obs.trace` — nested spans (request -> pipeline step ->
  SQL operator / LM call / retry) on per-request virtual timelines;
  byte-identical traces across runs and worker counts;
- :mod:`repro.obs.meter` — the one place a counter written above the
  model (UDF cache, cascade, optimizer, repair, semantic cache,
  resilience) is added to a ``Usage``;
- :mod:`repro.obs.racecheck` — an Eraser-style lockset + vector-clock
  dynamic race checker behind zero-cost-when-disabled hooks, the
  runtime half of the concurrency analyzer
  (:mod:`repro.analysis.concurrency`);
- :mod:`repro.obs.export` — JSON-lines and Chrome ``trace_event``
  exporters (``python -m repro trace``, ``serve --trace out.json``);
- :mod:`repro.obs.explain` — per-operator rows/virtual-time counting
  behind ``EXPLAIN ANALYZE`` in :meth:`repro.db.Database.execute`.

This package imports nothing from the rest of the library, so every
layer (db, lm, core, serve) can emit spans without import cycles.
"""

from repro.obs import racecheck, trace
from repro.obs.explain import (
    AnalyzedQuery,
    OperatorStats,
    emit_operator_spans,
    instrument_plan,
    render_stats,
)
from repro.obs.export import to_chrome, to_jsonl, write_trace
from repro.obs.meter import Meter
from repro.obs.racecheck import RaceChecker, RaceFinding, RaceReport
from repro.obs.trace import Span, SpanEvent, Tracer

__all__ = [
    "AnalyzedQuery",
    "Meter",
    "OperatorStats",
    "RaceChecker",
    "RaceFinding",
    "RaceReport",
    "Span",
    "SpanEvent",
    "Tracer",
    "racecheck",
    "emit_operator_spans",
    "instrument_plan",
    "render_stats",
    "to_chrome",
    "to_jsonl",
    "trace",
    "write_trace",
]
