"""Deterministic observability: tracing, counters, EXPLAIN ANALYZE.

The paper's core claim is about *where* work happens — SQL operators
vs. LM calls vs. post-hoc reasoning — and this package makes that
attribution visible without sacrificing the repro's determinism
guarantees:

- :mod:`repro.obs.trace` — nested spans (request -> pipeline step ->
  SQL operator / LM call / retry) on per-request virtual timelines;
  byte-identical traces across runs and worker counts.  Its request
  scope is open for every served request, traced or not: the
  request's ET, LM calls and cache hits are charged to it on its own
  thread (the run-wide counters are ``Usage`` fields, which only
  :meth:`repro.lm.usage.Usage.add` writes; a holder that may be bound
  to no ``Usage`` adds through :func:`~repro.obs.trace.count`);
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
from repro.obs.racecheck import RaceChecker, RaceFinding, RaceReport
from repro.obs.trace import Span, SpanEvent, Tracer

__all__ = [
    "AnalyzedQuery",
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
