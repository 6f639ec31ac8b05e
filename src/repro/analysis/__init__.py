"""Static analysis for the TAG stack.

Two pillars:

* :mod:`repro.analysis.sql` — a semantic analyzer (typechecker and
  LM-cost estimator over :mod:`repro.db.resolve`'s binding of the
  statement's names) that validates a SELECT against a
  :class:`~repro.db.Database` catalog *before* planning, producing a
  :class:`QueryReport` of span-carrying :class:`Diagnostic` findings
  plus a :class:`CostEstimate` that bounds per-row LM-UDF invocations.
  ``Database.execute(..., analyze=True)`` and the serving layer's
  admission control are built on it.

* :mod:`repro.analysis.lint` — a Python-``ast`` determinism linter for
  this codebase itself (``python -m repro lint``), enforcing the
  invariants the deterministic serving layer depends on: no wall-clock
  reads outside the virtual clock, no unseeded randomness, no bare
  excepts, no mutable default arguments, and lock discipline for the
  server's shared state.

* :mod:`repro.analysis.concurrency` — the static half of the two-layer
  race detector (``python -m repro lint --conc``): interprocedural
  lockset inference over the class-attribute mutation map, the
  worker-shared object closure, and span-carrying CONC201–CONC208
  diagnostics.  The dynamic half is :mod:`repro.obs.racecheck`.
"""

from repro.analysis.concurrency import (
    ConcFinding,
    ConcurrencyReport,
    analyze_source,
    analyze_tree,
)
from repro.analysis.diagnostics import (
    CostEstimate,
    Diagnostic,
    QueryReport,
    Severity,
    Span,
)
from repro.analysis.sql import SQLAnalyzer

__all__ = [
    "ConcFinding",
    "ConcurrencyReport",
    "CostEstimate",
    "Diagnostic",
    "QueryReport",
    "Severity",
    "Span",
    "SQLAnalyzer",
    "analyze_source",
    "analyze_tree",
]
