"""The concurrent TAG serving layer.

Turns the library's single-pipeline core into a deployment: a
:class:`TagServer` runs many :class:`~repro.core.TAGPipeline`\\ s on a
worker pool, their LM calls coalesced into micro-batches by a
:class:`BatchingLM` facade (with an optional LRU prompt cache), and all
latency accounted on a deterministic :class:`VirtualClock` so measured
throughput is machine-independent and exactly reproducible.  An
optional :class:`AdmissionPolicy` turns the static analyzer's LM-cost
bound into pre-dispatch admission control.
"""

from repro.serve.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    SQLAdmissionEstimator,
)
from repro.serve.batching import BatchingLM, Session
from repro.serve.clock import VirtualClock
from repro.serve.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientLM,
    RetryPolicy,
)
from repro.serve.semantic import (
    CanonicalForm,
    SemanticHit,
    SemanticResultCache,
    canonicalize,
)
from repro.serve.server import (
    PipelineFactory,
    ServeReport,
    ServeResult,
    TagServer,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "BatchingLM",
    "BreakerPolicy",
    "CanonicalForm",
    "CircuitBreaker",
    "PipelineFactory",
    "ResiliencePolicy",
    "ResilientLM",
    "RetryPolicy",
    "SQLAdmissionEstimator",
    "SemanticHit",
    "SemanticResultCache",
    "ServeReport",
    "ServeResult",
    "Session",
    "TagServer",
    "VirtualClock",
    "canonicalize",
]
