"""TagServer: run many TAG requests concurrently over one simulated LM.

The server owns the serving substrate the ROADMAP's scaling work plugs
into: a worker pool of threads, each running a :class:`TAGPipeline`
bound to a shared :class:`~repro.serve.batching.BatchingLM`, so LM
calls from different in-flight requests coalesce into micro-batches.

Scheduling is static round-robin (worker ``i`` serves requests
``i, i + W, i + 2W, ...``) rather than a shared work queue: which
requests are in flight together is then a pure function of the request
list, which keeps micro-batch composition — and therefore every
simulated-seconds number — deterministic (see
:mod:`repro.serve.batching`).  The report's ``simulated_seconds`` is
the virtual-clock makespan: micro-batches are serialized through one
simulated accelerator, so ``requests / simulated_seconds`` is the
deployment's reproducible throughput.

Serving under failure.  A :class:`~repro.lm.faults.FaultPlan` slots a
:class:`~repro.lm.faults.FaultyLM` between the model and the batching
facade, and a :class:`~repro.serve.resilience.ResiliencePolicy` wraps
each worker's view of the LM in a
:class:`~repro.serve.resilience.ResilientLM` (retries, deadlines, a
per-worker circuit breaker).  Both are deterministic, so a faulty run
is as reproducible as a healthy one; with no plan and no policy the
stack is exactly the PR-1 server, bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.tag import TAGError, TAGPipeline, TAGResult
from repro.lm.faults import FaultPlan, FaultyLM
from repro.lm.model import SimulatedLM
from repro.lm.usage import Usage
from repro.obs import racecheck, trace
from repro.obs.trace import Tracer
from repro.serve.admission import AdmissionPolicy
from repro.serve.batching import BatchingLM, Session
from repro.serve.clock import VirtualClock
from repro.serve.resilience import ResiliencePolicy, ResilientLM
from repro.serve.semantic import (
    SemanticHit,
    SemanticResultCache,
    detached_copy,
)

#: Builds one pipeline per worker, bound to the server's batching LM
#: (or its resilience wrapper).  Anything with ``run(request) ->
#: TAGResult`` qualifies — a TAGPipeline or a FallbackPipeline chain.
PipelineFactory = Callable[[BatchingLM], TAGPipeline]


@dataclass
class ServeResult:
    """One served request: the TAG outcome plus serving diagnostics."""

    index: int
    request: str
    result: TAGResult
    #: Simulated LM seconds attributed to this request's responses,
    #: fault burn and backoff sleeps included.
    et_seconds: float
    worker: int
    lm_calls: int
    cache_hits: int
    #: How the semantic serving cache answered this request, when it
    #: did: ``"exact"``/``"near"`` (cross-run cache hit, ``worker ==
    #: -2``) or ``"coalesced"`` (in-run duplicate resolved from its
    #: leader's result).  None for every freshly executed request.
    semantic: str | None = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def degraded(self) -> bool:
        return self.result.degraded


@dataclass
class ServeReport:
    """All results of one :meth:`TagServer.serve` run."""

    results: list[ServeResult]
    #: Virtual-clock makespan of the run (simulated accelerator time,
    #: plus any simulated backoff waits the resilience layer added).
    simulated_seconds: float
    #: LM usage accumulated by the run (snapshot delta).
    usage: Usage
    workers: int
    window: int
    #: Requests admission control turned away before dispatch (they
    #: still appear in ``results``, with ``worker == -1``).
    admission_rejected: int = 0
    #: Entries the semantic cache held when the run began (0 without a
    #: cache) — the state hits of this run were served from.
    semantic_entries: int = 0
    errors: list[ServeResult] = field(init=False)

    def __post_init__(self) -> None:
        self.errors = [r for r in self.results if not r.ok]

    @property
    def throughput_rps(self) -> float:
        """Simulated requests per second for the whole run."""
        if self.simulated_seconds == 0.0:
            return float("inf") if self.results else 0.0
        return len(self.results) / self.simulated_seconds

    # ------------------------------------------------------------------
    # availability accounting (serving under failure)
    # ------------------------------------------------------------------

    @property
    def availability(self) -> float:
        """Fraction of requests that got an answer (degraded counts)."""
        if not self.results:
            return 1.0
        return sum(r.ok for r in self.results) / len(self.results)

    @property
    def degraded_count(self) -> int:
        """Answered requests that fell back past the primary tier."""
        return sum(r.ok and r.degraded for r in self.results)

    @property
    def goodput_rps(self) -> float:
        """Simulated *answered* requests per second."""
        if self.simulated_seconds == 0.0:
            return float("inf") if self.errors != self.results else 0.0
        return (
            sum(r.ok for r in self.results) / self.simulated_seconds
        )

    def latency_percentile(self, quantile: float) -> float:
        """Per-request simulated-latency percentile (nearest-rank).

        Deterministic — no interpolation, so artifact bytes never
        depend on float formatting of midpoints.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if not self.results:
            return 0.0
        ordered = sorted(r.et_seconds for r in self.results)
        # Integer ceil on a per-myriad scale dodges float artefacts
        # like 0.95 * 20 == 19.000000000000004.
        permyriad = round(quantile * 10_000)
        rank = -(-permyriad * len(ordered) // 10_000) - 1
        return ordered[max(0, min(rank, len(ordered) - 1))]

    def answers(self) -> list[object]:
        return [r.result.answer for r in self.results]


class TagServer:
    """Serve TAG requests on a worker pool with micro-batched inference."""

    def __init__(
        self,
        pipeline_factory: PipelineFactory,
        lm: SimulatedLM | None = None,
        workers: int = 4,
        window: int = 8,
        cache_size: int = 0,
        fault_plan: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        admission: AdmissionPolicy | None = None,
        tracer: Tracer | None = None,
        semantic_cache: SemanticResultCache | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._factory = pipeline_factory
        self._inner = lm or SimulatedLM()
        self.workers = workers
        self.window = window
        self.cache_size = cache_size
        self.fault_plan = fault_plan
        self.resilience = resilience
        self.admission = admission
        self.tracer = tracer
        self.semantic_cache = semantic_cache
        if semantic_cache is not None and semantic_cache.usage is None:
            # Bind the cache's meters to this server's Usage unless the
            # caller wired its own: semcache_* counters then land in
            # the same Usage delta as everything else the run metered.
            semantic_cache.usage = self._inner.usage

    def serve(self, requests: list[str]) -> ServeReport:
        """Run every request; never raises for a single request's failure.

        :class:`TAGPipeline` already converts step exceptions into
        ``TAGResult.error``; anything escaping anyway (a crashing
        pipeline *factory*, a bug in a custom step's attribute access
        outside ``run``) is caught per worker so one bad pipeline
        cannot take down the run.  A worker dying on anything harsher —
        a ``BaseException`` that is not an ``Exception``, or a bug in
        the serving bookkeeping itself — is *not* swallowed: the
        failure is captured, every worker is joined, and the exception
        re-raises here rather than silently short-counting results.
        """
        clock = VirtualClock()
        model = self._inner
        if self.fault_plan is not None:
            model = FaultyLM(model, self.fault_plan)
        batching = BatchingLM(
            model,
            window=self.window,
            cache_size=self.cache_size,
            clock=clock,
        )
        before = self._inner.usage.snapshot()
        results: list[ServeResult | None] = [None] * len(requests)
        # Semantic lookups and admission both run sequentially on this
        # thread, before workers exist: the hit/miss/coalesce/reject
        # partition of the stream is a pure function of the request
        # list, the cache state, and the budget — never of the worker
        # count.  Lookups come first: a hit dispatches no pipeline, so
        # admission prices it at zero (``decide(..., cached=True)``)
        # instead of the estimator's one-shot cost.
        semantic = self.semantic_cache
        semantic_entries = len(semantic) if semantic is not None else 0
        #: canonical key -> index of the in-flight leader for that key.
        pending: dict[str, int] = {}
        #: follower index -> leader index, resolved after the join.
        followers: dict[int, int] = {}
        admitted: list[int] = []
        rejected = 0
        for index, request in enumerate(requests):
            if semantic is not None:
                key = semantic.key_for(request)
                if key is not None and key in pending:
                    # In-run duplicate: its twin is already dispatched;
                    # resolve from the leader's result after the join.
                    semantic.meter_coalesced()
                    followers[index] = pending[key]
                    continue
                hit = semantic.lookup(request)
                if hit is not None:
                    if self.admission is not None:
                        self.admission.decide(request, cached=True)
                    results[index] = self._hit_result(index, request, hit)
                    continue
                if key is not None:
                    pending[key] = index
            if self.admission is not None:
                decision = self.admission.decide(request)
                if not decision.admit:
                    rejected += 1
                    results[index] = ServeResult(
                        index=index,
                        request=request,
                        result=TAGResult(
                            request=request, error=decision.to_error()
                        ),
                        et_seconds=0.0,
                        worker=-1,
                        lm_calls=0,
                        cache_hits=0,
                    )
                    continue
            admitted.append(index)
        # Round-robin over the *admitted* stream: worker i serves the
        # i-th, (i+W)-th, ... admitted requests.
        assignments = [
            (worker, admitted[worker :: self.workers])
            for worker in range(min(self.workers, len(admitted)))
        ]
        # Register every worker before any thread runs: the flush
        # barrier must know the full session population up front.
        sessions = {
            worker: batching.open_session(order=worker)
            for worker, _ in assignments
        }
        fatal: list[BaseException] = []
        threads = [
            threading.Thread(
                target=self._run_worker,
                args=(
                    batching,
                    sessions[worker],
                    worker,
                    indices,
                    requests,
                    results,
                    clock,
                    fatal,
                ),
                name=f"tag-worker-{worker}",
            )
            for worker, indices in assignments
        ]
        for thread in threads:
            # fork/join edges tell the dynamic race checker that worker
            # state is ordered after this thread's setup and before its
            # teardown reads below.  Thread *names* are the checker's
            # identities — deterministic, unlike ids (DET106).
            racecheck.fork(thread.name)
            thread.start()
        for thread in threads:
            thread.join()
            racecheck.join(thread.name)
        if racecheck.installed():
            racecheck.read("serve.fatal")
            for index in range(len(results)):
                racecheck.read(f"serve.results.{index}")
        if fatal:
            raise fatal[0]
        # Followers resolve from their leader's result now that the
        # join ordered every worker write before this thread (the same
        # single-owner handoff the racecheck reads above verify).
        for index in sorted(followers):
            leader = results[followers[index]]
            racecheck.write(f"serve.results.{index}")
            results[index] = ServeResult(
                index=index,
                request=requests[index],
                result=detached_copy(leader.result, requests[index]),
                et_seconds=0.0,
                worker=-2,
                lm_calls=0,
                cache_hits=0,
                semantic="coalesced",
            )
        # Stores run sequentially in index order: cache contents after
        # a run are a pure function of the request stream, whatever the
        # worker count.
        if semantic is not None:
            for index in admitted:
                served = results[index]
                if served is not None:
                    semantic.store(requests[index], served.result)
        return ServeReport(
            results=[result for result in results if result is not None],
            simulated_seconds=clock.now(),
            usage=self._inner.usage.since(before),
            workers=self.workers,
            window=self.window,
            admission_rejected=rejected,
            semantic_entries=semantic_entries,
        )

    def _hit_result(
        self, index: int, request: str, hit: SemanticHit
    ) -> ServeResult:
        """The served result for one semantic-cache hit.

        Built on the serve thread before workers exist.  The hit costs
        zero simulated seconds and zero LM calls; its trace (when
        tracing) is a root span holding one ``semcache.lookup`` leaf on
        the request's own virtual timeline — worker-count invariant
        like every other trace.
        """
        outcome = hit.result
        if self.tracer is not None:
            with self.tracer.request(request, index) as root:
                trace.leaf(
                    "semcache.lookup",
                    0.0,
                    outcome="hit",
                    via=hit.via,
                    similarity=round(hit.similarity, 9),
                    source=hit.source_request,
                )
            outcome.trace = root
        return ServeResult(
            index=index,
            request=request,
            result=outcome,
            et_seconds=0.0,
            worker=-2,
            lm_calls=0,
            cache_hits=0,
            semantic=hit.via,
        )

    def _worker_lm(
        self,
        batching: BatchingLM,
        session: Session,
        clock: VirtualClock,
    ):
        """The LM a worker's pipeline talks to.

        The resilience wrapper is per worker: its circuit breaker runs
        on a private timeline fed by this worker's own consumption, so
        breaker transitions are a pure function of the worker's call
        sequence — never of how the OS interleaved the other workers.
        """
        if self.resilience is None:
            return batching
        return ResilientLM(
            batching,
            self.resilience,
            clock=clock,
            session=session,
        )

    def _run_worker(
        self,
        batching: BatchingLM,
        session: Session,
        worker: int,
        indices: list[int],
        requests: list[str],
        results: list[ServeResult | None],
        clock: VirtualClock,
        fatal: list[BaseException],
    ) -> None:
        try:
            with session:
                try:
                    pipeline = self._factory(
                        self._worker_lm(batching, session, clock)
                    )
                except Exception as exc:  # noqa: BLE001 - fail requests, not the run
                    for index in indices:
                        racecheck.write(f"serve.results.{index}")
                        results[index] = ServeResult(
                            index=index,
                            request=requests[index],
                            result=TAGResult(
                                request=requests[index],
                                error=TAGError.from_exception(exc),
                            ),
                            et_seconds=0.0,
                            worker=worker,
                            lm_calls=0,
                            cache_hits=0,
                        )
                    return
                tracer = self.tracer
                for index in indices:
                    # Unlocked read of this session's meters: safe
                    # because writes from the flushing thread happen
                    # under the cv this worker re-acquired on wake-up
                    # (a release->acquire edge the checker verifies).
                    racecheck.read(f"Session.{session.order}.meters")
                    seconds = session.consumed_seconds
                    calls = session.lm_calls
                    hits = session.cache_hits
                    request_scope = (
                        tracer.request(requests[index], index)
                        if tracer is not None
                        else None
                    )
                    try:
                        if request_scope is not None:
                            with request_scope as root:
                                if self.semantic_cache is not None:
                                    # Mirror of the hit leaf the serve
                                    # thread emits: every traced
                                    # request shows its lookup.
                                    trace.leaf(
                                        "semcache.lookup",
                                        0.0,
                                        outcome="miss",
                                    )
                                outcome = pipeline.run(requests[index])
                                outcome.trace = root
                        else:
                            outcome = pipeline.run(requests[index])
                    except Exception as exc:  # noqa: BLE001 - worker must survive
                        outcome = TAGResult(
                            request=requests[index],
                            error=TAGError.from_exception(exc),
                        )
                    racecheck.read(f"Session.{session.order}.meters")
                    racecheck.write(f"serve.results.{index}")
                    results[index] = ServeResult(
                        index=index,
                        request=requests[index],
                        result=outcome,
                        et_seconds=session.consumed_seconds - seconds,
                        worker=worker,
                        lm_calls=session.lm_calls - calls,
                        cache_hits=session.cache_hits - hits,
                    )
        except BaseException as exc:  # noqa: BLE001 - surfaced by serve()
            # The session context manager has already closed the
            # session (so no other worker deadlocks on the flush
            # barrier); record the failure for serve() to re-raise.
            racecheck.write("serve.fatal")
            fatal.append(exc)
