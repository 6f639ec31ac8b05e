"""BatchingLM: a micro-batching, caching facade over :class:`SimulatedLM`.

The paper credits hand-written TAG's low execution time to vLLM-style
*batched inference* (§4.3).  Inside one pipeline the semantic operators
already batch their own prompts; a *server* must additionally coalesce
requests arriving from many concurrent pipelines.  ``BatchingLM``
implements the same ``complete`` / ``complete_batch`` interface as
:class:`~repro.lm.model.SimulatedLM`, so any pipeline can be pointed at
it unchanged, and turns concurrent ``complete`` calls into micro-batches
flushed through the inner model's ``complete_batch``.

Determinism.  Real micro-batching schedulers flush on a wall-clock
window; that would make batch composition (and therefore simulated
latency) depend on thread timing.  Here the "window" is a *size* cap
and the flush trigger is a barrier on the deterministic virtual clock's
world: a flush happens exactly when every open session is either
blocked on the LM or finished.  Pending requests are then ordered by
``(session order, submission sequence)`` — both assigned
deterministically — and chunked into micro-batches of at most
``window`` requests.  Given which session makes which LM call, batch
composition never depends on thread scheduling, so answers, token
counts, *and* simulated seconds are exactly reproducible wherever that
assignment is fixed.  It is not fixed under sharded execution: a UDF
key two shards both need is dispatched by whichever shard thread claims
it first (:meth:`repro.db.shard.ShardDedup.claim`), so which session's
flush carries it — and with it the micro-batches and the simulated
seconds, though not the answers or ``Usage`` — can vary between runs
(a known flake, ROADMAP item 8).

Sessions.  A :class:`Session` represents one synchronous requester (a
server worker).  The barrier waits for every open session, so a session
MUST be closed when its requester stops issuing calls (use it as a
context manager) or every other requester deadlocks.  Calls made
without an explicit session get a transient one per call, which makes a
bare ``BatchingLM(inner)`` a drop-in single-threaded replacement for
the inner model (every call becomes a batch of one).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.db.stmtcache import LRUCache
from repro.lm.model import LMConfig, LMResponse, SimulatedLM
from repro.lm.tokenizer import count_tokens
from repro.lm.usage import Usage
from repro.obs import racecheck, trace
from repro.serve.clock import VirtualClock

_MISS = object()


@dataclass
class _Pending:
    """One submitted prompt waiting for a flush.

    When the cache is enabled, identical in-flight prompts coalesce:
    ``followers`` are requests that share this item's inner-model call
    and are resolved with it (metered as cache hits — one call, one
    token bill).  ``via`` records how the item was satisfied for trace
    attribution: ``"call"`` (cache off), ``"miss"``, ``"hit"``, or
    ``"coalesced"``.
    """

    session: "Session"
    seq: int
    prompt: str
    max_tokens: int | None
    done: bool = False
    response: LMResponse | None = None
    error: Exception | None = None
    followers: list["_Pending"] = field(default_factory=list)
    via: str = "call"
    #: A re-submission of a key whose delivery errored: its cache
    #: hit/miss was counted the first time.
    retry: bool = False


def _schedule_order(item: _Pending) -> tuple[int, int]:
    return (item.session.order, item.seq)


class Session:
    """One registered requester of the flush barrier.

    ``order`` is the deterministic sort key used when chunking pending
    requests into micro-batches; servers pass the worker index.
    """

    def __init__(self, lm: "BatchingLM", order: int) -> None:
        self._lm = lm
        self.order = order
        self.open = True
        #: True while blocked inside a ``complete``/``complete_batch``.
        self.waiting = False
        #: True while the requester is blocked on *other* sessions'
        #: work (a shard join, a cross-shard dedup wait) rather than on
        #: its own LM call.  A parked session does not hold up the
        #: flush barrier — it will issue no calls until unparked.
        self.parked = False
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def __enter__(self) -> "Session":
        self._lm.bind(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lm.close_session(self)


class _Parked:
    """Context manager marking a session parked for its duration."""

    __slots__ = ("_lm", "_session")

    def __init__(self, lm: "BatchingLM", session: Session | None) -> None:
        self._lm = lm
        self._session = session

    def __enter__(self) -> None:
        if self._session is not None:
            self._lm._set_parked(self._session, True)
        return None

    def __exit__(self, *exc_info: object) -> bool:
        if self._session is not None:
            self._lm._set_parked(self._session, False)
        return False


class BatchingLM:
    """Micro-batching + LRU-caching facade with the SimulatedLM interface."""

    def __init__(
        self,
        inner: SimulatedLM,
        window: int = 8,
        cache_size: int = 0,
        clock: VirtualClock | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._inner = inner
        self.window = window
        self.clock = clock or VirtualClock()
        self._cache = LRUCache(cache_size)
        self._cv = threading.Condition()
        self._sessions: list[Session] = []
        self._pending: list[_Pending] = []
        #: key -> leader item, for in-flight coalescing (cache on only).
        self._inflight: dict[tuple[str, int | None], _Pending] = {}
        #: key -> outstanding errored deliveries; a re-submission of an
        #: errored key is a *retry* of already-metered work, so its
        #: cache hit/miss is not counted again (see _submit_in_session).
        self._errored: dict[tuple[str, int | None], int] = {}
        self._local = threading.local()
        self._next_order = 0

    # ------------------------------------------------------------------
    # SimulatedLM-compatible surface
    # ------------------------------------------------------------------

    @property
    def usage(self) -> Usage:
        """Shared with the inner model: one meter for the deployment."""
        return self._inner.usage

    @property
    def config(self) -> LMConfig:
        return self._inner.config

    def complete(
        self, prompt: str, max_tokens: int | None = None
    ) -> LMResponse:
        """One request; may be coalesced with other sessions' requests."""
        [item] = self._submit([(prompt, max_tokens)])
        if item.error is not None:
            raise item.error
        assert item.response is not None
        return item.response

    def complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ) -> list[LMResponse]:
        """A caller-side batch; the scheduler may split or merge it."""
        if not prompts:
            return []
        items = self._submit([(prompt, max_tokens) for prompt in prompts])
        for item in items:
            if item.error is not None:
                raise item.error
        return [item.response for item in items]  # type: ignore[misc]

    def try_complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ) -> list[LMResponse | Exception]:
        """Like :meth:`complete_batch`, but per-prompt outcomes.

        Returns one entry per prompt: the :class:`LMResponse` on
        success, the exception on failure — nothing is raised.  Lets a
        resilience layer retry *only* the failed prompts instead of
        re-running (and re-billing) the whole batch.
        """
        if not prompts:
            return []
        items = self._submit([(prompt, max_tokens) for prompt in prompts])
        return [
            item.error if item.error is not None else item.response
            for item in items
        ]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def open_session(self, order: int | None = None) -> Session:
        """Register a requester; it counts toward the flush barrier.

        Safe to call before the requester's thread starts: registering
        all workers up front prevents early workers from flushing
        batches that late-starting workers should have joined.
        """
        with racecheck.guard("BatchingLM._cv", self._cv):
            racecheck.write("BatchingLM._sessions")
            if order is None:
                order = self._next_order
            self._next_order = max(self._next_order, order + 1)
            session = Session(self, order)
            self._sessions.append(session)
            return session

    def bind(self, session: Session) -> None:
        """Adopt ``session`` for calls made from the current thread."""
        self._local.session = session

    def current_session(self) -> Session | None:
        """The session bound to the current thread, if any."""
        return getattr(self._local, "session", None)

    def parked(self):
        """Park the current thread's session while it waits on others.

        The sharded executor wraps its shard joins (and cross-shard
        dedup waits) in this: the waiting session will issue no LM
        calls until the wait returns, so counting it toward the flush
        barrier would deadlock the shards it is waiting *for*.  A
        no-op context manager when the thread has no bound session.
        """
        return _Parked(self, self.current_session())

    def _set_parked(self, session: Session, parked: bool) -> None:
        with racecheck.guard("BatchingLM._cv", self._cv):
            racecheck.write("BatchingLM._sessions")
            session.parked = parked
            if parked:
                # Parking may complete the barrier: every other open
                # session could already be waiting on the LM.
                self._flush_if_barrier()

    def close_session(self, session: Session) -> None:
        """Deregister; may complete the barrier and trigger a flush."""
        if getattr(self._local, "session", None) is session:
            self._local.session = None
        with racecheck.guard("BatchingLM._cv", self._cv):
            if not session.open:
                return
            racecheck.write("BatchingLM._sessions")
            session.open = False
            self._sessions.remove(session)
            self._flush_if_barrier()

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------

    def _submit(
        self, requests: list[tuple[str, int | None]]
    ) -> list[_Pending]:
        session = getattr(self._local, "session", None)
        if session is not None:
            return self._submit_in_session(session, requests)
        transient = self.open_session()
        try:
            self.bind(transient)
            return self._submit_in_session(transient, requests)
        finally:
            self.close_session(transient)

    def _submit_in_session(
        self, session: Session, requests: list[tuple[str, int | None]]
    ) -> list[_Pending]:
        with racecheck.guard("BatchingLM._cv", self._cv):
            # Everything the scheduler mutates below — the pending
            # queue, in-flight coalescing map and errored-retry ledger
            # — is guarded by the one condition variable (the prompt
            # cache and Usage hold their own locks, taken inside it).
            racecheck.write("BatchingLM._pending")
            racecheck.write("BatchingLM._inflight")
            racecheck.write("BatchingLM._errored")
            items: list[_Pending] = []
            for prompt, max_tokens in requests:
                key = (prompt, max_tokens)
                # A key whose previous delivery errored is being
                # retried (ResilientLM re-submission, a fallback tier
                # replaying the same prompt): the original submission
                # already metered its hit/miss, so metering again would
                # double-count cache_misses in the ServeReport.
                retry = False
                outstanding = self._errored.get(key, 0)
                if outstanding:
                    retry = True
                    if outstanding > 1:
                        self._errored[key] = outstanding - 1
                    else:
                        del self._errored[key]
                if self._cache.capacity:
                    # One promoting get() is the lookup AND the
                    # recency touch; ``key in cache`` first would
                    # leave the eviction order unchanged.
                    cached = self._cache.get(key, _MISS)
                    if cached is not _MISS:
                        if not retry:
                            self.usage.add(cache_hits=1)
                        items.append(
                            _Pending(
                                session,
                                session.next_seq(),
                                prompt,
                                max_tokens,
                                done=True,
                                # Served from memory: no simulated compute.
                                response=replace(cached, latency_s=0.0),
                                via="hit",
                                retry=retry,
                            )
                        )
                        continue
                    leader = self._inflight.get(key)
                    if leader is not None:
                        # Same prompt already awaiting a flush: ride
                        # the leader's call instead of paying twice.
                        if not retry:
                            self.usage.add(cache_hits=1)
                        follower = _Pending(
                            session,
                            session.next_seq(),
                            prompt,
                            max_tokens,
                            via="coalesced",
                            retry=retry,
                        )
                        leader.followers.append(follower)
                        items.append(follower)
                        continue
                    if not retry:
                        self.usage.add(cache_misses=1)
                item = _Pending(
                    session,
                    session.next_seq(),
                    prompt,
                    max_tokens,
                    via="miss" if self._cache.capacity else "call",
                    retry=retry,
                )
                if self._cache.capacity:
                    self._inflight[key] = item
                self._pending.append(item)
                items.append(item)
            if any(not item.done for item in items):
                session.waiting = True
                self._flush_if_barrier()
                while any(not item.done for item in items):
                    # Condition.wait releases and re-acquires the cv
                    # inside the library, invisible to the guard; these
                    # hooks restore the release->acquire ordering edge
                    # for the dynamic race checker.
                    racecheck.releasing("BatchingLM._cv")
                    self._cv.wait()
                    racecheck.reacquired("BatchingLM._cv")
            scope = trace.scope()
            tracing = trace.active()
            for item in items:
                if scope is not None:
                    # Failed calls still consumed simulated seconds
                    # (fault errors carry them): the burn is the
                    # requester's, so per-request latency under faults
                    # reflects what the request actually cost.
                    scope.charge(
                        getattr(item.response or item.error, "latency_s", 0.0),
                        item.error is None and item.via in ("call", "miss"),
                        item.via in ("hit", "coalesced") and not item.retry,
                    )
                if tracing:
                    self._trace_item(item)
            return items

    def _trace_item(self, item: _Pending) -> None:
        """Emit this delivery's ``lm.call`` span on the requester's trace.

        Span durations are *scheduling-invariant* virtual costs — the
        unbatched cost of the tokens for a model call, zero for cache
        service, the fault plan's burn for an error — never the
        batch-shared ``latency_s``, which depends on what else was in
        flight (and therefore on the worker count).  The shared costs
        stay in Usage; the trace stays byte-identical across worker
        counts.
        """
        if item.error is not None:
            trace.leaf(
                "lm.call",
                getattr(item.error, "latency_s", 0.0),
                via=item.via,
                outcome="error",
                kind=type(item.error).__name__,
            )
            return
        response = item.response
        assert response is not None
        if item.via in ("hit", "coalesced"):
            cost = 0.0
        else:
            cost = self.config.latency.call_seconds(
                response.prompt_tokens, response.output_tokens
            )
        trace.leaf(
            "lm.call",
            cost,
            via=item.via,
            prompt_tokens=response.prompt_tokens,
            output_tokens=response.output_tokens,
        )

    def _flush_if_barrier(self) -> None:
        """Flush iff no open session is still running (lock held).

        Parked sessions (see :meth:`parked`) are blocked on other
        sessions' progress, not on their own LM call, so they do not
        count as "still running".
        """
        if not self._pending:
            return
        if any(
            s.open and not s.waiting and not s.parked
            for s in self._sessions
        ):
            return
        self._flush()

    def _flush(self) -> None:
        """Run every pending request through the inner model (lock held).

        Requests are ordered by the deterministic ``(order, seq)`` key,
        grouped by ``max_tokens`` (the inner batch API applies one
        budget per batch), and chunked into ``window``-sized
        micro-batches.  Prompts that overflow the context window are
        replayed individually so the requester sees exactly the error
        and accounting the unbatched path produces.
        """
        racecheck.write("BatchingLM._pending")
        batch = []
        for item in self._pending:
            if item.followers:
                # Whichever thread submitted a coalesced prompt first
                # led it.  Hand the call to the earliest ``(order,
                # seq)`` so the batch it joins and the request it is
                # billed to do not depend on thread timing.
                first = min(item.followers, key=_schedule_order)
                if _schedule_order(first) < _schedule_order(item):
                    item.followers.remove(first)
                    first.followers = [item, *item.followers]
                    item.followers = []
                    # ``retry`` goes with ``via``: it only decides
                    # whether the item's hit was counted in Usage.
                    first.via, item.via = item.via, first.via
                    first.retry, item.retry = item.retry, first.retry
                    item = first
            batch.append(item)
        batch.sort(key=_schedule_order)
        self._pending = []
        context_window = self._inner.config.context_window
        groups: dict[int | None, list[_Pending]] = {}
        # The flush runs on whichever requester's thread completed the
        # barrier; without suspension the inner model's spans would all
        # land on that one request's trace.  Per-request attribution
        # happens at delivery instead (see _trace_item).
        with trace.suspended():
            for item in batch:
                if count_tokens(item.prompt) > context_window:
                    self._run_single(item)
                else:
                    groups.setdefault(item.max_tokens, []).append(item)
            for max_tokens in sorted(
                groups, key=lambda v: (v is None, v or 0)
            ):
                items = groups[max_tokens]
                for start in range(0, len(items), self.window):
                    self._run_chunk(items[start : start + self.window])
        for session in self._sessions:
            session.waiting = False
        self._cv.notify_all()

    def _run_chunk(self, chunk: list[_Pending]) -> None:
        try:
            responses = self._inner.complete_batch(
                [item.prompt for item in chunk], chunk[0].max_tokens
            )
        except Exception:  # noqa: BLE001 - replay to isolate the bad prompt
            # One poisoned prompt (e.g. unroutable) must not fail its
            # batch-mates: fall back to per-request execution, which
            # delivers each requester its own outcome.
            for item in chunk:
                self._run_single(item)
            return
        self.clock.advance(sum(r.latency_s for r in responses))
        for item, response in zip(chunk, responses):
            self._finish(item, response)

    def _run_single(self, item: _Pending) -> None:
        try:
            response = self._inner.complete(item.prompt, item.max_tokens)
        except Exception as exc:  # noqa: BLE001 - delivered to the requester
            # Injected faults carry the simulated seconds the failed
            # call burned (a timeout costs the full timeout); the
            # accelerator timeline pays for failures like successes.
            self.clock.advance(getattr(exc, "latency_s", 0.0))
            item.error = exc
            item.done = True
            key = (item.prompt, item.max_tokens)
            racecheck.write("BatchingLM._inflight")
            racecheck.write("BatchingLM._errored")
            self._inflight.pop(key, None)
            # Each errored delivery (leader + followers) may come back
            # as a retry of work whose hit/miss was already metered.
            self._errored[key] = (
                self._errored.get(key, 0) + 1 + len(item.followers)
            )
            for follower in item.followers:
                follower.error = exc
                follower.done = True
            return
        self.clock.advance(response.latency_s)
        self._finish(item, response)

    def _finish(self, item: _Pending, response: LMResponse) -> None:
        item.response = response
        item.done = True
        if self._cache.capacity:
            racecheck.write("BatchingLM._inflight")
            self._cache.put((item.prompt, item.max_tokens), response)
            self._inflight.pop((item.prompt, item.max_tokens), None)
        for follower in item.followers:
            # The compute already ran (and was billed) once: followers
            # see the same text at zero additional simulated latency.
            follower.response = replace(response, latency_s=0.0)
            follower.done = True
