"""Deterministic structured tracing on per-request virtual timelines.

A :class:`Tracer` records one tree of :class:`Span`\\ s per served
request: request -> pipeline step -> SQL operator / LM call / retry
attempt.  Spans are stamped on a *per-request virtual timeline* — a
plain float cursor starting at 0.0 when the request begins — never on
wall-clock time, and never on the shared makespan clock either.

Why not the makespan clock?  The serving layer's
:class:`~repro.serve.clock.VirtualClock` measures the single simulated
accelerator that micro-batches are serialized through, so its readings
at any instant depend on which *other* requests were in flight — i.e.
on the worker count.  Span durations here are instead pure functions of
the work itself (token counts through the latency model, rows through
the operator cost model, fault/backoff costs from their deterministic
plans), so a request's trace is byte-identical across runs *and* across
``workers=1`` vs ``workers=8``.  The scheduling-dependent numbers
(batch-shared latencies, makespan) stay where they belong: in
:class:`~repro.lm.usage.Usage` and the
:class:`~repro.serve.server.ServeReport`.

Components emit spans through the module-level helpers (:func:`span`,
:func:`leaf`, :func:`event`, :func:`advance`) against a thread-local
active context, so no constructor plumbing is needed: the pipeline,
batching facade, and resilience middleware all pick up whatever request
context their thread is serving.  With no active context every helper
is a cheap no-op, so tracing-off overhead is effectively zero
(``benchmarks/bench_trace_overhead.py``).

Every served request runs inside a :class:`RequestScope`
(:func:`request`), traced or not: the serving layer charges the
request's ET, LM calls and cache hits to it on the request's own
thread (:func:`scope`).  Only a scope opened with a tracer holds a
root span, so :func:`active` keeps meaning "spans are being recorded".

Span identity is deliberately absent at runtime: ids are assigned at
export time from (request index, depth-first order), never from
``id()``/``uuid``/counters that would vary across runs — the
determinism linter's DET106 rule enforces this for the whole package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import racecheck

if TYPE_CHECKING:  # pragma: no cover
    from repro.lm.usage import Usage


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (breaker trip, deadline)."""

    name: str
    #: Request-timeline offset, in virtual seconds.
    at_s: float
    attrs: dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed operation on a request's virtual timeline."""

    name: str
    #: Start/end offsets from the request's t=0, in virtual seconds.
    start_s: float
    end_s: float = 0.0
    attrs: dict[str, object] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def walk(self):
        """Depth-first pre-order over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _Context:
    """One request's live trace state, bound to the serving thread."""

    __slots__ = ("cursor", "stack")

    def __init__(self, root: Span) -> None:
        self.cursor = 0.0
        self.stack: list[Span] = [root]


_LOCAL = threading.local()


def _context() -> _Context | None:
    return getattr(_LOCAL, "context", None)


def active() -> bool:
    """Is a request trace being recorded on this thread?"""
    return _context() is not None


class _NullSpan:
    """Shared no-op context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager for one open span on the active context."""

    __slots__ = ("context", "span")

    def __init__(self, context: _Context, opened: Span) -> None:
        self.context = context
        self.span = opened

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        self.span.end_s = self.context.cursor
        popped = self.context.stack.pop()
        assert popped is self.span, "span stack out of order"
        return False


def span(name: str, **attrs: object):
    """Open a nested span; a no-op when no trace is active."""
    context = _context()
    if context is None:
        return _NULL_SPAN
    opened = Span(name, start_s=context.cursor, attrs=attrs)
    context.stack[-1].children.append(opened)
    context.stack.append(opened)
    return _OpenSpan(context, opened)


def leaf(name: str, seconds: float = 0.0, **attrs: object) -> None:
    """Record a closed child span of ``seconds`` virtual duration.

    Advances the request cursor, so siblings lay out sequentially.
    """
    context = _context()
    if context is None:
        return
    start = context.cursor
    context.cursor = start + seconds
    context.stack[-1].children.append(
        Span(name, start_s=start, end_s=context.cursor, attrs=attrs)
    )


def event(name: str, **attrs: object) -> None:
    """Attach a point event to the innermost open span."""
    context = _context()
    if context is None:
        return
    context.stack[-1].events.append(
        SpanEvent(name, at_s=context.cursor, attrs=attrs)
    )


def advance(seconds: float) -> None:
    """Move the request's virtual cursor forward (inside an open span)."""
    context = _context()
    if context is not None:
        context.cursor += seconds


class _Suspended:
    """Context manager hiding the active trace from nested calls."""

    __slots__ = ("saved",)

    def __enter__(self) -> None:
        self.saved = _context()
        _LOCAL.context = None

    def __exit__(self, *exc_info: object) -> bool:
        _LOCAL.context = self.saved
        return False


def suspended():
    """Temporarily deactivate tracing on this thread.

    The batching scheduler uses this around a flush: the flush runs on
    whichever requester's thread completed the barrier, so letting the
    inner model self-trace there would attribute the whole micro-batch
    to one arbitrary request.  The per-request ``lm.call`` spans are
    emitted at delivery instead, on each requester's own context.
    """
    return _Suspended()


class RequestScope:
    """One served request: what it consumed, and its root span if traced.

    :func:`request` opens it on the thread serving the request, and only
    that thread charges it (:func:`scope`), so its counts need no lock
    and start at zero — a request's ET is the sum of its own charges,
    never a difference of a worker's running totals.
    """

    __slots__ = (
        "tracer", "index", "root", "et_seconds", "lm_calls", "cache_hits",
        "_saved",
    )

    def __init__(
        self, tracer: "Tracer | None", name: str, index: int
    ) -> None:
        self.tracer = tracer
        self.index = index
        #: The request's root span; None when no tracer records it.
        self.root = None
        if tracer is not None:
            attrs = {"index": index, "request": name}
            self.root = Span("request", start_s=0.0, attrs=attrs)
        #: Simulated LM seconds of this request's responses, fault burn
        #: and backoff sleeps included.
        self.et_seconds = 0.0
        self.lm_calls = 0
        self.cache_hits = 0

    def charge(
        self, et_seconds: float = 0.0, lm_calls: int = 0, cache_hits: int = 0
    ) -> None:
        self.et_seconds += et_seconds
        self.lm_calls += lm_calls
        self.cache_hits += cache_hits

    def __enter__(self) -> "RequestScope":
        self._saved = (getattr(_LOCAL, "scope", None), _context())
        _LOCAL.scope = self
        if self.root is not None:
            _LOCAL.context = _Context(self.root)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        saved_scope, saved_context = self._saved
        _LOCAL.scope = saved_scope
        if self.root is not None:
            context = _context()
            if context is not None:
                self.root.end_s = context.cursor
            _LOCAL.context = saved_context
            self.tracer._record(self.index, self.root)
        return False


def request(tracer: "Tracer | None", name: str, index: int) -> RequestScope:
    """Open the scope one served request is charged to on this thread;
    with a tracer, also its root span (recorded on exit)."""
    return RequestScope(tracer, name, index)


def scope() -> RequestScope | None:
    """The request open on this thread, to charge; None with none open
    (a benchmark, a shard thread, a transient session): nothing is
    charged there."""
    return getattr(_LOCAL, "scope", None)


def count(usage: "Usage | None", **amounts: float) -> None:
    """Add to the Usage a holder is bound to; a holder bound to none
    (None: an unbound database or semantic cache, a model without
    ``usage``) counts nowhere.  The one place that case is handled."""
    if usage is not None:
        usage.add(**amounts)


class Tracer:
    """Collects request span trees (to trace nothing, pass no tracer)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._roots: list[tuple[int, Span]] = []

    def request(self, name: str, index: int) -> RequestScope:
        """Open (and on exit record) the root span for one request."""
        return request(self, name, index)

    def _record(self, index: int, root: Span) -> None:
        with racecheck.guard("Tracer._lock", self._lock):
            racecheck.write("Tracer._roots")
            self._roots.append((index, root))

    @property
    def roots(self) -> list[tuple[int, Span]]:
        """Recorded (request index, root span) pairs, sorted by index.

        The sort makes export order a pure function of the request
        stream — worker threads record completions in OS-schedule
        order, which must never leak into artifact bytes.
        """
        with racecheck.guard("Tracer._lock", self._lock):
            racecheck.read("Tracer._roots")
            return sorted(self._roots, key=lambda pair: pair[0])

    def clear(self) -> None:
        with racecheck.guard("Tracer._lock", self._lock):
            racecheck.write("Tracer._roots")
            self._roots = []
