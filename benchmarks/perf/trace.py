"""Span recording from outside the program, and self-time attribution.

The traced run hands the program *delegating proxies* in place of its
injectable collaborators (the ``lm`` given to methods and ``TagServer``,
``Dataset.db``, the steps handed to ``TAGPipeline``).  Each proxy
records one span per call at its layer boundary: name, start, end, the
span that caused it, and the op it belongs to.  Spans stay in memory
and are written out when the run ends.

Span names are ``"<layer>/<function>"``; the layer prefix is what the
self-time table groups by.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split("/", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        self._recorder._stack().append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        self.span.end = time.perf_counter()
        self._recorder._stack().pop()
        return False


class Recorder:
    """In-memory span store shared by every proxy of one traced run.

    Parentage is per thread (a stack of open spans).  A span opened on
    a thread with nothing open — a serving worker, a shard thread — is
    parented to the load thread's current *root* span, which is the one
    timed call of the op being measured.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        #: Op id stamped on new spans; the load loop advances it.  Work
        #: that runs several ops inside one timed call (``serve()``)
        #: overrides it per span through ``op=``.
        self.op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self, name: str, op: int | None = None, **attrs: Any
    ) -> _OpenSpan:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=parent,
                op=self.op if op is None else op,
                thread=threading.current_thread().name,
                attrs=attrs,
            )
            self.spans.append(span)
        return _OpenSpan(self, span)

    def root(self, name: str, **attrs: Any) -> "_RootSpan":
        """The span of one timed call on the load thread."""
        return _RootSpan(self, self.span(name, **attrs))

    # ------------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One span per line; times are microseconds from the first
        span's start."""
        origin = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "layer": span.layer,
                            "start_us": round((span.start - origin) * 1e6, 1),
                            "end_us": round((span.end - origin) * 1e6, 1),
                            "parent": span.parent,
                            "op": span.op,
                            "thread": span.thread,
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _RootSpan:
    __slots__ = ("_recorder", "_open")

    def __init__(self, recorder: Recorder, opened: _OpenSpan) -> None:
        self._recorder = recorder
        self._open = opened

    def __enter__(self) -> Span:
        self._recorder._root = self._open.span.id
        return self._open.__enter__()

    def __exit__(self, *exc_info: object) -> bool:
        self._open.__exit__(*exc_info)
        self._recorder._root = None
        return False


# ----------------------------------------------------------------------
# self-time attribution
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, in seconds.

    A span's self time is its duration minus the part its children
    cover.  Children on other threads can overlap each other (two shard
    threads blocked on the same LM flush), so "cover" is computed by a
    sweep over span boundaries: each instant of a root's interval goes
    to the spans that are open with no open child, split equally among
    them.  With one thread this *is* duration minus child coverage;
    with several, the self times of a tree still sum exactly to its
    root's duration.
    """
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    result: dict[int, float] = {span.id: 0.0 for span in spans}
    for root in children[None]:
        tree: list[Span] = []
        pending = [root]
        while pending:
            node = pending.pop()
            tree.append(node)
            pending.extend(children[node.id])
        events = []
        for span in tree:
            start = min(max(span.start, root.start), root.end)
            end = min(max(span.end, start), root.end)
            # Ends sort before starts at equal times; parents (lower
            # ids) open before and close after their children.
            events.append((start, 1, span.id, span))
            events.append((end, 0, -span.id, span))
        events.sort(key=lambda event: event[:3])
        open_children: dict[int, int] = defaultdict(int)
        active: dict[int, Span] = {}
        previous = root.start
        for moment, opening, _, span in events:
            elapsed = moment - previous
            if elapsed > 0.0 and active:
                leaves = [
                    sid for sid in active if open_children[sid] == 0
                ]
                share = elapsed / len(leaves)
                for sid in leaves:
                    result[sid] += share
            previous = moment
            if opening:
                active[span.id] = span
                if span.parent in active:
                    open_children[span.parent] += 1
            else:
                del active[span.id]
                if span.parent in active:
                    open_children[span.parent] -= 1
    return result


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self seconds summed per layer prefix."""
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)


# ----------------------------------------------------------------------
# delegating proxies
# ----------------------------------------------------------------------


class _Proxy:
    """Forwards everything it does not trace to the wrapped object."""

    def __init__(self, target: Any, recorder: Recorder) -> None:
        self._target = target
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class LMProxy(_Proxy):
    """Traces ``complete``/``complete_batch`` of a SimulatedLM or a
    BatchingLM facade; ``layer`` names which of the two it wraps."""

    #: How many distinct prompts to keep for the tokenizer measurement.
    PROMPT_SAMPLE = 256

    def __init__(
        self, target: Any, recorder: Recorder, layer: str = "lm"
    ) -> None:
        super().__init__(target, recorder)
        self._layer = layer
        self.prompts: list[str] = []

    def _sample(self, prompts: list[str]) -> None:
        room = self.PROMPT_SAMPLE - len(self.prompts)
        if room > 0:
            self.prompts.extend(prompts[:room])

    def complete(self, prompt: str, max_tokens: int | None = None):
        self._sample([prompt])
        with self._recorder.span(f"{self._layer}/complete", calls=1):
            return self._target.complete(prompt, max_tokens)

    def complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ):
        self._sample(prompts)
        with self._recorder.span(
            f"{self._layer}/complete_batch", calls=len(prompts)
        ):
            return self._target.complete_batch(prompts, max_tokens)


class DatabaseProxy(_Proxy):
    """Traces the SQL facade of a ``Database`` and keeps the distinct
    SELECT texts it saw, for the front-end replay."""

    SQL_SAMPLE = 512

    def __init__(self, target: Any, recorder: Recorder) -> None:
        super().__init__(target, recorder)
        self.statements: dict[str, None] = {}

    def _traced(self, function: str, sql: Any, args: tuple, kwargs: dict):
        if isinstance(sql, str) and len(self.statements) < self.SQL_SAMPLE:
            self.statements.setdefault(sql)
        with self._recorder.span(f"db/{function}") as span:
            result = getattr(self._target, function)(sql, *args, **kwargs)
            rows = getattr(result, "rows", None)
            if rows is not None:
                span.attrs["rows"] = len(rows)
            return result

    def execute(self, sql: str, *args: Any, **kwargs: Any):
        return self._traced("execute", sql, args, kwargs)

    def explain_analyze(self, sql: str, *args: Any, **kwargs: Any):
        return self._traced("explain_analyze", sql, args, kwargs)

    def analyze(self, sql: Any, *args: Any, **kwargs: Any):
        return self._traced("analyze", sql, args, kwargs)

    def explain(self, sql: str, *args: Any, **kwargs: Any):
        return self._traced("explain", sql, args, kwargs)


class StepProxy(_Proxy):
    """Traces one TAG step (syn, exec or gen) handed to ``TAGPipeline``."""

    def synthesize(self, request: str):
        with self._recorder.span("core/syn"):
            return self._target.synthesize(request)

    def execute(self, query: Any):
        with self._recorder.span("core/exec"):
            return self._target.execute(query)

    def generate(self, request: str, table: Any):
        with self._recorder.span("core/gen"):
            return self._target.generate(request, table)
