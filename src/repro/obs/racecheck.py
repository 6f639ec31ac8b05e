"""Dynamic race detection: Eraser locksets + vector-clock ordering.

The static pass (:mod:`repro.analysis.concurrency`) proves what it can
from source; this module checks what actually *happened*.  Shared-state
hot spots in the serving stack carry tiny hooks (:func:`read`,
:func:`write`, :func:`guard`) that are no-ops until a
:class:`RaceChecker` is installed — the same zero-cost-when-disabled
contract as the tracer (E15): every hook starts with one module-global
``None`` check and bails.

With a checker installed, each access to a named shared variable is
checked two ways, in the style of Eraser refined by vector clocks:

- **lockset**: the intersection of locks held across all accesses to a
  variable must stay non-empty once the variable is written by more
  than one thread;
- **happens-before**: accesses ordered by thread fork/join or by
  release→acquire on a common lock cannot race, whatever locks they
  held — so single-owner handoffs (the server reading worker results
  after ``join``) are not false positives.

A pair of accesses races when at least one is a write, they come from
different threads, no common lock was held, and neither
happens-before the other.  Detection is *schedule-insensitive* for the
seeded fixtures this repo tests: an unguarded counter incremented by
two plain threads has no ordering edges and an empty lockset
intersection on every interleaving, so the finding is deterministic
across runs (the acceptance contract).

Thread identity is the thread *name* (the server names its workers
``tag-worker-<i>`` deterministically); never ``get_ident`` — ids vary
across runs and would leak into report bytes.

Lock-order tracking rides along: acquiring ``B`` while holding ``A``
records an ``A -> B`` edge, and a cycle in the resulting digraph is
reported as a potential deadlock even when the schedule happened not
to deadlock this time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = [
    "RaceChecker",
    "RaceFinding",
    "RaceReport",
    "checking",
    "fork",
    "guard",
    "install",
    "installed",
    "join",
    "read",
    "reacquired",
    "releasing",
    "write",
]


# ---------------------------------------------------------------------------
# Findings and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceFinding:
    """One detected hazard."""

    #: ``"race"`` or ``"lock-order"``.
    kind: str
    #: Shared-variable name, or the cycle rendering for lock-order.
    variable: str
    #: Sorted thread names involved.
    threads: tuple[str, ...]
    message: str

    def render(self) -> str:
        return (
            f"{self.kind}: {self.variable} "
            f"[{', '.join(self.threads)}] — {self.message}"
        )

    def __str__(self) -> str:
        return self.render()


@dataclass
class RaceReport:
    """Deterministically-ordered findings plus run statistics."""

    findings: list[RaceFinding] = field(default_factory=list)
    events: int = 0
    variables: int = 0
    threads: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"racecheck: {'clean' if self.ok else 'RACY'} "
            f"({len(self.findings)} finding(s), {self.events} events, "
            f"{self.variables} vars, {self.threads} threads)"
        ]
        lines.extend(finding.render() for finding in self.findings)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------------


def _dominates(later: dict[str, int], earlier: dict[str, int]) -> bool:
    """Does clock ``later`` happen-after (>=) clock ``earlier``?"""
    for thread, tick in earlier.items():
        if later.get(thread, 0) < tick:
            return False
    return True


def _merge(into: dict[str, int], other: dict[str, int]) -> None:
    for thread, tick in other.items():
        if into.get(thread, 0) < tick:
            into[thread] = tick


@dataclass
class _Access:
    """Last access to a variable by one thread (FastTrack-style epoch)."""

    clock: dict[str, int]
    locks: frozenset[str]
    is_write: bool
    count: int = 1


class _VarState:
    """Per-variable detector state."""

    __slots__ = ("reads", "writes", "racy")

    def __init__(self) -> None:
        #: thread name -> last read / last write access.
        self.reads: dict[str, _Access] = {}
        self.writes: dict[str, _Access] = {}
        self.racy = False


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class RaceChecker:
    """Collects shared-state access events and reports hazards.

    All hook methods are thread-safe (one internal lock serializes
    detector state); the hooks are called from the instrumented code's
    own threads, so the checker's lock is the only synchronization the
    detector itself needs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._vars: dict[str, _VarState] = {}
        #: thread name -> vector clock.
        self._clocks: dict[str, dict[str, int]] = {}
        #: thread name -> list of held lock names (acquisition order).
        self._held: dict[str, list[str]] = {}
        #: lock name -> clock of its last release.
        self._lock_clocks: dict[str, dict[str, int]] = {}
        #: child thread name -> parent clock snapshot (set by fork()).
        self._pending_forks: dict[str, dict[str, int]] = {}
        #: observed lock-order edges ``held -> acquired``.
        self._order_edges: dict[str, set[str]] = {}
        self._races: dict[tuple[str, str, str], RaceFinding] = {}
        self._events = 0

    # -- thread bookkeeping (caller holds self._lock) --------------------

    def _me_locked(self) -> str:
        name = threading.current_thread().name
        if name not in self._clocks:
            clock = self._pending_forks.pop(name, None)
            self._clocks[name] = dict(clock) if clock else {}
            self._clocks[name][name] = (
                self._clocks[name].get(name, 0) + 1
            )
            self._held.setdefault(name, [])
        return name

    # -- synchronization events ------------------------------------------

    def fork(self, child: str) -> None:
        """Parent is about to start thread ``child``: pass our clock."""
        with self._lock:
            self._events += 1
            me = self._me_locked()
            self._pending_forks[child] = dict(self._clocks[me])
            self._clocks[me][me] = self._clocks[me].get(me, 0) + 1

    def join(self, child: str) -> None:
        """Parent joined thread ``child``: absorb its clock."""
        with self._lock:
            self._events += 1
            me = self._me_locked()
            child_clock = self._clocks.get(child)
            if child_clock is not None:
                _merge(self._clocks[me], child_clock)

    def acquired(self, lock_name: str) -> None:
        with self._lock:
            self._events += 1
            me = self._me_locked()
            held = self._held[me]
            for already in held:
                if already != lock_name:
                    self._order_edges.setdefault(already, set()).add(
                        lock_name
                    )
            held.append(lock_name)
            release_clock = self._lock_clocks.get(lock_name)
            if release_clock is not None:
                _merge(self._clocks[me], release_clock)

    def released(self, lock_name: str) -> None:
        with self._lock:
            self._events += 1
            me = self._me_locked()
            held = self._held[me]
            if lock_name in held:
                held.reverse()
                held.remove(lock_name)
                held.reverse()
            self._lock_clocks[lock_name] = dict(self._clocks[me])
            self._clocks[me][me] = self._clocks[me].get(me, 0) + 1

    def releasing(self, lock_name: str) -> None:
        """About to block in ``cv.wait()``: publish our clock.

        ``Condition.wait`` releases and re-acquires its lock inside the
        library, invisible to :func:`guard`; these two hooks restore
        the release→acquire happens-before edge around the wait (the
        held-set is left alone — no instrumented access can run while
        the thread is blocked).
        """
        with self._lock:
            self._events += 1
            me = self._me_locked()
            clock = self._clocks[me]
            existing = self._lock_clocks.setdefault(lock_name, {})
            _merge(existing, clock)
            clock[me] = clock.get(me, 0) + 1

    def reacquired(self, lock_name: str) -> None:
        """``cv.wait()`` returned: absorb clocks published at releases."""
        with self._lock:
            self._events += 1
            me = self._me_locked()
            release_clock = self._lock_clocks.get(lock_name)
            if release_clock is not None:
                _merge(self._clocks[me], release_clock)

    # -- data access events ----------------------------------------------

    def read(self, variable: str) -> None:
        self._access(variable, is_write=False)

    def write(self, variable: str) -> None:
        self._access(variable, is_write=True)

    def _access(self, variable: str, is_write: bool) -> None:
        with self._lock:
            self._events += 1
            me = self._me_locked()
            clock = self._clocks[me]
            locks = frozenset(self._held[me])
            state = self._vars.setdefault(variable, _VarState())
            # Check against other threads' remembered accesses: a
            # write conflicts with reads and writes, a read only with
            # writes.
            conflicting = (
                list(state.writes.items())
                + (list(state.reads.items()) if is_write else [])
            )
            for other, access in conflicting:
                if other == me:
                    continue
                if access.locks & locks:
                    continue  # a common lock serializes the pair
                if _dominates(clock, access.clock):
                    continue  # ordered: fork/join or lock handoff
                self._record_race_locked(
                    variable, me, other, is_write, access.is_write
                )
            entry = _Access(dict(clock), locks, is_write)
            if is_write:
                state.writes[me] = entry
            else:
                state.reads[me] = entry
            clock[me] = clock.get(me, 0) + 1

    def _record_race_locked(
        self,
        variable: str,
        thread_a: str,
        thread_b: str,
        a_writes: bool,
        b_writes: bool,
    ) -> None:
        state = self._vars[variable]
        state.racy = True
        threads = tuple(sorted((thread_a, thread_b)))
        key = (variable, *threads)
        if key in self._races:
            return
        shape = (
            "write/write" if (a_writes and b_writes) else "read/write"
        )
        self._races[key] = RaceFinding(
            kind="race",
            variable=variable,
            threads=threads,
            message=(
                f"unordered {shape} with no common lock "
                "(empty lockset intersection, no fork/join or "
                "release->acquire edge)"
            ),
        )

    # -- reporting ---------------------------------------------------------

    def report(self) -> RaceReport:
        """Snapshot the findings (safe to call after worker joins)."""
        with self._lock:
            findings = sorted(
                self._races.values(),
                key=lambda f: (f.variable, f.threads),
            )
            findings.extend(self._order_findings_locked())
            return RaceReport(
                findings=findings,
                events=self._events,
                variables=len(self._vars),
                threads=len(self._clocks),
            )

    def _order_findings_locked(self) -> list[RaceFinding]:
        findings = []
        for cycle in _cycles(self._order_edges):
            findings.append(
                RaceFinding(
                    kind="lock-order",
                    variable=" -> ".join(cycle + [cycle[0]]),
                    threads=(),
                    message=(
                        "locks acquired in conflicting orders "
                        "(potential deadlock)"
                    ),
                )
            )
        return findings


def _cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles, smallest-node-first, deterministically sorted."""
    found: set[tuple[str, ...]] = set()

    def walk(start: str, node: str, trail: list[str]) -> None:
        for nxt in sorted(edges.get(node, ())):
            if nxt == start and len(trail) > 1:
                pivot = trail.index(min(trail))
                found.add(tuple(trail[pivot:] + trail[:pivot]))
            elif nxt not in trail and nxt > start:
                walk(start, nxt, trail + [nxt])

    for start in sorted(edges):
        walk(start, start, [start])
    return [list(cycle) for cycle in sorted(found)]


# ---------------------------------------------------------------------------
# Module-level hooks (the zero-cost-when-disabled surface)
# ---------------------------------------------------------------------------

_CHECKER: RaceChecker | None = None


def install(checker: RaceChecker) -> None:
    """Activate ``checker`` for all hooks (one checker at a time)."""
    global _CHECKER
    _CHECKER = checker


def installed() -> bool:
    return _CHECKER is not None


class checking:
    """``with checking(checker):`` — install for a scope, then restore."""

    def __init__(self, checker: RaceChecker) -> None:
        self.checker = checker
        self._saved: RaceChecker | None = None

    def __enter__(self) -> RaceChecker:
        self._saved = _CHECKER
        install(self.checker)
        return self.checker

    def __exit__(self, *exc_info: object) -> bool:
        global _CHECKER
        _CHECKER = self._saved
        return False


def read(variable: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.read(variable)


def write(variable: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.write(variable)


def fork(child: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.fork(child)


def join(child: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.join(child)


def releasing(lock_name: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.releasing(lock_name)


def reacquired(lock_name: str) -> None:
    checker = _CHECKER
    if checker is not None:
        checker.reacquired(lock_name)


class _Guard:
    """Lock proxy that notifies the checker around acquire/release."""

    __slots__ = ("name", "target")

    def __init__(self, name: str, target) -> None:
        self.name = name
        self.target = target

    def __enter__(self) -> None:
        self.target.__enter__()
        checker = _CHECKER
        if checker is not None:
            checker.acquired(self.name)
        return None

    def __exit__(self, *exc_info: object) -> bool:
        checker = _CHECKER
        if checker is not None:
            checker.released(self.name)
        return bool(self.target.__exit__(*exc_info))


def guard(name: str, lock):
    """``with guard("BatchingLM._cv", self._cv):`` — instrumented lock.

    Returns the raw lock when no checker is installed, so the disabled
    path costs one global read and a branch before the normal ``with``.
    """
    if _CHECKER is None:
        return lock
    return _Guard(name, lock)
