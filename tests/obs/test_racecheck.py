"""Tests for the dynamic race checker (repro.obs.racecheck)."""

from __future__ import annotations

import threading

from repro.obs import racecheck
from repro.obs.racecheck import RaceChecker, RaceFinding


def _spawn(name: str, target) -> threading.Thread:
    """Fork-annotated named thread (the checker keys on thread names)."""
    thread = threading.Thread(target=target, name=name)
    racecheck.fork(name)
    thread.start()
    return thread


def _reap(thread: threading.Thread) -> None:
    thread.join()
    racecheck.join(thread.name)


def _run_unguarded_counter() -> str:
    """Two threads bump a shared counter with no lock: the seeded race."""
    checker = RaceChecker()
    with racecheck.checking(checker):
        counter = {"n": 0}

        def bump() -> None:
            for _ in range(50):
                racecheck.read("fixture.counter")
                value = counter["n"]
                racecheck.write("fixture.counter")
                counter["n"] = value + 1

        workers = [_spawn(f"bumper-{i}", bump) for i in range(2)]
        for worker in workers:
            _reap(worker)
    return checker.report().render()


class TestSeededRaces:
    def test_unguarded_counter_detected(self):
        rendered = _run_unguarded_counter()
        assert "RACY" in rendered
        assert "race: fixture.counter [bumper-0, bumper-1]" in rendered
        assert "empty lockset intersection" in rendered

    def test_unguarded_counter_deterministic_across_runs(self):
        # Schedule-insensitive: no ordering edges and no common lock on
        # any interleaving, so the report bytes never vary.
        assert _run_unguarded_counter() == _run_unguarded_counter()

    def test_guarded_counter_clean(self):
        checker = RaceChecker()
        with racecheck.checking(checker):
            lock = threading.Lock()
            counter = {"n": 0}

            def bump() -> None:
                for _ in range(50):
                    with racecheck.guard("fixture.lock", lock):
                        racecheck.write("fixture.counter")
                        counter["n"] += 1

            workers = [_spawn(f"bumper-{i}", bump) for i in range(4)]
            for worker in workers:
                _reap(worker)
        report = checker.report()
        assert report.ok, report.render()
        assert report.threads == 5  # main + 4 workers
        assert report.variables == 1

    def test_lock_order_inversion_detected(self):
        # The two threads run sequentially, so no actual deadlock — the
        # checker still sees the conflicting acquisition orders.
        checker = RaceChecker()
        with racecheck.checking(checker):
            lock_a, lock_b = threading.Lock(), threading.Lock()

            def forward() -> None:
                with racecheck.guard("fixture.a", lock_a):
                    with racecheck.guard("fixture.b", lock_b):
                        pass

            def backward() -> None:
                with racecheck.guard("fixture.b", lock_b):
                    with racecheck.guard("fixture.a", lock_a):
                        pass

            first = _spawn("order-1", forward)
            _reap(first)
            second = _spawn("order-2", backward)
            _reap(second)
        report = checker.report()
        assert [f.kind for f in report.findings] == ["lock-order"]
        assert report.findings[0].variable == (
            "fixture.a -> fixture.b -> fixture.a"
        )
        assert "potential deadlock" in report.findings[0].message


class TestHappensBefore:
    def test_fork_join_handoff_is_ordered(self):
        # Parent writes, child writes, parent reads after join — no
        # locks anywhere, yet every pair is ordered by fork/join.
        checker = RaceChecker()
        with racecheck.checking(checker):
            box = {"v": 0}

            racecheck.write("fixture.box")
            box["v"] = 1

            def child() -> None:
                racecheck.write("fixture.box")
                box["v"] = 2

            worker = _spawn("hand-off", child)
            _reap(worker)
            racecheck.read("fixture.box")
            assert box["v"] == 2
        assert checker.report().ok

    def test_missing_fork_edge_is_a_race(self):
        # Same handoff but without fork/join annotations: the parent's
        # write and the child's write are unordered.
        checker = RaceChecker()
        with racecheck.checking(checker):
            racecheck.write("fixture.box")

            def child() -> None:
                racecheck.write("fixture.box")

            worker = threading.Thread(target=child, name="stray")
            worker.start()
            worker.join()
        report = checker.report()
        assert not report.ok
        assert report.findings[0].variable == "fixture.box"

    def test_lock_release_acquire_orders_unlocked_reads(self):
        # Thread A publishes under a lock; after A is done, thread B
        # takes the lock once and then reads *outside* it.  The
        # release->acquire edge makes the unlocked read safe — the
        # pattern a worker relies on when it reads the responses the
        # flushing thread delivered.
        checker = RaceChecker()
        with racecheck.checking(checker):
            lock = threading.Lock()

            def publisher() -> None:
                with racecheck.guard("fixture.lock", lock):
                    racecheck.write("fixture.value")

            def consumer() -> None:
                with racecheck.guard("fixture.lock", lock):
                    pass
                racecheck.read("fixture.value")

            first = _spawn("pub", publisher)
            first.join()  # deliberately no racecheck.join: lock edge only
            second = _spawn("sub", consumer)
            _reap(second)
        assert checker.report().ok

    def test_wait_edge_orders_condition_handoff(self):
        # Model of BatchingLM: a waiter blocks on a condition, a flusher
        # writes under the cv and notifies; the waiter then reads the
        # written state outside the cv.  releasing()/reacquired() carry
        # the edge through Condition.wait's invisible release/acquire.
        checker = RaceChecker()
        with racecheck.checking(checker):
            cv = threading.Condition()
            done = {"flag": False}

            def waiter() -> None:
                with racecheck.guard("fixture.cv", cv):
                    while not done["flag"]:
                        racecheck.releasing("fixture.cv")
                        cv.wait()
                        racecheck.reacquired("fixture.cv")
                racecheck.read("fixture.payload")

            def flusher() -> None:
                with racecheck.guard("fixture.cv", cv):
                    racecheck.write("fixture.payload")
                    done["flag"] = True
                    cv.notify_all()

            blocked = _spawn("waiter", waiter)
            poker = _spawn("flusher", flusher)
            _reap(poker)
            _reap(blocked)
        assert checker.report().ok, checker.report().render()


class TestReporting:
    def test_report_is_sorted_and_stable(self):
        checker = RaceChecker()
        with racecheck.checking(checker):
            def touch() -> None:
                racecheck.write("fixture.zeta")
                racecheck.write("fixture.alpha")

            racecheck.write("fixture.zeta")
            racecheck.write("fixture.alpha")
            worker = threading.Thread(target=touch, name="stray")
            worker.start()
            worker.join()
        report = checker.report()
        assert [f.variable for f in report.findings] == [
            "fixture.alpha",
            "fixture.zeta",
        ]
        assert report.render() == checker.report().render()

    def test_duplicate_races_collapse(self):
        checker = RaceChecker()
        with racecheck.checking(checker):
            def hammer() -> None:
                for _ in range(25):
                    racecheck.write("fixture.hot")

            racecheck.write("fixture.hot")
            worker = threading.Thread(target=hammer, name="stray")
            worker.start()
            worker.join()
        report = checker.report()
        assert len(report.findings) == 1  # one pair, not 25 findings

    def test_finding_render_shape(self):
        finding = RaceFinding(
            kind="race",
            variable="fixture.v",
            threads=("a", "b"),
            message="boom",
        )
        assert finding.render() == "race: fixture.v [a, b] — boom"

    def test_metrics_published_on_report(self):
        checker = RaceChecker()
        with racecheck.checking(checker):
            racecheck.write("fixture.only")
        report = checker.report()
        assert report.ok
        assert report.events >= 1
        assert report.variables == 1
        assert report.findings == []


class TestDisabledPath:
    def test_hooks_are_noops_without_checker(self):
        assert not racecheck.installed()
        racecheck.read("fixture.v")
        racecheck.write("fixture.v")
        racecheck.fork("nobody")
        racecheck.join("nobody")
        racecheck.releasing("fixture.lock")
        racecheck.reacquired("fixture.lock")

    def test_guard_returns_raw_lock_when_disabled(self):
        lock = threading.Lock()
        assert racecheck.guard("fixture.lock", lock) is lock

    def test_checking_scope_restores_previous(self):
        outer, inner = RaceChecker(), RaceChecker()
        with racecheck.checking(outer):
            with racecheck.checking(inner):
                racecheck.write("fixture.inner")
            racecheck.write("fixture.outer")
        assert not racecheck.installed()
        assert "fixture.inner" in inner._vars
        assert "fixture.inner" not in outer._vars
        assert "fixture.outer" in outer._vars

    def test_guard_proxies_lock_when_enabled(self):
        lock = threading.Lock()
        checker = RaceChecker()
        with racecheck.checking(checker):
            with racecheck.guard("fixture.lock", lock):
                assert lock.locked()
            assert not lock.locked()
