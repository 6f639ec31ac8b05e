"""Tests for the static concurrency analyzer (repro.analysis.concurrency).

One golden seeded-race fixture per CONC rule, the repository baseline
gate, allowlist plumbing, and a hypothesis property pinning that the
lockset inference depends only on lock *scopes*, not statement order.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concurrency import (
    analyze_source,
    analyze_tree,
    is_lockish,
    load_allowlist,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _analyze(body: str):
    return analyze_source(textwrap.dedent(body), path="src/fixture.py")


def _codes(findings) -> list[str]:
    return [finding.code for finding in findings]


class TestRuleFixtures:
    """Each seeded-race fixture must trigger exactly its intended rule."""

    def test_conc201_unguarded_counter(self):
        findings = _analyze(
            """
            class Meter:
                def __init__(self):
                    self._count = 0
                    self._lock = make_lock()

                def safe_inc(self):
                    with self._lock:
                        self._count += 1

                def racy_inc(self):
                    self._count += 1
            """
        )
        assert _codes(findings) == ["CONC201"]
        assert findings[0].render() == (
            "src/fixture.py:12:8: CONC201 attribute self._count is "
            "lock-guarded elsewhere but mutated here with no lock held "
            "on some path [Meter.racy_inc]"
        )

    def test_conc202_inconsistent_locksets(self):
        findings = _analyze(
            """
            class Split:
                def __init__(self):
                    self._items = []
                    self._read_lock = make_lock()
                    self._write_lock = make_lock()

                def via_read(self):
                    with self._read_lock:
                        self._items.append(1)

                def via_write(self):
                    with self._write_lock:
                        self._items.append(2)
            """
        )
        assert _codes(findings) == ["CONC202"]
        assert "no single lock orders all writers" in findings[0].message
        assert findings[0].where == "Split.via_write"

    def test_conc203_lock_order_cycle(self):
        findings = _analyze(
            """
            class Deadlocky:
                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """
        )
        assert _codes(findings) == ["CONC203"]
        assert "self._a_lock -> self._b_lock -> self._a_lock" in (
            findings[0].message
        )

    def test_conc203_interprocedural_cycle(self):
        # One arm of the inversion goes through a helper entered with
        # the lock held — no single function nests both scopes.
        findings = _analyze(
            """
            class Deadlocky:
                def forward(self):
                    with self._a_lock:
                        self._grab_b()

                def _grab_b(self):
                    with self._b_lock:
                        pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """
        )
        assert "CONC203" in _codes(findings)

    def test_conc204_aliased_locked_call(self):
        findings = _analyze(
            """
            class Server:
                def tick(self):
                    drain = self._drain_locked
                    drain()

                def _drain_locked(self):
                    pass
            """
        )
        assert _codes(findings) == ["CONC204"]
        assert findings[0].render() == (
            "src/fixture.py:5:8: CONC204 _drain_locked() reachable "
            "with no lock held [Server.tick]"
        )

    def test_conc205_escaping_guarded_container(self):
        findings = _analyze(
            """
            class Registry:
                def __init__(self):
                    self._entries = []
                    self._lock = make_lock()

                def add(self, item):
                    with self._lock:
                        self._entries.append(item)

                def all_entries(self):
                    return self._entries
            """
        )
        assert _codes(findings) == ["CONC205"]
        assert "escapes by return/yield" in findings[0].message
        assert findings[0].where == "Registry.all_entries"

    def test_conc206_lazy_init_outside_lock(self):
        findings = _analyze(
            """
            class Lazy:
                def __init__(self):
                    self._cache = None
                    self._lock = make_lock()

                def reset(self):
                    with self._lock:
                        self._cache = {}

                def get(self):
                    if self._cache is None:
                        self._cache = build()
                    return self._cache
            """
        )
        codes = _codes(findings)
        # The unlocked assignment inside the lazy-init branch is itself
        # an unguarded mutation; both findings point at the same bug.
        assert "CONC206" in codes
        assert set(codes) <= {"CONC201", "CONC206"}
        conc206 = [f for f in findings if f.code == "CONC206"]
        assert "check-then-act lazy init" in conc206[0].message

    def test_conc207_mutable_class_attribute(self):
        findings = _analyze(
            """
            class Shared:
                registry = {}

                def put(self, key, value):
                    self.registry[key] = value
            """
        )
        assert "CONC207" in _codes(findings)

    def test_conc207_allcaps_constant_exempt(self):
        findings = _analyze(
            """
            class Tables:
                _METRIC_NAMES = {"a": 1}
            """
        )
        assert findings == []

    def test_conc208_acquire_without_finally(self):
        findings = _analyze(
            """
            class Manual:
                def risky(self):
                    self._lock.acquire()
                    do_work()
                    self._lock.release()
            """
        )
        assert _codes(findings) == ["CONC208"]
        assert "exception leaks the lock" in findings[0].message

    def test_conc208_finally_release_ok(self):
        findings = _analyze(
            """
            class Manual:
                def disciplined(self):
                    self._lock.acquire()
                    try:
                        do_work()
                    finally:
                        self._lock.release()
            """
        )
        assert findings == []

    def test_locked_contract_method_clean(self):
        # A *_locked helper's body is in contract; the unlocked call
        # into it is the only finding.
        findings = _analyze(
            """
            class Server:
                def tick(self):
                    self._drain_locked()

                def _drain_locked(self):
                    self._advance_locked()

                def _advance_locked(self):
                    self._pending = []
            """
        )
        assert _codes(findings) == ["CONC204"]

    def test_worker_shared_tag_on_shared_classes(self):
        findings = _analyze(
            """
            class StatementCache:
                def __init__(self):
                    self._entries = {}
                    self._lock = make_lock()

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def racy_clear(self):
                    self._entries.clear()
            """
        )
        assert _codes(findings) == ["CONC201"]
        assert "(worker-shared)" in findings[0].message


class TestLockishHeuristics:
    def test_is_lockish(self):
        assert is_lockish("self._lock")
        assert is_lockish("self._cv")
        assert is_lockish("self._meter_lock")
        assert is_lockish("_METER_LOCK")
        assert not is_lockish("self._pending")
        assert not is_lockish("self.clock")  # no lock-ish leaf token


class TestAllowlist:
    def test_pyproject_conc_entry_suppresses(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro.conc]
                allow = [
                    "src/m.py:CONC207  # registry is write-once at import",
                ]
                """
            )
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "m.py").write_text(
            textwrap.dedent(
                """
                class Shared:
                    registry = {}
                """
            )
        )
        report = analyze_tree(tmp_path)
        assert report.ok
        assert _codes(report.suppressed) == ["CONC207"]
        allowlist = load_allowlist(tmp_path)
        assert allowlist == {
            "src/m.py:CONC207": "registry is write-once at import"
        }

    def test_report_render_and_json(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "m.py").write_text(
            textwrap.dedent(
                """
                class Shared:
                    registry = {}
                """
            )
        )
        report = analyze_tree(tmp_path)
        rendered = report.render()
        assert rendered.startswith(
            "concurrency: unsafe (1 finding(s), 0 suppressed, 1 file(s))"
        )
        assert "per-rule: CONC207 x1" in rendered
        assert '"ok": false' in report.to_json()


# ---------------------------------------------------------------------------
# Property: inference depends on lock scopes, not statement order
# ---------------------------------------------------------------------------

_ATTRS = ("_alpha", "_beta", "_gamma", "_delta")


def _build_source(locked: list[str], unlocked: list[str]) -> str:
    locked_body = (
        "\n".join(f"            self.{attr} += 1" for attr in locked)
        or "            pass"
    )
    unlocked_body = (
        "\n".join(f"        self.{attr} += 1" for attr in unlocked)
        or "        pass"
    )
    return textwrap.dedent(
        """
        class Fixture:
            def guarded(self):
                with self._lock:
        {locked}

            def bare(self):
        {unlocked}
        """
    ).format(locked=locked_body, unlocked=unlocked_body)


def _signature(findings) -> list[tuple[str, str, str]]:
    """Order/line-insensitive essence of a finding list."""
    return sorted(
        (f.code, f.message, f.where) for f in findings
    )


@settings(max_examples=60, deadline=None)
@given(
    locked=st.lists(st.sampled_from(_ATTRS), unique=True),
    unlocked=st.lists(st.sampled_from(_ATTRS), unique=True),
    seed=st.randoms(use_true_random=False),
)
def test_lockset_inference_stable_under_reordering(locked, unlocked, seed):
    """Permuting statements within each lock scope never changes the
    findings (codes, messages, methods) — only line numbers may move."""
    baseline = _signature(
        analyze_source(_build_source(locked, unlocked))
    )
    shuffled_locked = list(locked)
    shuffled_unlocked = list(unlocked)
    seed.shuffle(shuffled_locked)
    seed.shuffle(shuffled_unlocked)
    permuted = _signature(
        analyze_source(_build_source(shuffled_locked, shuffled_unlocked))
    )
    assert permuted == baseline


@settings(max_examples=30, deadline=None)
@given(
    attrs=st.lists(
        st.sampled_from(_ATTRS), unique=True, min_size=1
    ),
    seed=st.randoms(use_true_random=False),
)
def test_method_order_irrelevant(attrs, seed):
    """Shuffling whole method definitions does not change findings."""
    methods = [
        textwrap.dedent(
            f"""
            def guard_{attr.strip('_')}(self):
                with self._lock:
                    self.{attr} += 1
            """
        )
        for attr in attrs
    ] + [
        textwrap.dedent(
            f"""
            def bare_{attr.strip('_')}(self):
                self.{attr} += 1
            """
        )
        for attr in attrs
    ]

    def assemble(parts: list[str]) -> str:
        body = "\n".join(
            textwrap.indent(part, "    ") for part in parts
        )
        return f"class Fixture:\n{body}"

    baseline = _signature(analyze_source(assemble(methods)))
    shuffled = list(methods)
    seed.shuffle(shuffled)
    permuted = _signature(analyze_source(assemble(shuffled)))
    assert permuted == baseline
    # And the fixture is not vacuous: every attr races.
    assert len(baseline) == len(attrs)


class TestRepositoryBaseline:
    @pytest.mark.skipif(
        not (REPO_ROOT / "src" / "repro").is_dir(),
        reason="repository layout not available",
    )
    def test_src_has_no_unwaived_conc_findings(self):
        report = analyze_tree(REPO_ROOT)
        assert report.ok, report.render()
        # The worker-shared surface must include the serving stack's
        # load-bearing classes (regression guard on the closure).
        names = {entry.split(" ")[0] for entry in report.shared_classes}
        assert {
            "BatchingLM",
            "Session",
            "LRUCache",
            "StatementCache",
            "Tracer",
            "VirtualClock",
        } <= names

    @pytest.mark.skipif(
        not (REPO_ROOT / "src" / "repro").is_dir(),
        reason="repository layout not available",
    )
    def test_usage_is_on_the_worker_shared_surface(self):
        """Every counter is written by ``Usage.add`` under its one
        lock; the closure reaches ``Usage`` from the serving stack."""
        report = analyze_tree(REPO_ROOT)
        assert "Usage (src/repro/lm/usage.py)" in report.shared_classes
        assert not report.suppressed
