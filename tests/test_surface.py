"""Every public top-level class and function in ``src/repro`` has a caller
outside the tests.

ROADMAP item 10's rule: a public name needs a caller among the paper
tables, the CLI, an example, an E-benchmark or a ledger workload, and a
name without one is measured or removed.  This walks ``src/repro``,
``examples/`` and ``benchmarks/`` with ``ast`` and fails on each public
top-level ``def`` / ``class`` that nothing there references by name
other than its own definition.  Import lines and ``__all__`` entries do
not count as references: re-exporting a name does not call it.

A name kept for the tests on purpose goes in :data:`KEPT_FOR_TESTS`
with its reason.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks")

#: ``<module under repro>.<name>`` -> why it stays with no caller.
KEPT_FOR_TESTS = {
    "analysis.concurrency.analyze_source": (
        "analyzes one source string: the fixture entry point of the "
        "concurrency analyzer's rule tests"
    ),
    "core.repair.render_transcript": (
        "the printable form of TAGResult.repairs that DESIGN §13 "
        "documents; its golden text is pinned in tests/core/test_repair.py"
    ),
    "frame.io.read_csv": (
        "reads back what `repro export` writes (the Appendix C CSV "
        "workflow); the round trip is that format's test"
    ),
}


def _skipped(tree: ast.Module) -> set[int]:
    """Ids of nodes inside import statements and ``__all__`` values."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(id(inner) for inner in ast.walk(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ):
                skipped.update(id(inner) for inner in ast.walk(node))
    return skipped


def _referenced(statement: ast.stmt, skipped: set[int]) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(statement):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@functools.cache
def unreferenced_public_names() -> tuple[str, ...]:
    """``<module>.<name>`` of each public top-level definition under
    ``src/repro`` that no other top-level statement of any file under
    :data:`CALLER_DIRS` references."""
    #: (path, statement index) -> names that statement references.
    references: dict[tuple[Path, int], set[str]] = {}
    definitions: list[tuple[Path, int, str]] = []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = _skipped(tree)
            for index, statement in enumerate(tree.body):
                references[path, index] = _referenced(statement, skipped)
                if (
                    PACKAGE in path.parents
                    and isinstance(
                        statement,
                        (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                    )
                    and not statement.name.startswith("_")
                ):
                    definitions.append((path, index, statement.name))
    found = []
    for path, index, name in definitions:
        if any(
            name in names
            for key, names in references.items()
            if key != (path, index)
        ):
            continue
        module = path.relative_to(PACKAGE).with_suffix("").parts
        if module[-1] == "__init__":
            module = module[:-1]
        found.append(".".join((*module, name)))
    return tuple(sorted(found))


def test_every_public_name_has_a_caller_outside_the_tests():
    unexplained = [
        name
        for name in unreferenced_public_names()
        if name not in KEPT_FOR_TESTS
    ]
    assert not unexplained, (
        "public names that only the tests reach (give each a caller, "
        "delete it, or add it to KEPT_FOR_TESTS with a reason): "
        + ", ".join(unexplained)
    )


def test_every_kept_name_still_needs_keeping():
    stale = sorted(set(KEPT_FOR_TESTS) - set(unreferenced_public_names()))
    assert not stale, f"KEPT_FOR_TESTS entries with a caller now: {stale}"
