"""Every public top-level class and function in ``src/repro``, and every
public method of its top-level classes, has a caller outside the tests.

ROADMAP item 10's rule: a public name needs a caller among the paper
tables, the CLI, an example, an E-benchmark or a ledger workload, and a
name without one is measured or removed.  This walks ``src/repro``,
``examples/`` and ``benchmarks/`` with ``ast`` and fails on each public
top-level ``def`` / ``class`` that nothing there references by name
other than its own definition, and on each public method that nothing
references other than its own body (``visit_*`` methods are exempt:
``ast.NodeVisitor`` dispatches them by name).  Import lines and
``__all__`` entries do not count as references: re-exporting a name
does not call it.

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
    "db.catalog.Database.drop_table": (
        "DDL the statement-cache state machine drives "
        "(tests/db/test_statement_cache.py): a drop must void cached plans"
    ),
    "db.catalog.Database.clear_partitioning": (
        "the inverse of set_partitioning; the statement-cache and "
        "sharding tests check that it voids plans and restores one shard"
    ),
    "serve.semantic.SemanticResultCache.invalidate": (
        "the cache is keyed on canonical text alone, so a data change "
        "needs it (ROADMAP item 10); tests pin what it evicts and meters"
    ),
    "db.table.Table.to_dicts": (
        "rows as dicts: tests/lm/test_handler_memo.py builds its golden "
        "answer prompts' fallback records with it"
    ),
    "knowledge.kb.KnowledgeBase.race_years": (
        "canonical twin of FuzzyKnowledge.believed_race_years; the "
        "knowledge tests and the Sepang scaling invariant compare with it"
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


def _members(statement: ast.stmt, skipped: set[int]):
    """``(member, names)`` for each part of a top-level statement: a
    class splits into its header (``-1``) and each body item, anything
    else is one part."""
    if not isinstance(statement, ast.ClassDef):
        yield -1, _referenced(statement, skipped)
        return
    header: set[str] = set()
    for node in (*statement.decorator_list, *statement.bases,
                 *statement.keywords):
        header |= _referenced(node, skipped)
    yield -1, header
    for member, item in enumerate(statement.body):
        yield member, _referenced(item, skipped)


def _public(name: str) -> bool:
    # ast.NodeVisitor dispatches visit_* methods by name.
    return not name.startswith(("_", "visit_"))


@functools.cache
def unreferenced_public_names() -> tuple[str, ...]:
    """``<module>.<name>`` of each public top-level definition under
    ``src/repro``, and ``<module>.<Class>.<method>`` of each public
    method of a top-level class there, that nothing else under
    :data:`CALLER_DIRS` references: another top-level statement for a
    definition, any other statement or class member for a method."""
    #: (path, statement index, member index) -> names that part references.
    references: dict[tuple[Path, int, int], set[str]] = {}
    definitions: list[tuple[tuple, str, str]] = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = _skipped(tree)
            module = path.relative_to(ROOT).with_suffix("").parts
            if PACKAGE in path.parents:
                module = path.relative_to(PACKAGE).with_suffix("").parts
                if module[-1] == "__init__":
                    module = module[:-1]
            for index, statement in enumerate(tree.body):
                for member, names in _members(statement, skipped):
                    references[path, index, member] = names
                if PACKAGE not in path.parents or not isinstance(
                    statement, (ast.ClassDef, *functions)
                ):
                    continue
                if _public(statement.name):
                    definitions.append(
                        ((path, index), statement.name,
                         ".".join((*module, statement.name)))
                    )
                if isinstance(statement, ast.ClassDef):
                    for member, item in enumerate(statement.body):
                        if isinstance(item, functions) and _public(item.name):
                            definitions.append(
                                ((path, index, member), item.name,
                                 ".".join((*module, statement.name,
                                           item.name)))
                            )
    found = []
    for own, name, qualified in definitions:
        if not any(
            name in names
            for key, names in references.items()
            if key[: len(own)] != own
        ):
            found.append(qualified)
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
