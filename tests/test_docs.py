"""Every dotted ``repro.*`` name the docs give must exist.

README.md, DESIGN.md and the docstrings under ``src/repro`` (modules,
classes and functions) name modules, classes and methods by dotted path.
Each name must import as a module, or resolve as an attribute of the
longest prefix that does.  A name that is part of a longer dotted word,
such as the pyproject tables ``[tool.repro.lint]`` and
``[tool.repro.conc]``, is not a path into the package and is skipped.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``repro`` and at least one dotted part, not preceded by a word
#: character or a dot.
NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def docstrings(path: Path) -> str:
    """The module, class and function docstrings of one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            text = ast.get_docstring(node)
            if text:
                found.append(text)
    return "\n".join(found)


def sources() -> dict[str, str]:
    texts = {
        name: (ROOT / name).read_text(encoding="utf-8")
        for name in ("README.md", "DESIGN.md")
    }
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        texts[str(path.relative_to(ROOT))] = docstrings(path)
    return texts


def resolves(name: str) -> bool:
    """Whether ``name`` imports, or is an attribute path off the longest
    prefix of it that imports."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


NAMES = sorted(
    {(source, name) for source, text in sources().items()
     for name in NAME.findall(text)}
)


def test_the_docs_name_something():
    assert len(NAMES) > 100


@pytest.mark.parametrize(
    "source, name", NAMES, ids=[f"{s}:{n}" for s, n in NAMES]
)
def test_a_dotted_name_resolves(source, name):
    assert resolves(name), f"{source} names {name}, which does not exist"
