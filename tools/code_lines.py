"""Count code lines: the figure the simplicity ledger reports.

A code line is a physical line that holds a token other than a comment
or layout (COMMENT, NL, NEWLINE, INDENT, DEDENT, ENDMARKER) and is not
in a module, class or function docstring.  A token spanning several
lines (a multi-line string) holds each of them.  Blank lines, comment
lines and docstrings are not code.

Usage::

    python tools/code_lines.py src/repro [more paths...]

prints one ``<count> <file>`` line per Python file under the paths,
then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
)


def docstring_lines(source: str) -> set[int]:
    """The 1-based lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> set[int]:
    """The 1-based numbers of ``source``'s code lines."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstring_lines(source)


def count(paths: list[str]) -> dict[str, int]:
    """Code lines per Python file under ``paths``, in path order."""
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return {str(file): len(code_lines(file.read_text())) for file in files}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    counts = count(argv)
    for name, lines in counts.items():
        print(f"{lines:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
