"""The code-line count ``make loc`` reports, pinned on a fixture."""

from __future__ import annotations

from tools.code_lines import code_lines, count, main

FIXTURE = '''\
"""Module docstring,
two lines."""

# A comment line.
import os  # a trailing comment: still code


class Thing:
    """Class docstring."""

    LIMIT = 3

    def method(self, value):
        """Function docstring,

        three lines."""
        text = """not a docstring:
        each line of it is code"""
        return (
            value,

            text,  # a blank line inside brackets is not code
        )


async def wait():
    """Async function docstring."""
    x = 1; y = 2
    return x + \\
        y
'''



def test_the_fixture_counts_its_code_lines():
    assert sorted(code_lines(FIXTURE)) == [
        5, 8, 11, 13, 17, 18, 19, 20, 22, 23, 26, 28, 29, 30
    ]


def test_a_line_of_code_counts_once_and_docstrings_never():
    assert code_lines("x = 1; y = 2\n") == {1}
    assert code_lines('"""Only a docstring."""\n') == set()
    assert code_lines('x = 1\n"""A string after code is code."""\n') == {1, 2}
    assert code_lines("def f():\n    '''Doc.'''\n") == {1}
    assert code_lines("\n\n# comment\n") == set()


def test_paths_are_counted_per_file(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert list(count([str(tmp_path / "pkg")]).values()) == [1, 14]
    assert main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["15", "total"]
