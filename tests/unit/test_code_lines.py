"""``benchmarks/code_lines.py`` — the ruler the simplicity PRs quote."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).parents[2] / "benchmarks" / "code_lines.py"

SNIPPET = '''\
"""Module docstring,
on two lines."""

import os  # a trailing comment does not uncount its line

# a comment line


def function(argument):
    """A docstring."""
    value = (
        argument
        + 1
    )
    text = """a string that is not a docstring
    counts on every line it spans"""
    return value, text, os


class Thing:
    "Also a docstring."

    attribute = 1
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_blanks_comments_or_docstrings(tmp_path, capsys):
    code_lines = _load()
    # import, def, the 4-line assignment, the 2-line string, return,
    # class, attribute.
    assert code_lines.count_source(SNIPPET) == 11
    package = tmp_path / "package"
    package.mkdir()
    (package / "one.py").write_text(SNIPPET)
    (package / "two.py").write_text("x = 1\n\n\ny = 2  # two lines\n")
    (package / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(package), str(package / "two.py")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["13", "2"]
